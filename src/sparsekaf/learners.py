"""Online parameter estimation over a growing sparse dictionary.

Each step predicts with the previous coefficient vector, offers the sample
to the dictionary, and applies one of four update rules over the
post-admission dictionary: two dual-space stochastic gradient variants
(plain and Gram-weighted regularization), a normalized LMS, and the
functional-framework rule that replaces the incoming kernel function by
its projection onto the dictionary span.

A learner run is strictly sequential; distinct runs are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .errors import NumericalError
from .kernels import _as_vector

ALGORITHMS = ("lms_identity", "lms_gram", "nlms", "functional_sgd")


@dataclass(frozen=True)
class LearnerConfig:
    """Which update rule to run, with step size ``eta`` and stabilizer ``eps``.

    ``eps`` is the regularization weight for the gradient rules and the
    denominator stabilizer for ``nlms``.
    """

    algorithm: str
    eta: float
    eps: float = 0.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if not self.eta > 0:
            raise ValueError("step size eta must be > 0")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")


@dataclass(frozen=True)
class ModelState:
    """Coefficient vector over the dictionary atoms it was sized for."""

    alpha: np.ndarray

    @classmethod
    def empty(cls) -> "ModelState":
        return cls(alpha=np.zeros(0))

    def predict(self, dictionary: Dictionary, x) -> float:
        """Model output alpha^T kvec(x); an empty expansion predicts 0."""
        if len(self.alpha) == 0:
            _as_vector(x, "x")
            return 0.0
        return float(self.alpha @ dictionary.kernel_vector(x))


@dataclass(frozen=True)
class StepOutcome:
    prediction: float
    error: float
    admitted: bool
    new_m: int


def update_lms_identity(alpha, kvec, error: float, eta: float, eps: float) -> np.ndarray:
    """Stochastic gradient rule with plain norm regularization.

    alpha' = alpha + eta * (error * kvec - eps * alpha); reduces to LMS
    when eps = 0.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    kvec = np.asarray(kvec, dtype=np.float64)
    if alpha.shape != kvec.shape:
        raise ValueError(f"length mismatch: alpha {alpha.shape} vs kvec {kvec.shape}")
    return alpha + eta * (error * kvec - eps * alpha)


def update_lms_gram(alpha, kvec, gram, error: float, eta: float, eps: float) -> np.ndarray:
    """Stochastic gradient rule with Gram-weighted regularization.

    alpha' = alpha + eta * (error * kvec - eps * gram @ alpha); with
    gram = I this coincides with :func:`update_lms_identity`.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    kvec = np.asarray(kvec, dtype=np.float64)
    gram = np.asarray(gram, dtype=np.float64)
    if gram.shape != (len(alpha), len(alpha)):
        raise ValueError(f"gram shape {gram.shape} does not match alpha length {len(alpha)}")
    return alpha + eta * (error * kvec - eps * (gram @ alpha))


def update_nlms(alpha, kvec, error: float, eta: float, eps: float) -> np.ndarray:
    """Normalized LMS: alpha' = alpha + eta/(||kvec||^2 + eps) * error * kvec."""
    alpha = np.asarray(alpha, dtype=np.float64)
    kvec = np.asarray(kvec, dtype=np.float64)
    if alpha.shape != kvec.shape:
        raise ValueError(f"length mismatch: alpha {alpha.shape} vs kvec {kvec.shape}")
    denom = float(kvec @ kvec) + eps
    if denom <= 0.0:
        raise NumericalError("nlms denominator ||kvec||^2 + eps is zero")
    return alpha + (eta / denom) * error * kvec


def update_functional(alpha, xi, error: float, eta: float, eps: float) -> np.ndarray:
    """Functional-framework rule in dual coordinates.

    alpha' = (1 - eta*eps) * alpha + eta * error * xi, where xi is the
    coefficient vector of projecting kappa(x, .) onto the dictionary span
    (``Dictionary.project(x).coefficients``, i.e. K^-1 kvec(x) from two
    triangular solves with the Cholesky factor of K). A decay factor (1 - eta*eps) <= 0 means the configuration diverges and
    raises instead of silently flipping the sign of the model.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    decay = 1.0 - eta * eps
    if decay <= 0.0:
        raise NumericalError(f"functional update decay factor 1 - eta*eps = {decay} is <= 0")
    if alpha.shape != xi.shape:
        raise ValueError(f"length mismatch: alpha {alpha.shape} vs dictionary size {xi.shape}")
    return decay * alpha + eta * error * xi


def step(
    state: ModelState,
    dictionary: Dictionary,
    x_t,
    y_t: float,
    cfg: LearnerConfig,
) -> tuple[ModelState, StepOutcome]:
    """One online iteration: predict, admit if novel, update the coefficients.

    The kernel row kvec = (kappa(atom_j, x_t))_j is evaluated once, over
    the pre-admission dictionary. The prediction alpha @ kvec and the
    criterion test read it; on admission it is extended by the new atom's
    entry, and the coefficient vector by a zero (which leaves the model
    function unchanged), so that the update rule acts on the just-admitted
    atom. The dictionary is updated in place.
    """
    if len(state.alpha) != dictionary.m:
        raise ValueError(f"state sized for {len(state.alpha)} atoms but dictionary has {dictionary.m}")
    if cfg.algorithm == "functional_sgd" and 1.0 - cfg.eta * cfg.eps <= 0.0:
        raise NumericalError(f"functional update decay factor 1 - eta*eps = {1.0 - cfg.eta * cfg.eps} is <= 0")
    x = dictionary._candidate(x_t)
    kvec, kxx = dictionary._row(x)
    prediction = float(state.alpha @ kvec)
    error = float(y_t) - prediction

    grown = dictionary._admit_row(x, kvec, kxx)
    admitted = grown is not None
    alpha = state.alpha
    if admitted:
        alpha, kvec = np.append(alpha, 0.0), grown

    if cfg.algorithm == "lms_identity":
        alpha = update_lms_identity(alpha, kvec, error, cfg.eta, cfg.eps)
    elif cfg.algorithm == "lms_gram":
        alpha = update_lms_gram(alpha, kvec, dictionary.gram, error, cfg.eta, cfg.eps)
    elif cfg.algorithm == "nlms":
        alpha = update_nlms(alpha, kvec, error, cfg.eta, cfg.eps)
    else:
        alpha = update_functional(alpha, dictionary._project(kvec, kxx).coefficients, error, cfg.eta, cfg.eps)

    outcome = StepOutcome(prediction=prediction, error=error, admitted=admitted, new_m=dictionary.m)
    return ModelState(alpha=alpha), outcome
