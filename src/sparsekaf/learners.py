"""Online parameter estimation over a growing sparse dictionary.

Each step predicts with the previous model, offers the sample to the
dictionary, and applies one of four update rules over the post-admission
dictionary: two dual-space stochastic gradient variants (plain and
Gram-weighted regularization, whose K alpha is read through the Cholesky
factor as L (L^T alpha)), a normalized LMS, and the
functional-framework rule that replaces the incoming kernel function by
its projection onto the dictionary span.

The first three rules act on the coefficient vector alpha. The functional
rule is linear and holds in any coordinates related to alpha by an
invertible map: with K = L L^T, it acts on (alpha, xi = K^-1 kvec) and
equally on (w = L^T alpha, z = L^-1 kvec). The map alpha -> w is an
isometry, ||psi||^2 = alpha^T K alpha = ||w||^2, and in w a step needs one
triangular solve: the prediction is alpha^T kvec = w^T z and the update
reads z. So functional steps carry the model as w.

A learner run is strictly sequential; distinct runs are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dictionary import Dictionary, _coefficients
from .errors import NumericalError
from .kernels import _as_vector, kernel_vector

ALGORITHMS = ("lms_identity", "lms_gram", "nlms", "functional_sgd")


@dataclass(frozen=True)
class LearnerConfig:
    """Which update rule to run, with step size ``eta`` and stabilizer ``eps``.

    ``eps`` is the regularization weight for the gradient rules and the
    denominator stabilizer for ``nlms``, whose normalized rule is stable
    only for 0 < eta < 2. The functional rule scales the model by the decay
    factor 1 - eta*eps each step, so it needs eta*eps < 1.
    """

    algorithm: str
    eta: float
    eps: float = 0.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        # NaN fails these comparisons too
        if not 0 < self.eta < math.inf:
            raise ValueError("step size eta must be finite and > 0")
        if self.algorithm == "nlms" and not self.eta < 2:
            raise ValueError(f"nlms step size eta must be < 2, got {self.eta!r}")
        if not 0 <= self.eps < math.inf:
            raise ValueError("eps must be finite and >= 0")
        if self.algorithm == "functional_sgd" and not self.eta * self.eps < 1.0:
            raise ValueError(f"functional_sgd needs eta*eps < 1, got eta {self.eta!r} and eps {self.eps!r}")


class ModelState:
    """The model psi = sum_j alpha_j kappa(atom_j, .) over the dictionary atoms it was sized for.

    ``ModelState(alpha=...)`` holds the coefficient vector alpha. A state
    returned by a functional step holds w = L^T alpha instead, the model in
    the coordinates of the dictionary's Cholesky factor K = L L^T, together
    with the packed factor buffer it refers to; ``alpha`` = L^-T w is then
    solved on first read and cached. The solve reads only the factor's
    first m(m+1)/2 entries, which later admissions never write. A state is
    a value: do not mutate ``alpha``.
    """

    def __init__(self, alpha):
        self._alpha = alpha
        self._w = self._packed = None
        self._m = len(alpha)

    @classmethod
    def empty(cls) -> "ModelState":
        return cls(alpha=np.zeros(0))

    @classmethod
    def from_coordinates(cls, w, dictionary: Dictionary) -> "ModelState":
        """The model whose coordinates over ``dictionary``'s current Cholesky factor are ``w``."""
        w = np.asarray(w, dtype=np.float64)
        if len(w) != dictionary.m:
            raise ValueError(f"{len(w)} coordinates for a dictionary of {dictionary.m} atoms")
        return cls._over(w, dictionary._factor())

    @classmethod
    def _over(cls, w: np.ndarray, packed: np.ndarray) -> "ModelState":
        """The state holding float64 ``w`` over the factor in ``packed``, unchecked."""
        state = cls.__new__(cls)
        state._alpha, state._w, state._packed, state._m = None, w, packed, len(w)
        return state

    @property
    def alpha(self) -> np.ndarray:
        """Coefficient vector over the atoms, in admission order."""
        if self._alpha is None:
            self._alpha = _coefficients(self._packed, self._w)
        return self._alpha

    def coordinates(self, dictionary: Dictionary) -> np.ndarray:
        """w = L^T alpha over ``dictionary``'s Cholesky factor, so that ||w||^2 = alpha^T K alpha.

        A state that holds w over this factor returns it without reading
        ``alpha``; any other state pays one triangular product.
        """
        self._check_size(dictionary)
        if self._w is not None and self._packed is dictionary._factor():
            return self._w
        return dictionary._coordinates(self.alpha)

    def predict(self, dictionary: Dictionary, x) -> float:
        """Model output alpha^T kvec(x); an empty expansion predicts 0."""
        if self._m == 0:
            _as_vector(x, "x")
            return 0.0
        return float(self.alpha @ kernel_vector(dictionary.kernel, dictionary.atoms, x))

    def _check_size(self, dictionary: Dictionary) -> None:
        if self._m != dictionary._m:
            raise ValueError(f"state sized for {self._m} atoms but dictionary has {dictionary.m}")

    def __repr__(self) -> str:
        return f"ModelState(alpha={self.alpha!r})"


class StepOutcome(NamedTuple):
    """What one :func:`step` did: an immutable tuple (prediction, error, admitted, new_m)."""

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


def update_lms_gram(alpha, kvec, gram_alpha, error: float, eta: float, eps: float) -> np.ndarray:
    """Stochastic gradient rule with Gram-weighted regularization.

    alpha' = alpha + eta * (error * kvec - eps * gram_alpha), where
    ``gram_alpha`` is K alpha over the dictionary the update acts on; with
    gram_alpha = alpha this coincides with :func:`update_lms_identity`.
    :func:`step` forms K alpha from the Cholesky factor, as L (L^T alpha).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    kvec = np.asarray(kvec, dtype=np.float64)
    gram_alpha = np.asarray(gram_alpha, dtype=np.float64)
    for name, v in (("kvec", kvec), ("gram_alpha", gram_alpha)):
        if v.shape != alpha.shape:
            raise ValueError(f"length mismatch: alpha {alpha.shape} vs {name} {v.shape}")
    return alpha + eta * (error * kvec - eps * gram_alpha)


def update_nlms(alpha, kvec, error: float, eta: float, eps: float) -> np.ndarray:
    """Normalized LMS: alpha' = alpha + eta/(||kvec||^2 + eps) * error * kvec."""
    alpha = np.asarray(alpha, dtype=np.float64)
    kvec = np.asarray(kvec, dtype=np.float64)
    if alpha.shape != kvec.shape:
        raise ValueError(f"length mismatch: alpha {alpha.shape} vs kvec {kvec.shape}")
    denom = float(kvec.dot(kvec)) + eps
    if denom <= 0.0:
        raise NumericalError("nlms denominator ||kvec||^2 + eps is zero")
    return alpha + (eta / denom) * error * kvec


def update_functional(alpha, xi, error: float, eta: float, eps: float) -> np.ndarray:
    """Functional-framework rule: alpha' = (1 - eta*eps) * alpha + eta * error * xi.

    In dual coordinates, xi is the coefficient vector of projecting
    kappa(x, .) onto the dictionary span (``Dictionary.project(x).coefficients``,
    K^-1 kvec(x)). With K = L L^T the rule holds unchanged in the
    factor's coordinates, on (w, z) = (L^T alpha, L^-1 kvec(x)) with
    z = ``Dictionary.project(x).z``; :func:`step` applies it there. A decay
    factor (1 - eta*eps) <= 0 means the configuration diverges and raises
    instead of silently flipping the sign of the model.
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
    """One online iteration: predict, admit if novel, update the model.

    The kernel row kvec = (kappa(atom_j, x_t))_j is evaluated once, over
    the pre-admission dictionary. The prediction alpha @ kvec and the
    criterion test read it; on admission it is extended by the new atom's
    entry kappa(x_t, x_t), the number the Gram matrix holds, and the
    coefficient vector by a zero (which leaves the model function
    unchanged), so that the update rule acts on the just-admitted atom.
    The Gram-weighted rule reads K alpha over that dictionary as
    L (L^T alpha), so no step reads the dense Gram matrix.

    The functional rule runs in the factor's coordinates: one forward solve
    z = L^-1 kvec serves the prediction w @ z, the approximation test, the
    admission's Schur pivot and the update. On admission w gains a zero
    (L'^T [alpha, 0] = [w, 0]) and z the new diagonal entry of L, since
    L'^-1 [kvec, kappa(x_t, x_t)] = [z, sqrt(pivot)]. The dictionary is
    updated in place. A non-finite ``x_t`` or ``y_t`` raises ``ValueError``,
    and a non-finite prediction (a diverged model) ``NumericalError``,
    before anything changes.
    """
    state._check_size(dictionary)
    y = float(y_t)
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    x, kvec, kxx = dictionary._row(x_t)
    return _update(state, dictionary, x, kvec, kxx, y, cfg)


def _update(
    state: ModelState,
    dictionary: Dictionary,
    x: np.ndarray,
    kvec: np.ndarray,
    kxx: float,
    y: float,
    cfg: LearnerConfig,
) -> tuple[ModelState, StepOutcome]:
    """:func:`step` after its checks, given checked ``x``'s row (kvec, kxx) over ``dictionary`` and a finite ``y``.

    ``kvec`` is only read.
    """
    functional = cfg.algorithm == "functional_sgd"
    # ndarray.dot is the BLAS ddot that @ reaches for two vectors, with less dispatch
    if functional:
        z = dictionary._forward(kvec)
        w = state.coordinates(dictionary)
        prediction = float(w.dot(z))
    else:
        z = None
        prediction = float(state.alpha.dot(kvec))
    error = y - prediction
    if not math.isfinite(error):
        raise NumericalError(f"{cfg.algorithm} with eta {cfg.eta} diverged: prediction {prediction!r}")

    root = dictionary._admit_row(x, kvec, kxx, z)
    admitted = root is not None
    if functional:
        if admitted:
            w, z = np.concatenate((w, [0.0])), np.concatenate((z, [root]))
        # after a step the dictionary has atoms, so its packed factor is built
        state = ModelState._over(update_functional(w, z, error, cfg.eta, cfg.eps), dictionary._packed)
    else:
        alpha = state.alpha
        if admitted:
            alpha, kvec = np.concatenate((alpha, [0.0])), np.concatenate((kvec, [kxx]))
        if cfg.algorithm == "lms_identity":
            alpha = update_lms_identity(alpha, kvec, error, cfg.eta, cfg.eps)
        elif cfg.algorithm == "lms_gram":
            alpha = update_lms_gram(alpha, kvec, dictionary._gram_product(alpha), error, cfg.eta, cfg.eps)
        else:
            alpha = update_nlms(alpha, kvec, error, cfg.eta, cfg.eps)
        state = ModelState(alpha=alpha)

    return state, StepOutcome(prediction, error, admitted, dictionary._m)
