"""Batch kernel ridge regression on the full sample Gram matrix.

Serves as the offline reference solver. Two regularization variants are
supported: penalizing the function norm alpha^T K alpha (``rkhs_norm``)
or the plain coefficient norm ||alpha||^2 (``param_norm``). Both are
solved through their normal equations with a Cholesky factorization; the
popular shortcut (K + eps I)^{-1} y is deliberately not used because it is
only equivalent when K is nonsingular.

:func:`solve` builds only the lower triangle of the normal matrix, with one
symmetric rank-k update (BLAS ``dsyrk``, half the flops of ``K @ K``), and
factors it in place, so it works in two n x n arrays: K and A. The
refinement step and :func:`normal_residual` apply A through K, as
K(K alpha) plus the regularizer's term, and never form it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk

from .errors import NumericalError
from .kernels import Kernel, _as_matrix

VARIANTS = ("rkhs_norm", "param_norm")


@dataclass
class RidgeProblem:
    """Training data, kernel and tradeoff for one ridge regression."""

    samples: np.ndarray
    targets: np.ndarray
    kernel: Kernel
    eps: float
    variant: str = "rkhs_norm"
    _gram: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.samples = _as_matrix(self.samples, "samples")
        self.targets = np.asarray(self.targets, dtype=np.float64).reshape(-1)
        if self.samples.shape[0] < 1:
            raise ValueError("need at least one sample")
        if self.samples.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.samples.shape[0]} samples but {self.targets.shape[0]} targets"
            )
        if not self.eps > 0:
            raise ValueError("tradeoff eps must be > 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self.kernel.gram(self.samples)
        return self._gram

    def normal_system(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) of the normal equations A @ alpha = b for this variant."""
        K = self.gram
        A = K @ K
        if self.variant == "rkhs_norm":
            A += self.eps * K
        else:
            A[np.diag_indices_from(A)] += self.eps
        A += A.T.copy()
        A *= 0.5
        return A, K @ self.targets


def solve(prob: RidgeProblem) -> np.ndarray:
    """Coefficient vector solving the variant's normal equations.

    Builds the lower triangle of A = K^2 + eps K (``rkhs_norm``) or
    K^2 + eps I (``param_norm``) with one ``dsyrk``, factors it in place by
    Cholesky and makes one step of iterative refinement, whose residual
    applies A through K. Besides the Gram matrix it holds one n x n array.
    The ``rkhs_norm`` system is singular whenever the Gram matrix is
    (linearly dependent samples). Whether the factorization sees that
    depends on rounding: it may raise a NumericalError suggesting the
    ``param_norm`` variant, whose system is always positive definite, or
    return one of the minimizers, which all share the same K alpha.
    """
    K = prob.gram
    # K.T is K's buffer read in Fortran order, which dsyrk takes without a
    # copy; with K symmetric, (K.T)^T K.T = K^2
    if prob.variant == "rkhs_norm":
        A = dsyrk(1.0, K.T, beta=prob.eps, c=np.array(K, order="F"), trans=1, lower=1, overwrite_c=1)
    else:
        A = dsyrk(1.0, K.T, trans=1, lower=1)
        A[np.diag_indices_from(A)] += prob.eps
    try:
        factor = scipy.linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
    except (np.linalg.LinAlgError, ValueError) as exc:
        hint = " (singular Gram matrix; the param_norm variant stays solvable)" \
            if prob.variant == "rkhs_norm" else ""
        raise NumericalError(f"normal equations not positive definite{hint}: {exc}") from None
    b = K @ prob.targets
    alpha = scipy.linalg.cho_solve(factor, b, check_finite=False)
    alpha += scipy.linalg.cho_solve(factor, b - _normal_product(prob, alpha), check_finite=False)
    return alpha


def _normal_product(prob: RidgeProblem, alpha: np.ndarray) -> np.ndarray:
    """A @ alpha for the variant's normal matrix A, as K(K alpha) + eps (K alpha or alpha)."""
    K = prob.gram
    k_alpha = K @ alpha
    out = K @ k_alpha
    out += prob.eps * (k_alpha if prob.variant == "rkhs_norm" else alpha)
    return out


def objective(prob: RidgeProblem, alpha) -> float:
    """Regularized empirical risk 0.5 ||K alpha - y||^2 + 0.5 eps * penalty."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape != prob.targets.shape:
        raise ValueError(f"alpha length {alpha.shape[0]} does not match n={prob.targets.shape[0]}")
    K = prob.gram
    fit = 0.5 * float(np.sum((K @ alpha - prob.targets) ** 2))
    if prob.variant == "rkhs_norm":
        penalty = float(alpha @ (K @ alpha))
    else:
        penalty = float(alpha @ alpha)
    return fit + 0.5 * prob.eps * penalty


def gradient(prob: RidgeProblem, alpha) -> np.ndarray:
    """Analytic gradient of :func:`objective` with respect to alpha."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    K = prob.gram
    residual = K @ (K @ alpha - prob.targets)
    if prob.variant == "rkhs_norm":
        return residual + prob.eps * (K @ alpha)
    return residual + prob.eps * alpha


def normal_residual(prob: RidgeProblem, alpha) -> float:
    """Relative residual ||A alpha - b|| / ||b|| of the normal equations.

    A is applied through K, as in :func:`solve`'s refinement, so this takes
    O(n^2) time and O(n) memory once the Gram matrix is built.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    b = prob.gram @ prob.targets
    denom = float(np.linalg.norm(b))
    if denom == 0.0:
        return float(np.linalg.norm(_normal_product(prob, alpha)))
    return float(np.linalg.norm(_normal_product(prob, alpha) - b)) / denom
