"""Batch kernel ridge regression on the full sample Gram matrix.

Serves as the offline reference solver. Two regularization variants are
supported: penalizing the function norm alpha^T K alpha (``rkhs_norm``)
or the plain coefficient norm ||alpha||^2 (``param_norm``). Both are
solved through their normal equations with a Cholesky factorization; the
popular shortcut (K + eps I)^{-1} y is deliberately not used because it is
only equivalent when K is nonsingular.

:func:`solve` keeps the normal matrix A in rectangular full packed (RFP)
storage: its lower triangle in one array of n(n+1)/2 entries, which LAPACK
still builds and factors with level-3 BLAS (Gustavson, Wasniewski, Dongarra
& Langou, ACM TOMS 2010). One symmetric rank-k update (``dsfrk``, half the
flops of ``K @ K``) builds it and ``dpftrf`` factors it in place, so the
solve works in K and one RFP triangle. The refinement step and
:func:`normal_residual` read the normal-equation residual A alpha - b from
:func:`gradient`, K(K alpha - y) + eps (K alpha or alpha), which applies A
through K and never forms it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lapack import dpftrf, dpftrs, dsfrk, dtrttf
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

    Builds A = K^2 + eps K (``rkhs_norm``) or K^2 + eps I (``param_norm``)
    as an RFP lower triangle with one ``dsfrk``, factors it in place by
    Cholesky (``dpftrf``) and makes one step of iterative refinement, whose
    residual applies A through K. Besides the Gram matrix it holds one
    array of n(n+1)/2 entries.
    The ``rkhs_norm`` system is singular whenever the Gram matrix is
    (linearly dependent samples). Whether the factorization sees that
    depends on rounding: it may raise a NumericalError suggesting the
    ``param_norm`` variant, whose system is always positive definite, or
    return one of the minimizers, which all share the same K alpha.
    """
    K = prob.gram
    n = K.shape[0]
    # K.T is K's buffer read in Fortran order, which LAPACK takes without a
    # copy; with K symmetric, (K.T)^T K.T = K^2
    if prob.variant == "rkhs_norm":
        a = dtrttf(K.T, transr="N", uplo="L")[0]
        a *= prob.eps
        beta = 1.0
    else:
        a = np.zeros(n * (n + 1) // 2)
        beta = 0.0
    a = dsfrk(n, n, 1.0, K.T, beta, a, transr="N", uplo="L", trans="T", overwrite_c=1)
    if prob.variant == "param_norm":
        a[_rfp_diagonal(n)] += prob.eps
    a, info = dpftrf(n, a, transr="N", uplo="L", overwrite_a=1)
    if info > 0:
        hint = " (singular Gram matrix; the param_norm variant stays solvable)" \
            if prob.variant == "rkhs_norm" else ""
        raise NumericalError(f"normal equations not positive definite{hint}:"
                             f" leading minor of order {info} is not positive")
    alpha = _factor_solve(a, K @ prob.targets)
    alpha -= _factor_solve(a, gradient(prob, alpha))
    return alpha


def _rfp_diagonal(n: int) -> np.ndarray:
    """Positions of an n x n matrix's diagonal in its RFP array (``transr="N"``, ``uplo="L"``).

    The array is a column-major (n+1) x n/2 block for even n and n x (n+1)/2
    for odd n; both diagonal halves step by one column plus one row.
    """
    size = n * (n + 1) // 2
    step, second = (n + 2, 1) if n % 2 == 0 else (n + 1, n)
    return np.sort(np.concatenate((np.arange(0, size, step), np.arange(second, size, step))))


def _factor_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with L L^T x = rhs, for the RFP Cholesky factor L from ``dpftrf``."""
    x, _ = dpftrs(rhs.shape[0], factor, rhs[:, None], transr="N", uplo="L")
    return x[:, 0]


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
    """Analytic gradient of :func:`objective` with respect to alpha.

    It is the residual A alpha - b of the normal equations, computed as
    K(K alpha - y) + eps (K alpha or alpha) without forming A.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    K = prob.gram
    k_alpha = K @ alpha
    out = K @ (k_alpha - prob.targets)
    out += prob.eps * (k_alpha if prob.variant == "rkhs_norm" else alpha)
    return out


def normal_residual(prob: RidgeProblem, alpha) -> float:
    """Relative residual ||A alpha - b|| / ||b|| of the normal equations, ||A alpha|| when b = K y is 0.

    The residual is :func:`gradient`'s, so this takes O(n^2) time and O(n)
    memory once the Gram matrix is built.
    """
    denom = float(np.linalg.norm(prob.gram @ prob.targets))
    norm = float(np.linalg.norm(gradient(prob, alpha)))
    return norm / denom if denom else norm
