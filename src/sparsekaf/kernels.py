"""Positive-definite kernels and their norm-range bookkeeping.

A :class:`Kernel` evaluates one of the three standard families (linear,
polynomial, Gaussian) on pairs of input vectors, either one pair at a
time or vectorized against a stack of atoms. :class:`NormRange` records
the extremes of the self-similarity kappa(x, x) over the input domain,
which the spectral bounds need as ``r_sq`` and ``R_sq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("linear", "polynomial", "gaussian")


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of float64 ``a`` is finite; it makes no arithmetic, so it never warns."""
    return bool(np.isfinite(a).all())


def _sq_distances(atoms: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from ``x`` to every row of ``atoms``, in a new array."""
    sq = atoms - x
    np.square(sq, out=sq)
    d = sq.shape[1]
    if 0 < d < 8:
        # numpy sums fewer than 8 terms left to right, so adding one
        # coordinate at a time to the first is its reduction's arithmetic
        # without the per-row overhead; from 8 terms on it sums pairwise
        d_sq = sq[:, 0] + sq[:, 1] if d > 1 else sq[:, 0].copy()
        for k in range(2, d):
            d_sq += sq[:, k]
        return d_sq
    return sq.sum(axis=1)


def _distances_finite(d_sq: np.ndarray) -> bool:
    """Whether every entry of the non-empty squared distances ``d_sq`` is finite, by one max.

    A NaN entry makes the max NaN and an infinite one makes it +inf (no entry
    is negative); unlike a sum, a max cannot overflow, so it never warns.
    """
    return math.isfinite(np.maximum.reduce(d_sq, axis=None))


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {x.shape}")
    if not _all_finite(x):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _as_matrix(xs, name: str) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if xs.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array of row vectors")
    if not _all_finite(xs):
        raise ValueError(f"{name} contains non-finite entries")
    return xs


@dataclass(frozen=True)
class Kernel:
    """A positive-definite kernel of one of the supported families.

    Parameters
    ----------
    family : str
        One of ``"linear"``, ``"polynomial"``, ``"gaussian"``.
    degree : int
        Polynomial degree (polynomial family only), >= 1.
    offset : float
        Additive constant of the polynomial kernel, finite and >= 0.
    sigma : float
        Bandwidth of the Gaussian kernel, finite and > 0.
    """

    family: str
    degree: int = 2
    offset: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise ValueError("polynomial degree must be a positive integer")
            if not 0 <= self.offset < math.inf:  # NaN fails too
                raise ValueError("polynomial offset must be finite and >= 0")
        if self.family == "gaussian" and not 0 < self.sigma < math.inf:  # NaN fails too
            raise ValueError("gaussian bandwidth sigma must be finite and > 0")

    @classmethod
    def linear(cls) -> "Kernel":
        return cls("linear")

    @classmethod
    def polynomial(cls, degree: int, offset: float = 1.0) -> "Kernel":
        return cls("polynomial", degree=degree, offset=offset)

    @classmethod
    def gaussian(cls, sigma: float) -> "Kernel":
        return cls("gaussian", sigma=sigma)

    def __call__(self, x, y) -> float:
        """Evaluate kappa(x, y) for a single pair of vectors."""
        x = _as_vector(x, "x")
        y = _as_vector(y, "y")
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
        return self._pair(x, y)

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        """:meth:`__call__` without input checks, for float64 vectors already validated."""
        if self.family == "linear":
            return float(x @ y)
        if self.family == "polynomial":
            return float((x @ y + self.offset) ** self.degree)
        d_sq = float(np.sum((x - y) ** 2))
        return float(np.exp(-d_sq / (2.0 * self.sigma**2)))

    def against(self, atoms: np.ndarray, x) -> np.ndarray:
        """Evaluate kappa(atom_j, x) for every row of ``atoms`` at once.

        Equivalent to an entry-wise :meth:`__call__` loop but vectorized, with
        the same checks. A Gaussian row over well-formed input (``atoms`` 2-D
        with at least one row, ``x`` 1-D of the atoms' dimension) is checked
        through its own squared distances: a NaN or infinite entry in the
        atoms or in ``x`` makes one of them NaN or +inf, so one max of the
        distances, which cannot warn, stands for both inputs' checks. Any
        other input, or a max that is not finite, is checked entry by entry,
        atoms first, and the error names the faulty input; finite inputs whose
        squared distances overflow get the row :meth:`_against` computes.
        Linear and polynomial rows are always checked before the product: a
        BLAS may skip a zero multiplier and so hide an inf * 0.
        """
        atoms = np.asarray(atoms, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        d_sq = None
        if (self.family == "gaussian" and atoms.ndim == 2 and x.ndim == 1
                and atoms.shape[0] and atoms.shape[1] == x.shape[0]):
            d_sq = _sq_distances(atoms, x)
            if _distances_finite(d_sq):
                return self._gaussian(d_sq)
        atoms = _as_matrix(atoms, "atoms")
        x = _as_vector(x, "x")
        if atoms.shape[1] != x.shape[0]:
            raise ValueError(f"dimension mismatch: atoms have {atoms.shape[1]}, x has {x.shape[0]}")
        return self._against(atoms, x) if d_sq is None else self._gaussian(d_sq)

    def _against(self, atoms: np.ndarray, x: np.ndarray) -> np.ndarray:
        """:meth:`against` without input checks, for float64 arrays already validated."""
        if self.family == "linear":
            return atoms @ x
        if self.family == "polynomial":
            return (atoms @ x + self.offset) ** self.degree
        return self._gaussian(_sq_distances(atoms, x))

    def _gaussian(self, d_sq: np.ndarray) -> np.ndarray:
        """exp(-d_sq / (2 sigma^2)), computed in place in the squared distances ``d_sq``."""
        # -(a / b) and a / -b round alike: IEEE division is sign-symmetric
        d_sq /= -2.0 * self.sigma**2
        return np.exp(d_sq, out=d_sq)

    def gram(self, xs: np.ndarray) -> np.ndarray:
        """Pairwise kernel matrix of the rows of ``xs``, built as admission builds it.

        Row i left of the diagonal is ``_against(xs[:i], xs[i])``, the row
        that admitting xs[i] after xs[:i] evaluates, mirrored into column i
        (so the matrix is exactly symmetric); the diagonal is
        :meth:`self_similarity`, the value admission stores. A matrix grown
        one admission at a time is therefore reproduced bit-identically, for
        every kernel.
        """
        # rows contiguous, as in a dictionary's atom buffer: BLAS may round a
        # product differently for another layout
        xs = np.ascontiguousarray(_as_matrix(xs, "xs"))
        m = xs.shape[0]
        out = np.empty((m, m))
        for i in range(m):
            out[i, :i] = out[:i, i] = self._against(xs[:i], xs[i])
            out[i, i] = self._self_similarity(xs[i])
        return out

    def self_similarity(self, x) -> float:
        """kappa(x, x); cheaper than ``self(x, x)`` for the Gaussian family."""
        return self._self_similarity(_as_vector(x, "x"))

    def _self_similarity(self, x: np.ndarray) -> float:
        """:meth:`self_similarity` without input checks: the kappa(x, x) that admission stores."""
        return 1.0 if self.family == "gaussian" else self._pair(x, x)


@dataclass(frozen=True)
class NormRange:
    """Range of kappa(x, x) over the domain: r_sq = inf, R_sq = sup.

    ``source`` records how the range was obtained: ``"analytic"`` (exact,
    Gaussian family), ``"empirical"`` (extremes over observed samples only,
    a lower/upper *estimate* of the true range) or ``"user_supplied"``.
    """

    r_sq: float
    R_sq: float
    source: str = "user_supplied"

    def __post_init__(self):
        if not (0.0 <= self.r_sq <= self.R_sq):
            raise ValueError(f"need 0 <= r_sq <= R_sq, got ({self.r_sq}, {self.R_sq})")
        if self.source not in ("analytic", "empirical", "user_supplied"):
            raise ValueError(f"unknown norm-range source {self.source!r}")

    @property
    def is_unit(self) -> bool:
        return self.r_sq == 1.0 and self.R_sq == 1.0


def norm_range(kernel: Kernel, samples=None) -> NormRange:
    """Determine the kappa(x, x) range for ``kernel``.

    The Gaussian kernel has kappa(x, x) = 1 identically, so its range is
    analytic. For the other families the range is estimated empirically
    from ``samples`` (rows are sample vectors); callers with analytic
    knowledge can construct a ``user_supplied`` :class:`NormRange` directly.
    """
    if kernel.family == "gaussian":
        return NormRange(1.0, 1.0, source="analytic")
    if samples is None:
        raise ValueError(
            f"the {kernel.family} kernel has no analytic norm range; "
            "provide samples or a user-supplied NormRange"
        )
    samples = _as_matrix(samples, "samples")
    if samples.shape[0] == 0:
        raise ValueError("samples must be non-empty")
    diag = np.array([kernel.self_similarity(row) for row in samples])
    return NormRange(float(diag.min()), float(diag.max()), source="empirical")


def kernel_vector(kernel: Kernel, atoms: np.ndarray, x) -> np.ndarray:
    """Vector whose j-th entry is kappa(atom_j, x), in atom order.

    An empty stack of atoms (1-D or 2-D, read as :meth:`Kernel.against`
    reads it) is rejected from its shape; :meth:`Kernel.against` makes every
    other check, so each input is checked once.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim in (1, 2) and atoms.shape[0] == 0:
        raise ValueError("kernel_vector requires a non-empty atom set")
    return kernel.against(atoms, x)
