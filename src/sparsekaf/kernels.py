"""Positive-definite kernels and the range of their self-similarity.

A :class:`Kernel` evaluates one of the three standard families (linear,
polynomial, Gaussian) on pairs of input vectors, either one pair at a
time or vectorized against a stack of atoms. :class:`NormRange` holds the
extremes of the self-similarity kappa(x, x), which the spectral bounds
need as ``r_sq`` and ``R_sq``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

FAMILIES = ("linear", "polynomial", "gaussian")

# rows per block of a Gaussian Kernel.gram
_GRAM_BLOCK = 64

# the range of a Gaussian bandwidth's square: exp(-d_sq / (2 sigma^2)) needs sigma^2
# a normal float64 (full precision) and 2 sigma^2 finite (else every value is 1)
_SIGMA_SQ_MIN = sys.float_info.min
_SIGMA_SQ_MAX = sys.float_info.max / 2


def integral(raw) -> int:
    """Text ``raw`` as an int: ``"3"`` and ``"3.0"`` give 3, while ``"2.5"``, ``"inf"`` and ``"nan"`` raise."""
    try:
        return int(raw)
    except ValueError:
        value = float(raw)
    if not value.is_integer():  # inf and NaN are not either
        raise ValueError("not an integer")
    return int(value)


# the parameters each family reads, in the order its fields name them, and their types
PARAMETERS = {"linear": (), "polynomial": ("degree", "offset"), "gaussian": ("sigma",)}
KERNEL_FIELDS = {"degree": integral, "offset": float, "sigma": float}


def positive_integer(value, name: str) -> int:
    """``value`` as an int: it must be integral and >= 1, so 3.0 gives 3 and 2.5, inf or NaN raise."""
    if not 1 <= value < math.inf or int(value) != value:  # NaN fails too
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def parse_fields(words, converters: dict, required=()) -> dict:
    """{key: converters[key](value)} of ``key=value`` words, each key known and given once, ``required`` all given."""
    values = {}
    for word in words:
        key, sep, raw = word.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {word!r}")
        if key not in converters:
            raise ValueError(f"unknown field {key!r}")
        if key in values:
            raise ValueError(f"field {key!r} given twice")
        try:
            values[key] = converters[key](raw)
        except ValueError as exc:
            raise ValueError(f"field {key}={raw!r}: {exc}") from None
    for key in required:
        if key not in values:
            raise ValueError(f"missing field {key}=")
    return values


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
        Polynomial degree (polynomial family only), >= 1; an integral float is stored as an int.
    offset : float
        Additive constant of the polynomial kernel, finite and >= 0.
    sigma : float
        Bandwidth of the Gaussian kernel, > 0 with sigma^2 a normal float64
        and 2 sigma^2 finite: about 1.49e-154 <= sigma <= 9.48e153.

    A parameter the family does not read is reset to its default (degree 2,
    offset 1.0, sigma 1.0), so ``Kernel("linear", sigma=-5.0) == Kernel.linear()``.
    """

    family: str
    degree: int = 2
    offset: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        for key in KERNEL_FIELDS.keys() - PARAMETERS[self.family]:
            object.__setattr__(self, key, getattr(Kernel, key))
        if self.family == "polynomial":
            object.__setattr__(self, "degree", positive_integer(self.degree, "polynomial degree"))
            if not 0 <= self.offset < math.inf:  # NaN fails too
                raise ValueError("polynomial offset must be finite and >= 0")
        # sigma * sigma, unlike sigma**2, cannot raise; NaN fails too
        if self.family == "gaussian" and not (0 < self.sigma and _SIGMA_SQ_MIN <= self.sigma * self.sigma <= _SIGMA_SQ_MAX):
            raise ValueError("gaussian bandwidth sigma must be finite and > 0, and lie in about"
                             f" [1.49e-154, 9.48e153] so that sigma^2 is normal and 2 sigma^2 finite, got {self.sigma!r}")

    def fields(self) -> list[str]:
        """The ``key=value`` words of the parameters this kernel's family reads, as ``from_fields`` reads them."""
        return [f"{key}={KERNEL_FIELDS[key](getattr(self, key))!r}" for key in PARAMETERS[self.family]]

    @classmethod
    def from_fields(cls, family: str, fields) -> "Kernel":
        """The ``family`` kernel with the parameters ``fields`` gives; each must parse, read or not, and none be missing."""
        params = PARAMETERS.get(family, ())
        values = parse_fields(fields, KERNEL_FIELDS, params)
        return cls(family, **{key: values[key] for key in params})

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
        squared distances overflow then get their row from :meth:`_against`.
        Linear and polynomial rows are always checked before the product: a
        BLAS may skip a zero multiplier and so hide an inf * 0.
        """
        atoms = np.asarray(atoms, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if (self.family == "gaussian" and atoms.ndim == 2 and x.ndim == 1
                and atoms.shape[0] and atoms.shape[1] == x.shape[0]):
            d_sq = _sq_distances(atoms, x)
            if _distances_finite(d_sq):
                return self._gaussian(d_sq)
        atoms = _as_matrix(atoms, "atoms")
        x = _as_vector(x, "x")
        if atoms.shape[1] != x.shape[0]:
            raise ValueError(f"dimension mismatch: atoms have {atoms.shape[1]}, x has {x.shape[0]}")
        return self._against(atoms, x)

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

    def _rows(self, atoms: np.ndarray, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gaussian rows of the float64 samples ``xs`` against ``atoms``, unchecked: row s is ``_against(atoms, xs[s])`` bit for bit.

        Written to ``out`` (``len(xs)`` rows of ``len(atoms)`` contiguous
        entries) when given. Below 8 coordinates it is :func:`_sq_distances`'
        arithmetic for every row at once, one coordinate at a time over
        contiguous data, subtracted, squared and added in coordinate order;
        otherwise it calls :func:`_sq_distances` once per sample. (a - b)^2
        and (b - a)^2 round alike, so the entry of x against y equals that of
        y against x.
        """
        d = xs.shape[1]
        if out is None:
            out = np.empty((xs.shape[0], atoms.shape[0]))
        if 0 < d < 8:
            coords = atoms.T.copy()
            np.square(np.subtract(coords[0], xs[:, :1], out=out), out=out)
            if d > 1:
                sq = np.empty_like(out)
                for k in range(1, d):
                    out += np.square(np.subtract(coords[k], xs[:, k : k + 1], out=sq), out=sq)
        else:
            for s, x in enumerate(xs):
                out[s] = _sq_distances(atoms, x)
        return self._gaussian(out)

    def gram(self, xs: np.ndarray) -> np.ndarray:
        """Pairwise kernel matrix of the rows of ``xs``, built as admission builds it.

        Row i left of the diagonal is ``_against(xs[:i], xs[i])``, the row
        that admitting xs[i] after xs[:i] evaluates, mirrored into column i
        (so the matrix is exactly symmetric); the diagonal is
        :meth:`self_similarity`, the value admission stores. A matrix grown
        one admission at a time is therefore reproduced bit-identically, for
        every kernel. Gaussian rows come a block at a time from
        :meth:`_rows`, whose entries are those rows' arithmetic. Linear and
        polynomial rows are built one at a time from the first i atoms: a
        BLAS may round a matrix-vector product differently for another
        number of matrix rows, so a block product need not give the row
        admission computed.
        """
        # rows contiguous, as in a dictionary's atom buffer: BLAS may round a
        # product differently for another layout
        xs = np.ascontiguousarray(_as_matrix(xs, "xs"))
        m = xs.shape[0]
        out = np.empty((m, m))
        if self.family == "gaussian":
            # block b0:b1 is computed against xs[:b1], its diagonal square in
            # full (exactly symmetric), and mirrored above the diagonal
            for b0 in range(0, m, _GRAM_BLOCK):
                b1 = min(b0 + _GRAM_BLOCK, m)
                self._rows(xs[:b1], xs[b0:b1], out=out[b0:b1, :b1])
                out[:b0, b0:b1] = out[b0:b1, :b0].T
            np.fill_diagonal(out, 1.0)  # kappa(x, x), as exp(-0) gives it
            return out
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
    """Range of kappa(x, x): r_sq = inf, R_sq = sup.

    :func:`~sparsekaf.spectral.spectral_report` takes it by default from the
    dictionary it reports on: the extremes of the kappa(x, x) the dictionary
    stores, its Gram matrix's diagonal, so the range is exact for that
    matrix. A caller who knows the range over a whole input domain can pass
    it instead.
    """

    r_sq: float
    R_sq: float

    def __post_init__(self):
        if not (0.0 <= self.r_sq <= self.R_sq):
            raise ValueError(f"need 0 <= r_sq <= R_sq, got ({self.r_sq}, {self.R_sq})")

    @property
    def is_unit(self) -> bool:
        return self.r_sq == 1.0 and self.R_sq == 1.0


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
