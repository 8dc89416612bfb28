"""Sparse dictionary construction and analysis.

A :class:`Dictionary` holds an ordered set of atom vectors together with
the Gram matrix of their kernel functions and its inverse. Candidates are
admitted online under one of four criteria (distance, approximation,
coherence, Babel); the exact sparsity measure of a finished dictionary can
be recomputed offline with :meth:`Dictionary.measure`.

A Dictionary is a single-writer object: admissions must be serialized by
the caller. Read-only operations (measure, project, kernel_vector) are
safe to run concurrently between admissions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .kernels import Kernel, _as_vector, kernel_vector

CRITERION_KINDS = ("distance", "approximation", "coherence", "babel")

# Schur pivots below this are treated as a singular admission.
PIVOT_FLOOR = 1e-12
# Full inverse re-factorization cadence and drift trigger.
REFRESH_EVERY = 64
CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class CriterionConfig:
    """Sparsification criterion: which test governs admission, and its threshold.

    ``threshold`` is delta for the distance/approximation kinds (the tests
    compare against delta**2) and gamma for coherence/Babel. ``max_atoms``
    is an optional hard cap; once reached every candidate is rejected.
    """

    kind: str
    threshold: float
    max_atoms: int | None = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}, expected one of {CRITERION_KINDS}")
        if self.kind in ("distance", "approximation") and not self.threshold > 0:
            raise ValueError(f"{self.kind} threshold delta must be > 0")
        if self.kind == "coherence" and not 0.0 < self.threshold <= 1.0:
            raise ValueError("coherence threshold gamma must lie in (0, 1]")
        if self.kind == "babel" and not self.threshold > 0:
            raise ValueError("babel threshold gamma must be > 0")
        if self.max_atoms is not None and self.max_atoms < 1:
            raise ValueError("max_atoms must be a positive integer")


@dataclass(frozen=True)
class ProjectionResult:
    """Projection of a kernel function onto the dictionary span.

    ``coefficients`` solves gram @ xi = kvec(x); ``residual_sq`` is the
    quadratic reconstruction error kappa(x, x) - kvec(x) @ xi, clamped at
    zero when round-off drives it slightly negative.
    """

    coefficients: np.ndarray
    residual_sq: float


def _fresh_inverse(gram: np.ndarray) -> np.ndarray:
    """Invert a PSD Gram matrix via Cholesky; singular input raises."""
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"gram matrix is singular or not positive definite: {exc}") from None
    inv = scipy.linalg.cho_solve(factor, np.eye(gram.shape[0]), check_finite=False)
    return 0.5 * (inv + inv.T)


class Dictionary:
    """Ordered atom set with cached Gram matrix, inverse and admission rule."""

    def __init__(self, kernel: Kernel, criterion: CriterionConfig):
        self.kernel = kernel
        self.criterion = criterion
        self._atoms = np.zeros((0, 0))
        self._gram = np.zeros((0, 0))
        self._gram_inv: np.ndarray | None = None
        self._accepts_since_refresh = 0

    @classmethod
    def from_atoms(cls, kernel: Kernel, criterion: CriterionConfig, atoms) -> "Dictionary":
        """Build a dictionary directly from atom vectors, bypassing admission.

        Intended for deserialization and hand-built dictionaries; no
        criterion test is re-run, so the result may violate the configured
        criterion (and may even have a singular Gram matrix, in which case
        operations needing the inverse raise :class:`NumericalError`).
        """
        atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms contain non-finite entries")
        d = cls(kernel, criterion)
        if atoms.shape[0]:
            d._atoms = atoms.copy()
            d._gram = kernel.gram(atoms)
        return d

    def __len__(self) -> int:
        return self._atoms.shape[0]

    @property
    def m(self) -> int:
        return self._atoms.shape[0]

    @property
    def dim(self) -> int:
        return self._atoms.shape[1]

    @property
    def atoms(self) -> np.ndarray:
        """Atom vectors as rows, in admission order. Do not mutate."""
        return self._atoms

    @property
    def gram(self) -> np.ndarray:
        return self._gram

    @property
    def gram_inv(self) -> np.ndarray:
        """Inverse Gram matrix (computed lazily, maintained incrementally)."""
        if self._gram_inv is None:
            if self.m == 0:
                raise ValueError("empty dictionary has no gram inverse")
            self._gram_inv = _fresh_inverse(self._gram)
        return self._gram_inv

    def kernel_vector(self, x) -> np.ndarray:
        """kappa(atom_j, x) for every atom, in atom order."""
        return kernel_vector(self.kernel, self._atoms, x)

    # -- admission ---------------------------------------------------------

    def admit(self, x) -> bool:
        """Test candidate ``x`` under the configured criterion and admit it if it passes.

        Returns True when the atom was appended (Gram matrix and inverse
        are extended by a Schur-complement block update). A rejected
        candidate leaves the dictionary bit-identical. An accepted
        candidate whose Schur pivot falls below ``PIVOT_FLOOR`` raises
        :class:`NumericalError` ("near-singular admission"): the threshold
        is too loose for safe inversion.
        """
        x = _as_vector(x, "x")
        if self.m == 0:
            self._append_first(x)
            return True
        if x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: atoms have {self.dim}, candidate has {x.shape[0]}")
        if self.criterion.max_atoms is not None and self.m >= self.criterion.max_atoms:
            return False
        # exact duplicates would make the Gram matrix singular yet can pass
        # a Babel test with large gamma; reject them outright
        if bool(np.any(np.all(self._atoms == x, axis=1))):
            return False
        if not self._criterion_accepts(x):
            return False
        self._append(x)
        return True

    def _criterion_accepts(self, x) -> bool:
        kind = self.criterion.kind
        if kind == "distance":
            return self.test_distance(x)
        if kind == "approximation":
            return self.test_approximation(x)
        if kind == "coherence":
            return self.test_coherence(x)
        return self.test_babel(x)

    def _append_first(self, x: np.ndarray) -> None:
        kxx = self.kernel.self_similarity(x)
        if kxx < PIVOT_FLOOR:
            raise NumericalError("near-singular admission: first atom has ~zero self-similarity")
        self._atoms = x[None, :].copy()
        self._gram = np.array([[kxx]])
        self._gram_inv = np.array([[1.0 / kxx]])

    def _append(self, x: np.ndarray) -> None:
        kvec = self.kernel_vector(x)
        kxx = self.kernel.self_similarity(x)
        inv = self.gram_inv
        z = inv @ kvec
        pivot = kxx - float(kvec @ z)
        if pivot < PIVOT_FLOOR:
            raise NumericalError(
                f"near-singular admission: Schur pivot {pivot:.3e} below {PIVOT_FLOOR:.0e} "
                "(criterion threshold too loose for numeric safety)"
            )
        m = self.m
        gram = np.empty((m + 1, m + 1))
        gram[:m, :m] = self._gram
        gram[:m, m] = kvec
        gram[m, :m] = kvec
        gram[m, m] = kxx

        new_inv = np.empty((m + 1, m + 1))
        new_inv[:m, :m] = inv + np.outer(z, z) / pivot
        new_inv[:m, m] = -z / pivot
        new_inv[m, :m] = -z / pivot
        new_inv[m, m] = 1.0 / pivot

        self._atoms = np.vstack([self._atoms, x[None, :]])
        self._gram = gram
        self._gram_inv = 0.5 * (new_inv + new_inv.T)
        self._accepts_since_refresh += 1
        if self._accepts_since_refresh >= REFRESH_EVERY or self._consistency_residual() > CONSISTENCY_TOL:
            self._gram_inv = _fresh_inverse(self._gram)
            self._accepts_since_refresh = 0

    def _consistency_residual(self) -> float:
        # O(m^2) probe of gram @ gram_inv drift (full Frobenius check would
        # cost O(m^3) per admission)
        u = np.ones(self.m)
        r = self._gram @ (self._gram_inv @ u) - u
        return float(np.linalg.norm(r)) / math.sqrt(self.m)

    # -- criterion tests ----------------------------------------------------

    def _require_nonempty(self):
        if self.m == 0:
            raise ValueError("criterion tests require a non-empty dictionary")

    def test_distance(self, x, threshold: float | None = None) -> bool:
        """Least scaled-projection residual against any single atom >= delta**2."""
        self._require_nonempty()
        delta = self.criterion.threshold if threshold is None else threshold
        kvec = self.kernel_vector(x)
        kxx = self.kernel.self_similarity(x)
        diag = np.diag(self._gram)
        if np.any(diag <= 0):
            raise NumericalError("atom with zero self-similarity; distance test undefined")
        stat = float(np.min(kxx - kvec**2 / diag))
        return stat >= delta**2

    def test_approximation(self, x, threshold: float | None = None) -> bool:
        """Residual of projecting kappa(x, .) onto the whole span >= delta**2."""
        self._require_nonempty()
        delta = self.criterion.threshold if threshold is None else threshold
        return self.project(x).residual_sq >= delta**2

    def test_coherence(self, x, threshold: float | None = None) -> bool:
        """Largest |cos| between the candidate and any atom <= gamma."""
        self._require_nonempty()
        gamma = self.criterion.threshold if threshold is None else threshold
        kxx = self.kernel.self_similarity(x)
        if kxx <= 0:
            raise NumericalError("candidate has non-positive self-similarity; coherence undefined")
        kvec = self.kernel_vector(x)
        diag = np.diag(self._gram)
        if np.any(diag <= 0):
            raise NumericalError("atom with zero self-similarity; coherence test undefined")
        cos = float(np.max(np.abs(kvec) / np.sqrt(kxx * diag)))
        return cos <= gamma

    def test_babel(self, x, threshold: float | None = None) -> bool:
        """Cumulative (unnormalized) cross-correlation with all atoms <= gamma."""
        self._require_nonempty()
        gamma = self.criterion.threshold if threshold is None else threshold
        kvec = self.kernel_vector(x)
        return float(np.sum(np.abs(kvec))) <= gamma

    # -- measures and projection ---------------------------------------------

    def measure(self, kind: str) -> float:
        """Exact sparsity measure of the finished dictionary.

        distance and approximation return delta (the measures' square
        roots); coherence and Babel return gamma. distance, approximation
        and coherence require m >= 2; Babel is defined for m >= 1 (zero
        for a single atom).
        """
        if kind not in CRITERION_KINDS:
            raise ValueError(f"unknown measure kind {kind!r}")
        if kind == "babel":
            if self.m < 1:
                raise ValueError("babel measure requires at least one atom")
            abs_gram = np.abs(self._gram)
            return float(np.max(abs_gram.sum(axis=1) - np.diag(abs_gram)))
        if self.m < 2:
            raise ValueError(f"{kind} measure requires at least two atoms")
        gram = self._gram
        diag = np.diag(gram)
        off = ~np.eye(self.m, dtype=bool)
        if kind == "distance":
            if np.any(diag <= 0):
                raise NumericalError("atom with zero self-similarity; distance measure undefined")
            stats = diag[:, None] - gram**2 / diag[None, :]
            worst = float(np.min(stats[off]))
            # round one ulp down: tiny correlations can vanish entirely in the
            # subtraction (1 - eps^2 rounds to 1), which would make bounds
            # derived from this value miss them; the directed rounding keeps
            # the implied radius at least as large as anything rounded away
            return math.sqrt(max(math.nextafter(worst, -math.inf), 0.0))
        if kind == "coherence":
            if np.any(diag <= 0):
                raise NumericalError("atom with zero self-similarity; coherence measure undefined")
            cos = np.abs(gram) / np.sqrt(np.outer(diag, diag))
            return float(np.max(cos[off]))
        # approximation: atom i's residual against the others is 1/(K^-1)_ii
        # (the last pivot of K with atom i ordered last)
        inv = _fresh_inverse(gram)
        return math.sqrt(max(float(np.min(1.0 / np.diag(inv))), 0.0))

    def project(self, x) -> ProjectionResult:
        """Least-squares projection of kappa(x, .) onto the dictionary span."""
        self._require_nonempty()
        kvec = self.kernel_vector(x)
        xi = self.gram_inv @ kvec
        residual = self.kernel.self_similarity(x) - float(kvec @ xi)
        return ProjectionResult(coefficients=xi, residual_sq=max(residual, 0.0))

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the documented text format (full-precision decimals)."""
        lines = ["# sparsekaf dictionary format 1"]
        k = self.kernel
        if k.family == "linear":
            lines.append("kernel linear")
        elif k.family == "polynomial":
            lines.append(f"kernel polynomial degree={k.degree} offset={k.offset!r}")
        else:
            lines.append(f"kernel gaussian sigma={k.sigma!r}")
        crit = f"criterion {self.criterion.kind} threshold={self.criterion.threshold!r}"
        if self.criterion.max_atoms is not None:
            crit += f" max_atoms={self.criterion.max_atoms}"
        lines.append(crit)
        for atom in self._atoms:
            lines.append("atom " + " ".join(repr(float(v)) for v in atom))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dictionary":
        """Parse the text format written by :meth:`to_text`.

        Round-trips exactly: atom coordinates are shortest round-trip
        decimals, so the rebuilt Gram matrix is bit-identical.
        """
        kernel = None
        criterion = None
        atoms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            tag, args = fields[0], fields[1:]
            try:
                if tag == "kernel":
                    kernel = _parse_kernel(args)
                elif tag == "criterion":
                    criterion = _parse_criterion(args)
                elif tag == "atom":
                    atoms.append([float(v) for v in args])
                else:
                    raise ValueError(f"unknown record {tag!r}")
            except ValueError as exc:
                raise ValueError(f"dictionary file line {lineno}: {exc}") from None
        if kernel is None or criterion is None:
            raise ValueError("dictionary file must contain 'kernel' and 'criterion' headers")
        if atoms and len({len(a) for a in atoms}) != 1:
            raise ValueError("dictionary file atoms have inconsistent dimensions")
        return cls.from_atoms(kernel, criterion, np.array(atoms) if atoms else np.zeros((0, 0)))

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "Dictionary":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _parse_kv(args, allowed):
    out = {}
    for item in args:
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        if key not in allowed:
            raise ValueError(f"unknown field {key!r}")
        out[key] = value
    return out

def _parse_kernel(args) -> Kernel:
    if not args:
        raise ValueError("kernel record needs a family")
    family = args[0]
    kv = _parse_kv(args[1:], {"degree", "offset", "sigma"})
    if family == "linear":
        return Kernel.linear()
    if family == "polynomial":
        return Kernel.polynomial(int(kv.get("degree", 2)), float(kv.get("offset", 1.0)))
    if family == "gaussian":
        if "sigma" not in kv:
            raise ValueError("gaussian kernel record needs sigma=")
        return Kernel.gaussian(float(kv["sigma"]))
    raise ValueError(f"unknown kernel family {family!r}")

def _parse_criterion(args) -> CriterionConfig:
    if not args:
        raise ValueError("criterion record needs a kind")
    kind = args[0]
    kv = _parse_kv(args[1:], {"threshold", "max_atoms"})
    if "threshold" not in kv:
        raise ValueError("criterion record needs threshold=")
    max_atoms = int(kv["max_atoms"]) if "max_atoms" in kv else None
    return CriterionConfig(kind, float(kv["threshold"]), max_atoms=max_atoms)
