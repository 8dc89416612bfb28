"""Sparse dictionary construction and analysis.

A :class:`Dictionary` holds an ordered set of atom vectors together with
their self-similarities kappa(x, x) and the lower Cholesky factor of their
Gram matrix, which grows by one row per admission. All three live in
buffers whose capacity doubles when full, up to the criterion's cap, so an
admission writes O(m) entries and copies the dictionary only when the
buffers grow. The factor is the only stored form of the Gram matrix: the
dense matrix, which only the offline analysis reads, is built from the
atoms on read and cached until the next admission. A dictionary built from
given atoms (a loaded file) factors its Gram matrix on first use with
LAPACK's packed Cholesky, which runs the admissions' arithmetic, so it
holds the same factor, bit for bit, as the dictionary that grew them.
Candidates are admitted online under one of four criteria (distance,
approximation, coherence, Babel); the exact sparsity measure of a finished
dictionary can be recomputed offline with :meth:`Dictionary.measure`.

A Dictionary is a single-writer object: admissions must be serialized by
the caller. Read-only operations (measure, project, the criterion tests)
keep no cache of their own; once the Gram matrix and the factor have been
built by a first read, they are safe to run concurrently between
admissions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dpptrf, dpptri, dtpmv, dtpsv, dtrttp
from .errors import NumericalError
from .kernels import Kernel, _as_vector, integral, parse_fields, positive_integer

CRITERION_KINDS = ("distance", "approximation", "coherence", "babel")
CRITERION_FIELDS = {"threshold": float, "max_atoms": integral}

# Schur pivots below this are treated as a singular admission.
PIVOT_FLOOR = 1e-12


@dataclass(frozen=True)
class CriterionConfig:
    """Sparsification criterion: which test governs admission, and its threshold.

    ``threshold`` is delta for the distance/approximation kinds (the tests
    compare against delta**2) and gamma for coherence/Babel. ``max_atoms``
    is an optional hard cap (an integral float is stored as an int); once
    reached every candidate is rejected.
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
        if self.max_atoms is not None:
            object.__setattr__(self, "max_atoms", positive_integer(self.max_atoms, "max_atoms"))

    def fields(self) -> list[str]:
        """The ``key=value`` words of the threshold and, when set, the cap, as ``from_fields`` reads them."""
        return [f"{key}={conv(v)!r}" for key, conv in CRITERION_FIELDS.items() if (v := getattr(self, key)) is not None]

    @classmethod
    def from_fields(cls, kind: str, fields) -> "CriterionConfig":
        """The ``kind`` criterion the ``key=value`` words ``fields`` give; each must parse, and threshold= be given."""
        return cls(kind, **parse_fields(fields, CRITERION_FIELDS, ("threshold",)))


@dataclass(frozen=True)
class ProjectionResult:
    """Projection of a kernel function onto the dictionary span.

    With gram = L L^T, ``z`` solves L z = kvec(x): the projection in the
    orthonormal coordinates the factor gives the span. ``coefficients``
    solves L^T xi = z, the same projection over the atoms. ``residual_sq``
    is the reconstruction error kappa(x, x) - ||z||^2 (the Schur pivot of
    admitting x), clamped at zero against round-off.
    """

    coefficients: np.ndarray
    residual_sq: float
    z: np.ndarray


class Dictionary:
    """Ordered atom set with its Cholesky factor, a Gram matrix built on read, and admission rule."""

    def __init__(self, kernel: Kernel, criterion: CriterionConfig):
        self.kernel = kernel
        self.criterion = criterion
        self._m = 0
        # The atoms are the first m rows of _atoms_buf and their kappa(x, x)
        # the first m entries of _diag_buf. _packed holds L row by row (L^T in
        # BLAS upper packed storage), row i from i(i+1)/2: dtpsv(m, _packed, b)
        # solves L^T y = b, dtpsv(m, _packed, b, 1, 0, 0, 1) (trans=1 after
        # incx, offx, lower: f2py parses a keyword in ~1 us) L y = b, and
        # dtpmv(m, _packed, b) is L^T b and dtpmv(m, _packed, b, 1, 0, 0, 1)
        # L b. All three hold as many atoms as _atoms_buf has rows.
        # Admissions write only past the filled entries, so the first
        # m(m+1)/2 entries of a packed buffer hold L while it lives. _gram
        # caches the dense Gram matrix between a read and the next admission.
        self._atoms_buf = np.zeros((0, 0))
        self._diag_buf = np.zeros(0)
        self._packed: np.ndarray | None = np.zeros(0)
        self._gram: np.ndarray | None = None

    @classmethod
    def from_atoms(cls, kernel: Kernel, criterion: CriterionConfig, atoms) -> "Dictionary":
        """Build a dictionary directly from atom vectors, bypassing admission.

        Intended for deserialization and hand-built dictionaries; no
        criterion test is re-run, so the result may violate the configured
        criterion (and may even have a singular Gram matrix, in which case
        operations needing its factor raise :class:`NumericalError`). An atom
        whose kappa(x, x) is past float64's range raises :class:`NumericalError`.
        """
        atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms contain non-finite entries")
        d = cls(kernel, criterion)
        if atoms.shape[0]:
            d._atoms_buf = atoms.copy()
            d._gram = kernel.gram(atoms)
            d._diag_buf = np.diagonal(d._gram).copy()
            if not np.isfinite(d._diag_buf).all():
                k = int(np.argmin(np.isfinite(d._diag_buf)))
                raise NumericalError(f"atom {k + 1}: kappa(x, x) = {float(d._diag_buf[k])!r} is past float64's range")
            d._packed = None
            d._m = atoms.shape[0]
        return d

    def __len__(self) -> int:
        return self._m

    @property
    def m(self) -> int:
        return self._m

    @property
    def dim(self) -> int:
        return self._atoms_buf.shape[1]

    @property
    def atoms(self) -> np.ndarray:
        """Atom vectors as rows, in admission order: a view that later admissions leave unchanged. Do not mutate."""
        return self._atoms_buf[: self._m]

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix of the atoms: an array that later admissions leave unchanged. Do not mutate.

        Built by :meth:`Kernel.gram`, which replays the admissions' arithmetic
        bit for bit, and cached until the next admission.
        """
        if self._gram is None:
            self._gram = self.kernel.gram(self.atoms)
        return self._gram

    def _factor(self) -> np.ndarray:
        """Packed buffer of the lower Cholesky factor L; built here only for from_atoms dictionaries.

        LAPACK's dpptrf factors K = U^T U with U = L^T, the upper packed layout
        admission writes. Its column j is admission's row j: the forward solve
        of the Gram row against the columns before it (``dtpsv``), the pivot
        K_jj - ||z||^2 and its square root, so a reloaded dictionary's factor
        is bit-identical to the grown one. A pivot that is not positive, or
        whose root is below sqrt(``PIVOT_FLOOR``), raises :class:`NumericalError`.
        """
        if self._packed is None:
            m = self._m
            # gram is exactly symmetric; its transpose is packed without a copy
            packed, info = dpptrf(m, dtrttp(self.gram.T)[0], overwrite_ap=1)
            roots = packed[_packed_diagonal(m)]
            if info > 0 or roots.min() < math.sqrt(PIVOT_FLOOR):
                # on failure, dpptrf leaves the failing pivot on the diagonal
                pivot = roots[info - 1] if info > 0 else roots.min() ** 2
                raise NumericalError(f"near-singular gram matrix: Schur pivot {pivot:.3e} below {PIVOT_FLOOR:.0e}")
            self._packed = packed
        return self._packed

    # -- admission ---------------------------------------------------------

    def admit(self, x) -> bool:
        """Test candidate ``x`` under the configured criterion and admit it if it passes.

        Returns True when the atom was appended (the Cholesky factor L
        gains the row [z, sqrt(pivot)], with L z = kvec(x) and Schur pivot
        kappa(x, x) - ||z||^2). A rejected candidate leaves the dictionary
        bit-identical, and so does an accepted one whose pivot falls below
        ``PIVOT_FLOOR``: it raises :class:`NumericalError` ("near-singular
        admission"), the threshold being too loose for a well-posed Gram
        matrix.
        """
        return self._admit_row(*self._row(x)) is not None

    def _row(self, x) -> tuple[np.ndarray, np.ndarray, float]:
        """(x, kvec, kxx): ``x`` checked once, kappa(atom_j, x) for every atom and kappa(x, x).

        The only check of ``x`` (finite, 1-D, of the atoms' dimension) is the
        checked :meth:`Kernel.against`'s, or with no atoms ``_as_vector``'s.
        """
        m = self._m
        if not m:
            x = _as_vector(x, "x")
            return x, np.zeros(0), self.kernel._self_similarity(x)
        x = np.asarray(x, dtype=np.float64)
        kernel = self.kernel
        kvec = kernel.against(self._atoms_buf[:m], x)
        # a Gaussian kappa(x, x) is exp(-0) = 1, as _self_similarity gives it
        return x, kvec, 1.0 if kernel.family == "gaussian" else kernel._self_similarity(x)

    def _admit_row(self, x: np.ndarray, kvec: np.ndarray, kxx: float, z: np.ndarray | None = None) -> np.ndarray | None:
        """Admission of ``x`` given its row and, when the caller has it, z = L^-1 kvec.

        Returns None if ``x`` was rejected. If it was admitted, returns the
        factor's new row [z, sqrt(pivot)] as written, a view that later
        admissions leave unchanged (do not mutate): over the grown dictionary
        the row of ``x`` is [kvec, kxx], the Gram matrix's new row, and this
        is its forward solve. Exact copies of atoms (singular Gram matrix, yet
        they can pass a Babel test with large gamma) are rejected, even where
        the criterion test raises :class:`NumericalError`; the scan for them
        runs only when the test passes or raises.
        """
        if not self._m:
            return self._append(x, kvec, kxx, z)
        criterion = self.criterion
        if criterion.max_atoms is not None and self._m >= criterion.max_atoms:
            return None
        kind = criterion.kind
        try:
            statistic = self._statistic(kind, kvec, kxx, z)
        except NumericalError:
            if self._contains(x, kvec, None):
                return None
            raise
        if not _passes(kind, statistic, criterion.threshold):
            return None
        # a coherence statistic is the largest cosine, for a Gaussian row max(kvec)
        if self._contains(x, kvec, statistic if kind == "coherence" else None):
            return None
        return self._append(x, kvec, kxx, z)

    def _append(self, x: np.ndarray, kvec: np.ndarray, kxx: float, z: np.ndarray | None) -> np.ndarray:
        m = self._m
        if z is None:
            z = self._forward(kvec)
        root = _pivot_root(kxx, z)
        start = m * (m + 1) // 2
        if m == self._atoms_buf.shape[0]:
            cap = max(2 * m, 16)
            if self.criterion.max_atoms is not None:
                cap = max(min(cap, self.criterion.max_atoms), m + 1)
            atoms, diag, packed = np.empty((cap, x.shape[0])), np.empty(cap), np.empty(cap * (cap + 1) // 2)
            if m:
                atoms[:m], diag[:m], packed[:start] = self.atoms, self._diag_buf[:m], self._packed[:start]
            self._atoms_buf, self._diag_buf, self._packed = atoms, diag, packed
        self._atoms_buf[m] = x
        self._diag_buf[m] = kxx
        row = self._packed[start : start + m + 1]
        row[:m] = z
        row[m] = root
        self._m = m + 1
        self._gram = None
        return row

    def _contains(self, x: np.ndarray, kvec: np.ndarray, cosine: float | None) -> bool:
        """Whether ``x``, whose row over the atoms is ``kvec``, equals an atom exactly (any atom, if it has no coordinates).

        A Gaussian copy of an atom has the row entry exp(-0) = 1, so a row
        below 1 settles it: its largest entry is the coherence statistic
        ``cosine`` when the caller has it, else reduced here. Otherwise only
        the atoms that match the first coordinate, which for continuous
        inputs are none, are compared in full. :meth:`_admit_row` asks only
        about candidates the criterion test admits or raises on.
        """
        if not self.dim:
            return True
        if self.kernel.family == "gaussian":
            if cosine is None:
                cosine = np.maximum.reduce(kvec)
            if cosine < 1.0:
                return False
        atoms = self.atoms
        hits = np.flatnonzero(atoms[:, 0] == x[0])
        return hits.size > 0 and bool((atoms[hits] == x).all(axis=1).any())

    # -- criterion tests ----------------------------------------------------

    def _require_nonempty(self):
        if self.m == 0:
            raise ValueError("criterion tests require a non-empty dictionary")

    def _test(self, kind: str, x, threshold: float | None) -> bool:
        """Criterion test ``kind`` of ``x`` at ``threshold``, by default the criterion's own, which only its kind may use."""
        self._require_nonempty()
        if threshold is None:
            if kind != self.criterion.kind:
                raise ValueError(f"{kind} test needs a threshold: the dictionary's threshold is for {self.criterion.kind}")
            threshold = self.criterion.threshold
        _, kvec, kxx = self._row(x)
        return _passes(kind, self._statistic(kind, kvec, kxx), threshold)

    def _statistic(self, kind: str, kvec: np.ndarray, kxx: float, z: np.ndarray | None = None) -> float:
        """Criterion ``kind``'s statistic of a candidate with row (kvec, kxx), which :func:`_passes` compares.

        distance: the least scaled residual min_j kxx - kvec_j^2 / kappa(atom_j, atom_j);
        approximation: the residual kxx - ||z||^2 (clamped at 0), reading
        z = L^-1 kvec, solved here unless given; coherence: the largest
        cosine; Babel: the sum of |kvec|.
        """
        if kind == "distance":
            return float((kxx - kvec**2 / self._atom_norms("distance test")).min())
        if kind == "approximation":
            if z is None:
                z = self._forward(kvec)
            return max(kxx - float(z.dot(z)), 0.0)
        if kind == "coherence":
            if kxx <= 0:
                raise NumericalError("candidate has non-positive self-similarity; coherence undefined")
            if self.kernel.family == "gaussian":
                # kxx * kappa(atom, atom) is exactly 1 and kvec = exp(.) >= 0: the cosines are kvec
                return float(np.maximum.reduce(kvec))
            return float((np.abs(kvec) / np.sqrt(kxx * self._atom_norms("coherence test"))).max())
        return float(np.abs(kvec).sum())

    def _atom_norms(self, use: str) -> np.ndarray:
        """kappa(atom_j, atom_j) for every atom as stored, the Gram diagonal read without the Gram matrix.

        All must be positive, else the ``use`` that divides by them (a test or a measure) raises.
        """
        diag = self._diag_buf[: self._m]
        if (diag <= 0).any():
            raise NumericalError(f"atom with zero self-similarity; {use} undefined")
        return diag

    def test_distance(self, x, threshold: float | None = None) -> bool:
        """Least scaled-projection residual against any single atom >= delta**2."""
        return self._test("distance", x, threshold)

    def test_approximation(self, x, threshold: float | None = None) -> bool:
        """Residual of projecting kappa(x, .) onto the whole span >= delta**2."""
        return self._test("approximation", x, threshold)

    def test_coherence(self, x, threshold: float | None = None) -> bool:
        """Largest |cos| between the candidate and any atom <= gamma."""
        return self._test("coherence", x, threshold)

    def test_babel(self, x, threshold: float | None = None) -> bool:
        """Cumulative (unnormalized) cross-correlation with all atoms <= gamma."""
        return self._test("babel", x, threshold)

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
            return float(np.max(_gersgorin_radii(self.gram)))
        if self.m < 2:
            raise ValueError(f"{kind} measure requires at least two atoms")
        gram = self.gram
        if kind == "distance":
            diag = self._atom_norms("distance measure")
            # diag_i - K_ij^2 / diag_j, computed in one m x m buffer
            stats = gram**2
            np.subtract(diag[:, None], np.divide(stats, diag, out=stats), out=stats)
            np.fill_diagonal(stats, math.inf)
            worst = float(np.min(stats))
            # round one ulp down: tiny correlations can vanish entirely in the
            # subtraction (1 - eps^2 rounds to 1), which would make bounds
            # derived from this value miss them; the directed rounding keeps
            # the implied radius at least as large as anything rounded away
            return math.sqrt(max(math.nextafter(worst, -math.inf), 0.0))
        if kind == "coherence":
            diag = self._atom_norms("coherence measure")
            cos = np.sqrt(np.outer(diag, diag))
            np.divide(np.abs(gram), cos, out=cos)
            np.fill_diagonal(cos, 0.0)  # every entry is >= 0
            return float(np.max(cos))
        # approximation: atom i's residual against the others is 1/(K^-1)_ii
        # (the last pivot of K with atom i ordered last). dpptri inverts
        # K = U^T U from U = L^T, which _packed holds in upper packed
        # storage; the inverse comes back in the same storage.
        m = self.m
        inv, info = dpptri(m, self._factor()[: m * (m + 1) // 2])
        if info:
            raise NumericalError(f"packed Cholesky inverse failed (LAPACK dpptri info={info})")
        return math.sqrt(max(float(np.min(1.0 / inv[_packed_diagonal(m)])), 0.0))

    def project(self, x) -> ProjectionResult:
        """Least-squares projection of kappa(x, .) onto the dictionary span."""
        self._require_nonempty()
        _, kvec, kxx = self._row(x)
        z = self._forward(kvec)
        xi = _coefficients(self._factor(), z)
        return ProjectionResult(coefficients=xi, residual_sq=max(kxx - float(z @ z), 0.0), z=z)

    def _forward(self, kvec: np.ndarray) -> np.ndarray:
        """z = L^-1 kvec, one packed triangular solve (kvec itself when the dictionary is empty)."""
        m = self._m
        if not m:
            return kvec
        packed = self._packed
        return dtpsv(m, self._factor() if packed is None else packed, kvec, 1, 0, 0, 1)

    def _coordinates(self, alpha) -> np.ndarray:
        """w = L^T alpha: the model sum_j alpha_j kappa(atom_j, .) in the factor's orthonormal coordinates."""
        return dtpmv(self.m, self._factor(), alpha) if self.m else np.zeros(0)

    def _gram_product(self, alpha: np.ndarray) -> np.ndarray:
        """K alpha = L (L^T alpha), two packed triangular products, for a non-empty dictionary."""
        m, packed = self._m, self._factor()
        # the second product (trans=1) overwrites L^T alpha, a new array
        return dtpmv(m, packed, dtpmv(m, packed, alpha), 1, 0, 0, 1, 0, 1)

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the documented text format (full-precision decimals)."""
        lines = [
            "# sparsekaf dictionary format 1",
            " ".join(["kernel", self.kernel.family, *self.kernel.fields()]),
            " ".join(["criterion", self.criterion.kind, *self.criterion.fields()]),
        ]
        for atom in self.atoms:
            lines.append("atom " + " ".join(repr(float(v)) for v in atom))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dictionary":
        """Parse the text format written by :meth:`to_text`.

        Atom coordinates are shortest round-trip decimals, so atoms
        round-trip exactly, and :meth:`Kernel.gram` replays the admission
        arithmetic: the rebuilt Gram matrix is bit-identical to the grown
        one, for every kernel. The kernel and criterion records appear once each.
        """
        parsers = {"kernel": Kernel.from_fields, "criterion": CriterionConfig.from_fields}
        headers = {}
        atoms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tag, *args = line.split()
            try:
                if tag == "atom":
                    atoms.append([float(v) for v in args])
                elif tag not in parsers:
                    raise ValueError(f"unknown record {tag!r}")
                elif tag in headers:
                    raise ValueError(f"second {tag} record")
                else:
                    headers[tag] = parsers[tag](args[0] if args else "", args[1:])
            except ValueError as exc:
                raise ValueError(f"dictionary file line {lineno}: {exc}") from None
        if len(headers) < len(parsers):
            raise ValueError("dictionary file must contain 'kernel' and 'criterion' headers")
        if atoms and len({len(a) for a in atoms}) != 1:
            raise ValueError("dictionary file atoms have inconsistent dimensions")
        return cls.from_atoms(headers["kernel"], headers["criterion"], np.array(atoms) if atoms else np.zeros((0, 0)))

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "Dictionary":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _passes(kind: str, statistic: float, threshold: float) -> bool:
    """Whether criterion ``kind``'s ``statistic`` admits at ``threshold``: delta**2 bounds a distance or approximation residual below, gamma a coherence or Babel statistic above."""
    if kind in ("distance", "approximation"):
        return statistic >= threshold**2
    return statistic <= threshold


def _pivot_root(kxx: float, z: np.ndarray) -> float:
    """sqrt(kxx - ||z||^2), the new diagonal entry of L; a Schur pivot below ``PIVOT_FLOOR`` or not finite raises."""
    pivot = kxx - float(z.dot(z))
    if pivot < PIVOT_FLOOR:
        raise NumericalError("near-singular admission (criterion threshold too loose for numeric safety):"
                             f" Schur pivot {pivot:.3e} below {PIVOT_FLOOR:.0e}")
    if not pivot < math.inf:  # NaN fails too
        raise NumericalError(f"Schur pivot {pivot!r}: a kernel value past float64's range")
    return math.sqrt(pivot)


def _packed_diagonal(m: int) -> np.ndarray:
    """Positions j(j+3)/2 of the diagonal entries of an m x m triangle in upper packed storage."""
    j = np.arange(m)
    return j * (j + 3) // 2


def _gersgorin_radii(a: np.ndarray) -> np.ndarray:
    """Row i's absolute off-diagonal sum sum_{j != i} |a_ij|: the radius of Gersgorin disc i."""
    return np.abs(a).sum(axis=1) - np.abs(np.diag(a))


def _coefficients(packed: np.ndarray, w: np.ndarray) -> np.ndarray:
    """alpha = L^-T w, with L the leading len(w) rows of a packed factor buffer."""
    return dtpsv(len(w), packed, w) if len(w) else w

