"""Spectral analysis of dictionary Gram matrices.

Exact eigendecomposition (:func:`eigensolve`: LAPACK ``eigh``, or
``eigvalsh`` where only the values are read) plus the theoretical
guarantees a sparse dictionary earns from its sparsity measure, built by
:func:`window`: Gersgorin-derived eigenvalue bounds, a sufficient
linear-independence condition, a condition number bound, and the
quasi-isometry constant between the coefficient (dual) space R^m and the
span of the dictionary atoms.

:func:`spectral_report` checks the quasi-isometry exactly: with K the Gram
matrix divided by the squared rescale factor, the Rayleigh quotient ranges
over [lambda_min, lambda_max] of K and the worst inner-product deviation
is ||K - I||_2 = max_i |lambda_i - 1|.

Every window takes the *measured* sparsity value of a finished
dictionary, not the admission threshold: the measured value is at least as
tight, and stays valid even when Babel admission drifts post hoc.

Soundness caveat: the distance, coherence and Babel windows are hard
guarantees (Gersgorin arguments), but the paper's approximation window is
optimistic and the exact spectrum can escape it. Two unit-norm atoms with
correlation c have spectrum {1-c, 1+c} while their approximation measure
gives the window [1-c^2, 1+c^2]; in general lambda_min <= min_i of the
atom reconstruction residuals, which *is* the squared approximation
measure. Reports therefore record approximation escapes as informational
flags rather than hard failures.

``window(..., sound=True)`` gives a hard window for every measure. For the
approximation measure it is [delta^2/m, m R^2 - (m-1) delta^2/m]: a unit
coefficient vector has some |alpha_k|^2 >= 1/m, and
||sum_i alpha_i phi_i||^2 >= alpha_k^2 res_k >= delta^2/m, where res_k is
atom k's residual against the others; the upper end follows from
trace K <= m R^2 with the other m-1 eigenvalues at least delta^2/m. For
the other three measures it is the paper's window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dictionary import CRITERION_KINDS, Dictionary
from .errors import NumericalError
from .kernels import NormRange, norm_range

# Slack applied to every containment check, per the bound-verification contract.
CONTAINMENT_SLACK = 1e-9


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues (non-increasing) and orthonormal eigenvectors (columns).

    ``vectors`` is None for a values-only solve (``eigensolve(gram,
    vectors=False)``), such as a :class:`SpectralReport`'s spectrum.
    """

    values: np.ndarray
    vectors: np.ndarray | None

    @property
    def lambda_max(self) -> float:
        return float(self.values[0])

    @property
    def lambda_min(self) -> float:
        return float(self.values[-1])

    @property
    def cond(self) -> float:
        """lambda_max / lambda_min, +inf when the smallest eigenvalue is <= 0."""
        if self.lambda_min <= 0.0:
            return math.inf
        return self.lambda_max / self.lambda_min


def eigensolve(gram: np.ndarray, vectors: bool = True) -> EigenSpectrum:
    """Eigendecomposition of a symmetric matrix by LAPACK: ``eigh``, or
    ``eigvalsh`` with ``vectors=False``, whose spectrum has no vectors.

    Deterministic up to eigenvector sign. ``eigvalsh`` and ``eigh`` run
    different LAPACK drivers, so the values of the two modes can differ in
    the last digits.
    """
    a = _symmetric(gram)
    if not vectors:
        return EigenSpectrum(values=np.linalg.eigvalsh(a)[::-1], vectors=None)
    values, vecs = np.linalg.eigh(a)
    return EigenSpectrum(values=values[::-1], vectors=vecs[:, ::-1])


def _symmetric(gram) -> np.ndarray:
    """``gram`` as a new float64 array, checked square, non-empty and symmetric within 1e-12."""
    a = np.array(gram, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("cannot eigensolve an empty matrix")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    return a


def gersgorin_margin(gram: np.ndarray, eigenvalues) -> float:
    """Largest distance from any of ``eigenvalues`` (a scalar or an array)
    to its nearest Gersgorin disc; 0 when every one lies inside the union.

    Disc i is centred on the diagonal entry with the absolute off-diagonal
    row sum as radius; every eigenvalue lies in the union of the discs.
    """
    a = np.asarray(gram, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    centers = np.diag(a)
    radii = np.sum(np.abs(a), axis=1) - np.abs(centers)
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=np.float64))
    gaps = np.abs(lam[:, None] - centers[None, :]) - radii[None, :]
    return float(np.max(np.maximum(np.min(gaps, axis=1), 0.0)))


def _check_bound_args(kind: str, value: float, m: int, nr: NormRange):
    if kind not in CRITERION_KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"measure value must be finite and >= 0, got {value}")
    if kind == "coherence" and value > 1.0:
        raise ValueError("coherence measure cannot exceed 1")
    if kind == "distance" and value**2 > nr.R_sq:
        raise ValueError(f"distance delta^2={value**2} exceeds R^2={nr.R_sq}")
    # delta^2 <= kappa(x, x) <= R^2 for every atom; the slack admits a
    # measured delta^2 that rounding pushed just past R^2
    if kind == "approximation" and value**2 > nr.R_sq * (1.0 + CONTAINMENT_SLACK):
        raise ValueError(f"approximation delta^2={value**2} exceeds R^2={nr.R_sq}")


@dataclass(frozen=True)
class BoundSet:
    """All theoretical guarantees derived from one measured sparsity value.

    ``sound`` tells whether the spectrum is guaranteed to lie in
    [``lower``, ``upper``]: true for every window but the paper's
    approximation window.
    """

    measure_kind: str
    measure_value: float
    lower: float
    upper: float
    cond_number_bound: float
    isometry_nu: float
    rescale_factor: float
    sound: bool

    @property
    def lin_indep_condition_holds(self) -> bool:
        """Sufficient condition for linearly independent atoms: a positive lower bound."""
        return self.lower > 0.0


def window(kind: str, value: float, m: int, nr: NormRange, sound: bool = False) -> BoundSet:
    """Every guarantee of an m-atom dictionary whose ``kind`` measure is ``value``.

    With kappa(x, x) in [r^2, R^2] (``nr``), the paper's eigenvalue windows are

    - distance delta: [r^2 - s, R^2 + s] with s = (m-1) R sqrt(R^2 - delta^2);
    - approximation delta: [delta^2, 2 R^2 - delta^2];
    - coherence gamma: [r^2 - s, R^2 + s] with s = (m-1) gamma R^2;
    - Babel gamma: [r^2 - gamma, R^2 + gamma].

    The lower bound may be negative (vacuous); it is kept as-is. The
    approximation window is not a sound containment guarantee (see the
    module docstring); ``sound=True`` replaces it by
    [delta^2/m, m R^2 - (m-1) delta^2/m] and leaves the other three alone.

    From the window (l, u): the atoms are linearly independent when l > 0;
    cond(gram) <= u/l, +inf when l <= 0, which for the paper's approximation
    window is 2 R^2/delta^2 - 1; and the quasi-isometry constant is
    nu = (u - l)/(u + l) for atoms divided by the rescale factor
    sqrt((u + l)/2), which centres the window about 1. For unit-norm kernels
    (r = R = 1) the paper's windows are 1 -+ s, the rescale factor is
    exactly 1, and nu = s: (m-1) sqrt(1-delta^2), 1-delta^2, (m-1) gamma
    and gamma for the four measures.
    """
    _check_bound_args(kind, value, m, nr)
    r_sq, R_sq = nr.r_sq, nr.R_sq
    if kind == "approximation":
        if sound:
            lower = value**2 / m
            upper = m * R_sq - (m - 1) * lower
        else:
            lower, upper = value**2, 2.0 * R_sq - value**2
        spread = R_sq - value**2
    else:
        if kind == "distance":
            spread = (m - 1) * math.sqrt(R_sq) * math.sqrt(R_sq - value**2)
        elif kind == "coherence":
            spread = (m - 1) * value * R_sq
        else:
            spread = value
        lower, upper = r_sq - spread, R_sq + spread
    paper_approximation = kind == "approximation" and not sound
    if not lower > 0.0:
        cond = math.inf
    elif paper_approximation:
        cond = 2.0 * R_sq / value**2 - 1.0
    else:
        cond = upper / lower
    if nr.is_unit and (kind != "approximation" or paper_approximation):
        nu, rescale = spread, 1.0
    elif upper + lower <= 0.0:
        raise NumericalError(f"vacuous eigenvalue bounds ({lower}, {upper}): no isometry constant")
    else:
        nu, rescale = (upper - lower) / (upper + lower), math.sqrt((upper + lower) / 2.0)
    return BoundSet(kind, value, lower, upper, cond, nu, rescale, sound=not paper_approximation)


class Violation(NamedTuple):
    """A check that failed: its name (``"<kind>:<check>"`` or ``"gersgorin"``),
    the margin by which it failed, and whether it breaks a sound guarantee."""

    name: str
    margin: float
    hard: bool


@dataclass
class SpectralReport:
    """Exact spectrum, per-measure theoretical bounds, and any violations.

    ``violations`` stays empty for dictionaries built by admission under the
    distance and coherence criteria. Two informational (not ``hard``)
    kinds can appear on honest dictionaries: ``approximation:*``
    containment escapes (the paper's window is not a sound bound, see the
    module docstring) and ``<kind>:admission_threshold`` (Babel admission
    does not control the post-hoc measure). Gersgorin and the containment
    checks of a sound window are hard.
    """

    spectrum: EigenSpectrum
    norm: NormRange
    per_measure: list[BoundSet] = field(default_factory=list)
    isometry_extremes: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    CSV_COLUMNS = (
        "kind", "measure", "lower", "upper", "lambda_min", "lambda_max",
        "cond", "cond_bound", "nu", "worst_ratio_low", "worst_ratio_high",
        "worst_ip_dev", "violated",
    )

    def violated_kinds(self) -> set[str]:
        return {v.name.split(":", 1)[0] for v in self.violations}

    def to_csv(self) -> str:
        """One row per measure kind, shortest round-trip decimals."""
        lines = [",".join(self.CSV_COLUMNS)]
        violated = self.violated_kinds()
        for bs in self.per_measure:
            lo, hi, ipdev = self.isometry_extremes.get(
                bs.measure_kind, (math.nan, math.nan, math.nan)
            )
            row = [
                bs.measure_kind,
                repr(bs.measure_value),
                repr(bs.lower),
                repr(bs.upper),
                repr(self.spectrum.lambda_min),
                repr(self.spectrum.lambda_max),
                repr(self.spectrum.cond),
                repr(bs.cond_number_bound),
                repr(bs.isometry_nu),
                repr(lo),
                repr(hi),
                repr(ipdev),
                "1" if bs.measure_kind in violated else "0",
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def spectral_report(dictionary: Dictionary, nr: NormRange | None = None) -> SpectralReport:
    """Measure the dictionary all four ways and check every guarantee.

    Bounds use the measured sparsity values and the paper's windows. Measures
    that are undefined (fewer than two atoms) or numerically unavailable (a
    Gram matrix too close to singular for the approximation measure) yield
    NaN rows with no checks. The isometry extremes are the exact suprema
    over all coefficient vectors, read off the spectrum; nothing is sampled.
    The spectrum is solved for eigenvalues only. ``nr`` defaults to
    :func:`norm_range` over the atoms: analytic for the Gaussian kernel,
    empirical otherwise.
    """
    if dictionary.m == 0:
        raise ValueError("spectral_report requires a non-empty dictionary")
    if nr is None:
        nr = norm_range(dictionary.kernel, dictionary.atoms)
    spectrum = eigensolve(dictionary.gram, vectors=False)
    report = SpectralReport(spectrum=spectrum, norm=nr)

    worst_gersgorin = gersgorin_margin(dictionary.gram, spectrum.values)
    if worst_gersgorin > CONTAINMENT_SLACK:
        report.violations.append(Violation("gersgorin", worst_gersgorin, True))

    for kind in CRITERION_KINDS:
        try:
            value = dictionary.measure(kind)
        except (ValueError, NumericalError):
            nan = math.nan
            report.per_measure.append(BoundSet(kind, nan, nan, nan, nan, nan, nan, kind != "approximation"))
            continue
        bs = window(kind, value, dictionary.m, nr)
        report.per_measure.append(bs)
        extremes = _exact_extremes(spectrum, bs.rescale_factor)
        report.isometry_extremes[kind] = extremes
        _append_violations(report, bs, extremes, dictionary)
    return report


def _exact_extremes(spectrum: EigenSpectrum, rescale_factor: float) -> tuple[float, float, float]:
    """(ratio low, ratio high, inner-product deviation) over all coefficients.

    With K the Gram matrix divided by ``rescale_factor**2``, the Rayleigh
    quotient alpha^T K alpha / ||alpha||^2 ranges over [lambda_min, lambda_max]
    of K, and the largest |alpha'^T (K - I) alpha''| over unit alpha',
    alpha'' is ||K - I||_2 = max_i |lambda_i - 1|, reached at an end of the
    spectrum.
    """
    s_sq = rescale_factor**2
    low, high = spectrum.lambda_min / s_sq, spectrum.lambda_max / s_sq
    return low, high, max(high - 1.0, 1.0 - low)


def _append_violations(
    report: SpectralReport,
    bs: BoundSet,
    extremes: tuple[float, float, float],
    dictionary: Dictionary,
) -> None:
    kind, nu, slack = bs.measure_kind, bs.isometry_nu, CONTAINMENT_SLACK
    lam_min, lam_max, cond = report.spectrum.lambda_min, report.spectrum.lambda_max, report.spectrum.cond
    lo, hi, ipdev = extremes
    cond_excess = 0.0
    if math.isfinite(bs.cond_number_bound) and math.isfinite(cond):
        cond_excess = cond - bs.cond_number_bound * (1.0 + slack)
    for check, failed, margin in (
        ("eigen_lower", lam_min < bs.lower - slack, bs.lower - lam_min),
        ("eigen_upper", lam_max > bs.upper + slack, lam_max - bs.upper),
        ("cond", cond_excess > 0.0, cond_excess),
        ("isometry_low", lo < 1.0 - nu - slack, (1.0 - nu) - lo),
        ("isometry_high", hi > 1.0 + nu + slack, hi - (1.0 + nu)),
        ("isometry_ip", ipdev > nu + slack, ipdev - nu),
    ):
        if failed:
            report.violations.append(Violation(f"{kind}:{check}", margin, bs.sound))
    if kind == dictionary.criterion.kind:
        threshold = dictionary.criterion.threshold
        if kind in ("distance", "approximation"):
            drift = threshold - bs.measure_value
        else:
            drift = bs.measure_value - threshold
        if drift > slack:
            report.violations.append(Violation(f"{kind}:admission_threshold", drift, False))
