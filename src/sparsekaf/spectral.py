"""Spectral analysis of dictionary Gram matrices.

Exact eigendecomposition (LAPACK ``eigh``, or ``eigvalsh`` where only the
values are read) plus the theoretical guarantees a sparse dictionary earns
from its sparsity measure: Gersgorin-derived eigenvalue bounds, a
sufficient linear-independence condition, a condition number bound, and
the quasi-isometry constant between the coefficient (dual) space R^m and
the span of the dictionary atoms.

:func:`spectral_report` checks the quasi-isometry exactly: with K the Gram
matrix divided by the squared rescale factor, the Rayleigh quotient ranges
over [lambda_min, lambda_max] of K and the worst inner-product deviation
is ||K - I||_2 = max_i |lambda_i - 1|. :func:`verify_isometry` is the
paper's randomized experiment; its sampled extremes always fall inside
these.

All bound functions take the *measured* sparsity value of a finished
dictionary, not the admission threshold: the measured value is at least as
tight, and stays valid even when Babel admission drifts post hoc.

Soundness caveat: the distance, coherence and Babel windows are hard
guarantees (Gersgorin arguments), but the approximation window is
optimistic and the exact spectrum can escape it. Two unit-norm atoms with
correlation c have spectrum {1-c, 1+c} while their approximation measure
gives the window [1-c^2, 1+c^2]; in general lambda_min <= min_i of the
atom reconstruction residuals, which *is* the squared approximation
measure. Reports therefore record approximation escapes as informational
flags rather than hard failures.

:func:`sound_eigen_bounds` and :func:`sound_isometry_constant` give a hard
window for every measure. For the approximation measure it is
[delta^2/m, m R^2 - (m-1) delta^2/m]: a unit coefficient vector has some
|alpha_k|^2 >= 1/m, and ||sum_i alpha_i phi_i||^2 >= alpha_k^2 res_k >=
delta^2/m, where res_k is atom k's residual against the others; the upper
end follows from trace K <= m R^2 with the other m-1 eigenvalues at least
delta^2/m. For the other three measures it is the paper's window.

Note on the general (non-unit-norm) isometry constant: the closed forms
use an (m-1) multiplicity factor, and the constant applies to atoms
rescaled by ``rescale_factor`` = sqrt((upper+lower)/2), which centers the
eigenvalue bounds about 1. :func:`verify_isometry` therefore checks the
rescaled Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import CRITERION_KINDS, Dictionary
from .errors import NumericalError
from .kernels import NormRange, norm_range

# Slack applied to every containment check, per the bound-verification contract.
CONTAINMENT_SLACK = 1e-9
DEFAULT_TRIALS = 10_000


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues (non-increasing) and orthonormal eigenvectors (columns).

    ``vectors`` is None in a :class:`SpectralReport`'s spectrum, which is
    solved for values only.
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


def eigensolve(gram: np.ndarray) -> EigenSpectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Deterministic up to eigenvector sign.
    """
    values, vectors = np.linalg.eigh(_symmetric(gram))
    return EigenSpectrum(values=values[::-1], vectors=vectors[:, ::-1])


def _eigenvalues(gram: np.ndarray) -> EigenSpectrum:
    """The eigenvalues of :func:`eigensolve`, by LAPACK ``eigvalsh``, with no vectors.

    ``eigvalsh`` and ``eigh`` run different LAPACK drivers, so the values
    can differ from :func:`eigensolve`'s in the last digits.
    """
    return EigenSpectrum(values=np.linalg.eigvalsh(_symmetric(gram))[::-1], vectors=None)


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


def _gersgorin_discs(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(gram, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    centers = np.diag(a)
    return centers, np.sum(np.abs(a), axis=1) - np.abs(centers)


def gersgorin_intervals(gram: np.ndarray) -> list[tuple[float, float]]:
    """Disc (center, radius) per row: the diagonal entry and the absolute
    off-diagonal row sum. Every eigenvalue lies in the union of the discs."""
    centers, radii = _gersgorin_discs(gram)
    return list(zip(centers.tolist(), radii.tolist()))


def gersgorin_margin(gram: np.ndarray, eigenvalues) -> float:
    """Largest distance from any of ``eigenvalues`` (a scalar or an array)
    to its nearest Gersgorin disc; 0 when every one lies inside the union."""
    centers, radii = _gersgorin_discs(gram)
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


def eigen_bounds(kind: str, value: float, m: int, nr: NormRange) -> tuple[float, float]:
    """Lower/upper eigenvalue bounds for a dictionary with the given measure.

    distance: r^2 -+ (m-1) R sqrt(R^2 - delta^2);
    approximation: [delta^2, 2 R^2 - delta^2];
    coherence: r^2 -+ (m-1) gamma R^2;
    Babel: [r^2 - gamma, R^2 + gamma].
    The lower bound may be negative (vacuous); it is returned as-is.
    The approximation window is not a sound containment guarantee (see the
    module docstring); the other three are. :func:`sound_eigen_bounds`
    gives a sound window for all four.
    """
    _check_bound_args(kind, value, m, nr)
    r_sq, R_sq = nr.r_sq, nr.R_sq
    if kind == "distance":
        spread = (m - 1) * math.sqrt(R_sq) * math.sqrt(R_sq - value**2)
        return r_sq - spread, R_sq + spread
    if kind == "approximation":
        return value**2, 2.0 * R_sq - value**2
    if kind == "coherence":
        spread = (m - 1) * value * R_sq
        return r_sq - spread, R_sq + spread
    return r_sq - value, R_sq + value


def lin_indep_condition(kind: str, value: float, m: int, nr: NormRange) -> bool:
    """Sufficient condition for the atoms to be linearly independent.

    True exactly when the sound lower eigenvalue bound
    (:func:`sound_eigen_bounds`) is strictly positive.
    """
    _check_bound_args(kind, value, m, nr)
    r_sq, R_sq = nr.r_sq, nr.R_sq
    if kind == "distance":
        return (m - 1) * math.sqrt(R_sq) * math.sqrt(R_sq - value**2) < r_sq
    if kind == "approximation":
        return value > 0.0
    if kind == "coherence":
        return (m - 1) * value * R_sq < r_sq
    return value < r_sq


def condition_number_bound(kind: str, value: float, m: int, nr: NormRange) -> float:
    """Upper bound on cond(gram) = lambda_1 / lambda_m; +inf when vacuous."""
    lower, upper = eigen_bounds(kind, value, m, nr)
    if kind == "approximation":
        if value == 0.0:
            return math.inf
        return 2.0 * nr.R_sq / value**2 - 1.0
    if lower <= 0.0:
        return math.inf
    return upper / lower


def isometry_constant(kind: str, value: float, m: int, nr: NormRange) -> tuple[float, float]:
    """Quasi-isometry constant nu and the atom rescale factor it assumes.

    With (l, u) the eigenvalue bounds, nu = (u - l)/(u + l) and the atoms
    are implicitly divided by sqrt((u + l)/2), which makes the bounds
    symmetric about 1. For unit-norm kernels (r = R = 1) the bounds are
    already symmetric, the rescale factor is exactly 1, and nu reduces to
    the closed forms (m-1) sqrt(1-delta^2), 1-delta^2, (m-1) gamma and
    gamma for the four measures respectively.
    """
    if nr.is_unit:
        # bounds are symmetric about 1: rescale factor is exactly 1 and nu
        # reduces to the closed forms
        _check_bound_args(kind, value, m, nr)
        if kind == "distance":
            nu = (m - 1) * math.sqrt(1.0 - value**2)
        elif kind == "approximation":
            nu = 1.0 - value**2
        elif kind == "coherence":
            nu = (m - 1) * value
        else:
            nu = value
        return nu, 1.0
    return _centered_isometry(*eigen_bounds(kind, value, m, nr))


def _centered_isometry(lower: float, upper: float) -> tuple[float, float]:
    if upper + lower <= 0.0:
        raise NumericalError(f"vacuous eigenvalue bounds ({lower}, {upper}): no isometry constant")
    nu = (upper - lower) / (upper + lower)
    return nu, math.sqrt((upper + lower) / 2.0)


def sound_eigen_bounds(kind: str, value: float, m: int, nr: NormRange) -> tuple[float, float]:
    """Eigenvalue window that contains the spectrum for every measure.

    approximation: [delta^2/m, m R^2 - (m-1) delta^2/m] (proof in the
    module docstring); distance, coherence, Babel: :func:`eigen_bounds`.
    """
    if kind != "approximation":
        return eigen_bounds(kind, value, m, nr)
    _check_bound_args(kind, value, m, nr)
    lower = value**2 / m
    return lower, m * nr.R_sq - (m - 1) * lower


def sound_isometry_constant(kind: str, value: float, m: int, nr: NormRange) -> tuple[float, float]:
    """Quasi-isometry constant nu and rescale factor of :func:`sound_eigen_bounds`.

    approximation: nu = (u - l)/(u + l) and rescale factor sqrt((u + l)/2)
    from the sound window (l, u); distance, coherence, Babel:
    :func:`isometry_constant`.
    """
    if kind != "approximation":
        return isometry_constant(kind, value, m, nr)
    return _centered_isometry(*sound_eigen_bounds(kind, value, m, nr))


# -- randomized verification ---------------------------------------------------


def _nonzero_normal(rng: np.random.Generator, trials: int, m: int) -> np.ndarray:
    out = rng.standard_normal((trials, m))
    while True:
        bad = np.linalg.norm(out, axis=1) == 0.0
        if not bad.any():
            return out
        out[bad] = rng.standard_normal((int(bad.sum()), m))


@dataclass(frozen=True)
class _IsometryStats:
    """Per-trial raw statistics, reusable across per-kind rescale factors."""

    ratios: np.ndarray     # alpha^T K alpha / ||alpha||^2
    ip_kernel: np.ndarray  # alpha'^T K alpha'' / (||alpha'|| ||alpha''||)
    ip_euclid: np.ndarray  # alpha'^T alpha'' / (||alpha'|| ||alpha''||)

    def extremes(self, rescale_factor: float = 1.0) -> tuple[float, float, float]:
        s_sq = rescale_factor**2
        ratios = self.ratios / s_sq
        dev = np.abs(self.ip_kernel / s_sq - self.ip_euclid)
        return float(ratios.min()), float(ratios.max()), float(dev.max())


def _isometry_stats(gram: np.ndarray, trials: int, rng_seed: int) -> _IsometryStats:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = gram.shape[0]
    rng = np.random.default_rng(rng_seed)
    a = _nonzero_normal(rng, trials, m)
    quad = np.sum((a @ gram) * a, axis=1)
    ratios = quad / np.sum(a * a, axis=1)
    a1 = _nonzero_normal(rng, trials, m)
    a2 = _nonzero_normal(rng, trials, m)
    norms = np.linalg.norm(a1, axis=1) * np.linalg.norm(a2, axis=1)
    ip_kernel = np.sum((a1 @ gram) * a2, axis=1) / norms
    ip_euclid = np.sum(a1 * a2, axis=1) / norms
    return _IsometryStats(ratios=ratios, ip_kernel=ip_kernel, ip_euclid=ip_euclid)


def verify_isometry(
    dictionary: Dictionary,
    trials: int = DEFAULT_TRIALS,
    rng_seed: int = 0,
    rescale_factor: float = 1.0,
) -> tuple[float, float, float]:
    """Monte-Carlo extremes of the dual-to-feature-space distortion.

    Draws ``trials`` standard-normal coefficient vectors (and pairs) and
    returns (worst_ratio_low, worst_ratio_high, worst_ip_deviation) of the
    Rayleigh quotient alpha^T K alpha / ||alpha||^2 and the inner-product
    deviation |alpha'^T (K - I) alpha''| / (||alpha'|| ||alpha''||), where
    K is the Gram matrix divided by ``rescale_factor**2``. For a
    dictionary with isometry constant nu (at this rescale factor) the
    ratios must lie in [1-nu, 1+nu] and the deviations below nu. The
    sampled extremes never pass the exact ones in :func:`spectral_report`.
    """
    if dictionary.m == 0:
        raise ValueError("verify_isometry requires a non-empty dictionary")
    stats = _isometry_stats(dictionary.gram, trials, rng_seed)
    return stats.extremes(rescale_factor)


# -- report ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSet:
    """All theoretical guarantees derived from one measured sparsity value."""

    measure_kind: str
    measure_value: float
    lower: float
    upper: float
    lin_indep_condition_holds: bool
    cond_number_bound: float
    isometry_nu: float
    rescale_factor: float

    @property
    def vacuous_lower(self) -> bool:
        """Theoretical lower bound tells us nothing when it is <= 0."""
        return not self.lower > 0.0


@dataclass
class SpectralReport:
    """Exact spectrum, per-measure theoretical bounds, and any violations.

    ``violations`` pairs a bound name (``"<kind>:<check>"`` or
    ``"gersgorin"``) with the margin by which it failed; it stays empty
    for dictionaries built by admission under the distance and coherence
    criteria. Two informational entries can appear on honest dictionaries:
    ``approximation:*`` containment escapes (that window is not a sound
    bound, see the module docstring) and ``babel:admission_threshold``
    (Babel admission does not control the post-hoc measure). Hard failures
    are the remaining names; :func:`is_hard_violation` tells them apart.
    """

    spectrum: EigenSpectrum
    norm: NormRange
    per_measure: list[BoundSet] = field(default_factory=list)
    isometry_extremes: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    violations: list[tuple[str, float]] = field(default_factory=list)

    CSV_COLUMNS = (
        "kind", "measure", "lower", "upper", "lambda_min", "lambda_max",
        "cond", "cond_bound", "nu", "worst_ratio_low", "worst_ratio_high",
        "worst_ip_dev", "violated",
    )

    def violated_kinds(self) -> set[str]:
        return {name.split(":", 1)[0] for name, _ in self.violations}

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


def dictionary_norm_range(dictionary: Dictionary) -> NormRange:
    """Analytic range for Gaussian kernels, else empirical over the atoms."""
    if dictionary.kernel.family == "gaussian":
        return norm_range(dictionary.kernel)
    return norm_range(dictionary.kernel, dictionary.atoms)


def spectral_report(dictionary: Dictionary, nr: NormRange | None = None) -> SpectralReport:
    """Measure the dictionary all four ways and check every guarantee.

    Bounds use the measured sparsity values. Measures that are undefined
    (fewer than two atoms) or numerically unavailable (a Gram matrix too
    close to singular for the approximation measure) yield NaN rows with
    no checks. The isometry extremes are the exact suprema over all
    coefficient vectors, read off the spectrum; nothing is sampled. The
    spectrum is solved for eigenvalues only.
    """
    if dictionary.m == 0:
        raise ValueError("spectral_report requires a non-empty dictionary")
    if nr is None:
        nr = dictionary_norm_range(dictionary)
    spectrum = _eigenvalues(dictionary.gram)
    report = SpectralReport(spectrum=spectrum, norm=nr)

    worst_gersgorin = gersgorin_margin(dictionary.gram, spectrum.values)
    if worst_gersgorin > CONTAINMENT_SLACK:
        report.violations.append(("gersgorin", worst_gersgorin))

    m = dictionary.m
    for kind in CRITERION_KINDS:
        try:
            value = dictionary.measure(kind)
        except (ValueError, NumericalError):
            report.per_measure.append(
                BoundSet(kind, math.nan, math.nan, math.nan, False, math.nan, math.nan, math.nan)
            )
            continue
        lower, upper = eigen_bounds(kind, value, m, nr)
        nu, rescale = isometry_constant(kind, value, m, nr)
        bs = BoundSet(
            measure_kind=kind,
            measure_value=value,
            lower=lower,
            upper=upper,
            lin_indep_condition_holds=lin_indep_condition(kind, value, m, nr),
            cond_number_bound=condition_number_bound(kind, value, m, nr),
            isometry_nu=nu,
            rescale_factor=rescale,
        )
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
    spectrum. These are the suprema that :func:`verify_isometry` samples.
    """
    s_sq = rescale_factor**2
    low, high = spectrum.lambda_min / s_sq, spectrum.lambda_max / s_sq
    return low, high, max(high - 1.0, 1.0 - low)


_SOUND_CONTAINMENT_KINDS = ("distance", "coherence", "babel")


def is_hard_violation(name: str) -> bool:
    """Whether a violation name breaks a *sound* guarantee.

    Two families are informational only: admission-threshold drift (Babel
    admission does not control the post-hoc measure) and
    approximation-window escapes (that window is optimistic, not a bound;
    see the module docstring). Gersgorin and the
    distance/coherence/babel containment checks are hard guarantees.
    """
    if name == "gersgorin":
        return True
    kind, _, check = name.partition(":")
    if check == "admission_threshold":
        return False
    return kind in _SOUND_CONTAINMENT_KINDS


def _append_violations(
    report: SpectralReport,
    bs: BoundSet,
    extremes: tuple[float, float, float],
    dictionary: Dictionary,
) -> None:
    kind = bs.measure_kind
    lam_min, lam_max = report.spectrum.lambda_min, report.spectrum.lambda_max
    if lam_min < bs.lower - CONTAINMENT_SLACK:
        report.violations.append((f"{kind}:eigen_lower", bs.lower - lam_min))
    if lam_max > bs.upper + CONTAINMENT_SLACK:
        report.violations.append((f"{kind}:eigen_upper", lam_max - bs.upper))
    if math.isfinite(bs.cond_number_bound) and math.isfinite(report.spectrum.cond):
        excess = report.spectrum.cond - bs.cond_number_bound * (1.0 + CONTAINMENT_SLACK)
        if excess > 0.0:
            report.violations.append((f"{kind}:cond", excess))
    lo, hi, ipdev = extremes
    if lo < 1.0 - bs.isometry_nu - CONTAINMENT_SLACK:
        report.violations.append((f"{kind}:isometry_low", (1.0 - bs.isometry_nu) - lo))
    if hi > 1.0 + bs.isometry_nu + CONTAINMENT_SLACK:
        report.violations.append((f"{kind}:isometry_high", hi - (1.0 + bs.isometry_nu)))
    if ipdev > bs.isometry_nu + CONTAINMENT_SLACK:
        report.violations.append((f"{kind}:isometry_ip", ipdev - bs.isometry_nu))
    if kind == dictionary.criterion.kind:
        threshold = dictionary.criterion.threshold
        if kind in ("distance", "approximation"):
            drift = threshold - bs.measure_value
        else:
            drift = bs.measure_value - threshold
        if drift > CONTAINMENT_SLACK:
            report.violations.append((f"{kind}:admission_threshold", drift))
