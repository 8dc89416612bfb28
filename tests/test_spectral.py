import math
import tracemalloc

import numpy as np
import pytest

import sparsekaf.dictionary as dictionary_module
import sparsekaf.spectral as spectral_module

from sampled_isometry import gersgorin_intervals, verify_isometry
from sparsekaf import (
    CriterionConfig,
    Dictionary,
    Kernel,
    NormRange,
    NumericalError,
    Violation,
    eigensolve,
    spectral_report,
    window,
)
from sparsekaf.cli import main
from sparsekaf.harness import verification_exit_code
from sparsekaf.spectral import gersgorin_margin

UNIT = NormRange(1.0, 1.0)
KINDS = ("distance", "approximation", "coherence", "babel")
SOUND_KINDS = ("distance", "coherence", "babel")


def bounds(kind, value, m, nr, sound=False):
    bs = window(kind, value, m, nr, sound)
    return bs.lower, bs.upper


def isometry(kind, value, m, nr, sound=False):
    bs = window(kind, value, m, nr, sound)
    return bs.isometry_nu, bs.rescale_factor


def build_gaussian_dict(kind, threshold, seed, sigma=1.0, max_atoms=None, n=200, spread=3.0, dim=2):
    d = Dictionary(Kernel.gaussian(sigma), CriterionConfig(kind, threshold, max_atoms=max_atoms))
    rng = np.random.default_rng(seed)
    for x in rng.uniform(-spread, spread, size=(n, dim)):
        d.admit(x)
    return d


class TestEigensolve:
    def test_identity(self):
        spec = eigensolve(np.eye(3))
        np.testing.assert_array_equal(spec.values, [1.0, 1.0, 1.0])

    def test_two_by_two_closed_form(self):
        # oracle: eigenvalues of [[1,c],[c,1]] are 1 +- c
        spec = eigensolve([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(spec.values, [1.5, 0.5], atol=1e-14)

    def test_diagonal(self):
        spec = eigensolve(np.diag([4.0, 2.0, 1.0]))
        np.testing.assert_array_equal(spec.values, [4.0, 2.0, 1.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigensolve([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ValueError, match="square"):
            eigensolve(np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_on_random_psd(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40))
        a = rng.standard_normal((m, m))
        gram = a @ a.T / m
        gram = 0.5 * (gram + gram.T)
        spec = eigensolve(gram)
        assert abs(spec.values.sum() - np.trace(gram)) <= 1e-9 * max(abs(np.trace(gram)), 1.0)
        assert spec.values[-1] >= -1e-10
        assert np.all(np.diff(spec.values) <= 0)
        # oracle: the values of the eigenvector driver, a separate LAPACK path
        np.testing.assert_allclose(spec.values, np.linalg.eigh(gram)[0][::-1], atol=1e-10)

    def test_deterministic(self):
        gram = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]])
        s1, s2 = eigensolve(gram), eigensolve(gram)
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_symmetry_tolerance(self):
        gram = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]])
        for skew, accepted in ((1e-13, True), (1e-11, False)):
            a = gram.copy()
            a[0, 2] += skew
            if accepted:
                np.testing.assert_allclose(eigensolve(a).values, eigensolve(gram).values, atol=1e-12)
            else:
                with pytest.raises(ValueError, match="not symmetric within 1e-12"):
                    eigensolve(a)

    def test_nan_matrix_reaches_the_eigensolver(self):
        # a NaN entry fails the exact comparison and the tolerance one alike,
        # so the matrix is passed on, and LAPACK does not converge on it
        with pytest.raises(np.linalg.LinAlgError):
            eigensolve(np.full((3, 3), np.nan))

    def test_exactly_symmetric_gram_makes_no_float_temporary(self):
        # eigvalsh reads the Gram matrix without a copy being made for it, and
        # the exact symmetry check needs a boolean m x m array only
        m = 600
        gram = Kernel.gaussian(0.5).gram(np.random.default_rng(2).uniform(-1, 1, size=(m, 3)))
        eigensolve(gram)
        tracemalloc.start()
        try:
            spec = eigensolve(gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * m * m * 8
        assert spec.values.shape == (m,)


class TestGersgorin:
    def test_identity_discs(self):
        assert gersgorin_intervals(np.eye(3)) == [(1.0, 0.0)] * 3

    def test_two_by_two(self):
        discs = gersgorin_intervals([[1.0, 0.5], [0.5, 1.0]])
        assert discs == [(1.0, 0.5), (1.0, 0.5)]
        # eigenvalues 0.5 and 1.5 are exactly the disc endpoints
        for lam in (0.5, 1.5):
            assert gersgorin_margin(np.array([[1.0, 0.5], [0.5, 1.0]]), lam) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_union_covers_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 25))
        a = rng.standard_normal((m, m))
        gram = a @ a.T / m + np.diag(rng.uniform(0.5, 2.0, m))
        gram = 0.5 * (gram + gram.T)
        for lam in eigensolve(gram).values:
            assert gersgorin_margin(gram, lam) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_array_margin_is_max_of_scalar_margins(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 25))
        a = rng.standard_normal((m, m))
        gram = a @ a.T / m
        # the spectrum plus points that miss every disc
        lams = np.concatenate([eigensolve(gram).values, rng.uniform(-20.0, 20.0, 10)])
        expected = max(gersgorin_margin(gram, lam) for lam in lams)
        assert expected > 0.0
        assert gersgorin_margin(gram, lams) == expected

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_blocks_of_eigenvalues_give_the_full_table(self, count):
        rng = np.random.default_rng(count)
        a = rng.standard_normal((30, 30))
        gram = a @ a.T / 30
        lams = rng.uniform(-5.0, 40.0, count)
        radii = np.abs(gram).sum(axis=1) - np.abs(np.diag(gram))
        table = np.abs(lams[:, None] - np.diag(gram)[None, :]) - radii[None, :]
        assert gersgorin_margin(gram, lams) == float(np.max(np.maximum(np.min(table, axis=1), 0.0)))

    def test_radii_are_computed_once_per_report(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a.shape)
            return radii(a)

        radii = dictionary_module._gersgorin_radii
        for module in (dictionary_module, spectral_module):
            monkeypatch.setattr(module, "_gersgorin_radii", counting)
        d = build_gaussian_dict("coherence", 0.9, seed=1, sigma=0.5, n=400)
        report = spectral_report(d)
        assert calls == [(d.m, d.m)]
        assert report.per_measure[3].measure_value == float(np.max(radii(d.gram)))


def paper_window(kind, value, m, r_sq, R_sq, sound):
    """(lower, upper, lin_indep, cond bound, nu, rescale, sound), from the closed forms."""
    d_sq, R = value * value, math.sqrt(R_sq)
    if kind == "approximation":
        lo, hi = (d_sq / m, m * R_sq - (m - 1) * d_sq / m) if sound else (d_sq, 2 * R_sq - d_sq)
    else:
        if kind == "distance":
            spread = (m - 1) * R * math.sqrt(R_sq - d_sq)
        elif kind == "coherence":
            spread = (m - 1) * value * R_sq
        else:
            spread = value
        lo, hi = r_sq - spread, R_sq + spread
    paper_approximation = kind == "approximation" and not sound
    if lo <= 0:
        cond = math.inf
    else:
        cond = 2 * R_sq / d_sq - 1 if paper_approximation else hi / lo
    if r_sq == R_sq == 1.0 and not (kind == "approximation" and sound):
        nu = {
            "distance": lambda: (m - 1) * math.sqrt(1 - d_sq),
            "approximation": lambda: 1 - d_sq,
            "coherence": lambda: (m - 1) * value,
            "babel": lambda: value,
        }[kind]()
        rescale = 1.0
    else:
        nu, rescale = (hi - lo) / (hi + lo), math.sqrt((hi + lo) / 2)
    return lo, hi, lo > 0, cond, nu, rescale, not paper_approximation


class TestWindowTable:
    @pytest.mark.parametrize("sound", [False, True])
    @pytest.mark.parametrize("nr", [UNIT, NormRange(0.5, 2.0)], ids=["unit", "general"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_closed_forms(self, kind, nr, sound):
        for m in (1, 2, 5, 40, 800):
            # 1e-170 squares to 0: the approximation window's lower end is 0
            for value in (0.0, 1e-170, 0.05, 0.3, 0.9):
                bs = window(kind, value, m, nr, sound)
                lo, hi, indep, cond, nu, rescale, is_sound = paper_window(kind, value, m, nr.r_sq, nr.R_sq, sound)
                label = (kind, m, value)
                assert (bs.measure_kind, bs.measure_value) == (kind, value)
                assert (bs.lower, bs.upper) == pytest.approx((lo, hi), rel=1e-12, abs=1e-300), label
                assert bs.cond_number_bound == pytest.approx(cond, rel=1e-12), label
                assert (bs.isometry_nu, bs.rescale_factor) == pytest.approx((nu, rescale), rel=1e-12), label
                assert (bs.lin_indep_condition_holds, bs.sound) == (indep, is_sound), label
                # the report checks containment alone: with s^2 = (u+l)/2,
                # 1 - nu = l/s^2 and 1 + nu = u/s^2, so the window gives the
                # isometry, and cond_bound = u/l gives the condition bound.
                # Both ends are compared to 1e-12 of u/s^2: 1 - nu keeps only
                # the digits that nu's rounding leaves when nu is near 1
                s_sq = bs.rescale_factor**2
                tol = 1e-12 * bs.upper / s_sq
                assert abs((1.0 - bs.isometry_nu) - bs.lower / s_sq) <= tol, label
                assert abs((1.0 + bs.isometry_nu) - bs.upper / s_sq) <= tol, label
                if bs.lower > 0.0:
                    assert bs.cond_number_bound == pytest.approx(bs.upper / bs.lower, rel=1e-12, abs=0.0), label

    def test_underflowing_approximation_value(self):
        # delta = 1e-170 > 0 while delta^2 rounds to 0
        for sound in (False, True):
            bs = window("approximation", 1e-170, 3, UNIT, sound)
            assert bs.lower == 0.0
            assert bs.cond_number_bound == math.inf
            assert not bs.lin_indep_condition_holds

    def test_zero_norm_range_has_no_isometry_constant(self):
        with pytest.raises(NumericalError, match="vacuous"):
            window("babel", 0.0, 3, NormRange(0.0, 0.0))


class TestEigenBounds:
    def test_coherence_unit_norm(self):
        assert bounds("coherence", 0.5, 2, UNIT) == (0.5, 1.5)

    def test_approximation_orthonormal_limit(self):
        assert bounds("approximation", 1.0, 5, UNIT) == (1.0, 1.0)

    def test_babel_unit_norm(self):
        lo, hi = bounds("babel", 0.3, 7, UNIT)
        assert (lo, hi) == pytest.approx((0.7, 1.3), abs=1e-15)

    def test_distance_unit_norm(self):
        # oracle: 1 -+ (m-1) sqrt(1-delta^2)
        lo, hi = bounds("distance", 0.8, 3, UNIT)
        root = math.sqrt(1.0 - 0.64)
        assert lo == pytest.approx(1.0 - 2 * root, abs=1e-15)
        assert hi == pytest.approx(1.0 + 2 * root, abs=1e-15)

    def test_distance_delta_exceeding_R_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            bounds("distance", 1.5, 2, UNIT)

    def test_approximation_delta_exceeding_R_rejected(self):
        # no dictionary has delta^2 > R^2; the window would come out inverted
        for sound in (False, True):
            with pytest.raises(ValueError, match="exceeds"):
                window("approximation", 1.5, 3, UNIT, sound)

    def test_general_norm_range(self):
        nr = NormRange(0.8, 1.2)
        lo, hi = bounds("coherence", 0.1, 3, nr)
        assert lo == pytest.approx(0.8 - 2 * 0.1 * 1.2, abs=1e-15)
        assert hi == pytest.approx(1.2 + 2 * 0.1 * 1.2, abs=1e-15)

    def test_negative_lower_reported_as_is(self):
        lo, _ = bounds("coherence", 0.9, 10, UNIT)
        assert lo < 0.0  # vacuous, not clamped

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bounds("coherence", 1.2, 2, UNIT)
        with pytest.raises(ValueError):
            bounds("spark", 0.5, 2, UNIT)
        with pytest.raises(ValueError):
            bounds("babel", 0.5, 0, UNIT)


class TestLinIndepCondition:
    def test_coherence_example(self):
        assert window("coherence", 0.4, 3, UNIT).lin_indep_condition_holds  # 0.8 < 1
        assert not window("coherence", 0.5, 3, UNIT).lin_indep_condition_holds  # 1.0 < 1 fails

    def test_approximation_boundary(self):
        assert not window("approximation", 0.0, 4, UNIT).lin_indep_condition_holds
        assert window("approximation", 1e-6, 4, UNIT).lin_indep_condition_holds

    def test_babel_unit_boundary(self):
        assert not window("babel", 1.0, 4, UNIT).lin_indep_condition_holds
        assert window("babel", 0.99, 4, UNIT).lin_indep_condition_holds

    def test_distance(self):
        # (m-1) R sqrt(R^2 - delta^2) < r^2
        assert window("distance", math.sqrt(1 - 0.2**2), 3, UNIT).lin_indep_condition_holds
        assert not window("distance", 0.1, 30, UNIT).lin_indep_condition_holds

    def test_true_implies_positive_lower_bound(self):
        nr = NormRange(0.7, 1.5)
        for kind, theta, m in (
            ("distance", 1.2, 3), ("coherence", 0.2, 2), ("babel", 0.5, 6),
        ):
            if window(kind, theta, m, nr).lin_indep_condition_holds:
                assert bounds(kind, theta, m, nr)[0] > 0.0


class TestConditionNumberBound:
    def test_coherence_m2(self):
        assert window("coherence", 0.5, 2, UNIT).cond_number_bound == pytest.approx(3.0, abs=1e-15)

    def test_approximation_orthonormal(self):
        assert window("approximation", 1.0, 4, UNIT).cond_number_bound == pytest.approx(1.0, abs=1e-15)

    def test_babel(self):
        assert window("babel", 0.3, 5, UNIT).cond_number_bound == pytest.approx(13.0 / 7.0, rel=1e-14)

    def test_vacuous_denominator_gives_inf(self):
        assert window("coherence", 0.9, 10, UNIT).cond_number_bound == math.inf
        assert window("approximation", 0.0, 3, UNIT).cond_number_bound == math.inf

    def test_equals_upper_over_lower(self):
        nr = NormRange(0.9, 1.3)
        for kind, theta in (("distance", 1.0), ("approximation", 0.6), ("coherence", 0.15), ("babel", 0.4)):
            lo, hi = bounds(kind, theta, 4, nr)
            if lo > 0:
                assert window(kind, theta, 4, nr).cond_number_bound == pytest.approx(hi / lo, rel=1e-12)


class TestIsometryConstant:
    def test_unit_norm_closed_forms(self):
        # oracle: nu = (m-1)sqrt(1-d^2), 1-d^2, (m-1)g, g
        nu, s = isometry("coherence", 0.2, 4, UNIT)
        assert nu == pytest.approx(0.6, abs=1e-15)
        assert s == 1.0
        nu, s = isometry("approximation", 1.0, 3, UNIT)
        assert nu == 0.0 and s == 1.0
        nu, _ = isometry("distance", 0.6, 3, UNIT)
        assert nu == pytest.approx(2 * math.sqrt(1 - 0.36), rel=1e-14)
        nu, _ = isometry("babel", 0.35, 9, UNIT)
        assert nu == pytest.approx(0.35, abs=1e-15)

    def test_general_babel_formula(self):
        # oracle: (R^2 - r^2 + 2 gamma) / (R^2 + r^2)
        nu, s = isometry("babel", 0.1, 5, NormRange(0.8, 1.2))
        assert nu == pytest.approx(0.3, abs=1e-14)
        assert s == pytest.approx(1.0, abs=1e-15)  # bounds already symmetric about 1

    def test_general_closed_forms_match_bound_midpoints(self):
        nr = NormRange(1.0, 2.0)
        m = 4
        # distance: (R^2-r^2+2(m-1)R sqrt(R^2-delta^2))/(R^2+r^2)
        delta = 1.1
        nu, s = isometry("distance", delta, m, nr)
        expect = (2.0 - 1.0 + 2 * (m - 1) * math.sqrt(2.0) * math.sqrt(2.0 - delta**2)) / 3.0
        assert nu == pytest.approx(expect, rel=1e-13)
        # coherence: (R^2-r^2+2(m-1) g R^2)/(R^2+r^2)
        nu, _ = isometry("coherence", 0.15, m, nr)
        assert nu == pytest.approx((1.0 + 2 * 3 * 0.15 * 2.0) / 3.0, rel=1e-13)
        # approximation: 1 - delta^2/R^2
        nu, s = isometry("approximation", 0.9, m, nr)
        assert nu == pytest.approx(1.0 - 0.81 / 2.0, rel=1e-13)
        assert s == pytest.approx(math.sqrt(2.0), rel=1e-15)  # sqrt((u+l)/2) = R

    def test_rescale_factor_centers_bounds(self):
        nr = NormRange(1.0, 2.0)
        lo, hi = bounds("babel", 0.5, 5, nr)
        nu, s = isometry("babel", 0.5, 5, nr)
        assert lo / s**2 == pytest.approx(1.0 - nu, rel=1e-13)
        assert hi / s**2 == pytest.approx(1.0 + nu, rel=1e-13)


class TestSoundWindow:
    @pytest.mark.parametrize("c", [0.1, 0.5, 0.9, 0.99])
    def test_two_atom_closed_form(self, c):
        # oracle: spectrum {1-c, 1+c}, delta^2 = 1-c^2, lower bound (1-c^2)/2
        atoms = [[1.0, 0.0], [c, math.sqrt(1 - c * c)]]
        d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("approximation", 0.1), atoms)
        value = d.measure("approximation")
        lo, hi = bounds("approximation", value, 2, UNIT, sound=True)
        assert lo == pytest.approx((1 - c * c) / 2, rel=1e-12)
        spec = eigensolve(d.gram)
        assert spec.values[-1] >= lo - 1e-12
        assert spec.values[0] <= hi + 1e-12
        # sharpness: lambda_min / lower = 2/(1+c), within 1% of 1 at c = 0.99
        assert spec.values[-1] / lo == pytest.approx(2 / (1 + c), rel=1e-9)
        nu, s = isometry("approximation", value, 2, UNIT, sound=True)
        assert s == pytest.approx(1.0, abs=1e-15)  # m = 2: window symmetric about 1
        assert 1 - nu == pytest.approx(lo, rel=1e-12)

    def test_general_norm_range(self):
        # oracle: [delta^2/m, m R^2 - (m-1) delta^2/m] and nu, s from its ends
        nr = NormRange(0.5, 2.0)
        lo, hi = bounds("approximation", 0.6, 3, nr, sound=True)
        assert lo == pytest.approx(0.12, rel=1e-14)
        assert hi == pytest.approx(6.0 - 0.24, rel=1e-14)
        nu, s = isometry("approximation", 0.6, 3, nr, sound=True)
        assert nu == pytest.approx((hi - lo) / (hi + lo), rel=1e-14)
        assert s == pytest.approx(math.sqrt((hi + lo) / 2), rel=1e-14)

    @pytest.mark.parametrize("nr", [UNIT, NormRange(0.8, 1.3)], ids=["unit", "general"])
    def test_sound_kinds_equal_paper_window(self, nr):
        for kind in SOUND_KINDS:
            for value, m in ((0.2, 2), (0.5, 5), (0.9, 9)):
                assert bounds(kind, value, m, nr, sound=True) == bounds(kind, value, m, nr)
                assert isometry(kind, value, m, nr, sound=True) == isometry(kind, value, m, nr)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bounds("approximation", -0.1, 2, UNIT, sound=True)
        with pytest.raises(ValueError):
            bounds("approximation", 0.5, 0, UNIT, sound=True)


class TestVerifyIsometry:
    def test_orthonormal_total_isometry(self):
        d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("coherence", 1.0), np.eye(4))
        lo, hi, dev = verify_isometry(d, trials=500, rng_seed=1)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert dev == pytest.approx(0.0, abs=1e-12)

    def test_two_atom_extremes(self):
        c = 0.5
        atoms = [[1.0, 0.0, 0.0], [c, math.sqrt(1 - c * c), 0.0]]
        d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("coherence", 1.0), atoms)
        gram = d.gram
        # oracles: alpha=(1,-1) has ratio 1-c; (e1, e2) pair has deviation c
        alpha = np.array([1.0, -1.0])
        assert alpha @ gram @ alpha / (alpha @ alpha) == pytest.approx(1 - c, abs=1e-12)
        e1, e2 = np.eye(2)
        assert abs(e1 @ (gram - np.eye(2)) @ e2) == pytest.approx(c, abs=1e-12)
        lo, hi, dev = verify_isometry(d, trials=10_000, rng_seed=0)
        assert 1 - c - 1e-9 <= lo <= 1 - c + 0.01
        assert 1 + c - 0.01 <= hi <= 1 + c + 1e-9
        assert c - 0.01 <= dev <= c + 1e-9

    def test_rescale_factor_divides_ratios(self):
        d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("babel", 2.0), 2.0 * np.eye(3))
        lo, hi, dev = verify_isometry(d, trials=100, rng_seed=3, rescale_factor=2.0)
        assert lo == pytest.approx(1.0, abs=1e-12)  # gram = 4 I, rescaled to I
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert dev == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        d = build_gaussian_dict("coherence", 0.6, seed=4, n=60)
        assert verify_isometry(d, 300, rng_seed=9) == verify_isometry(d, 300, rng_seed=9)

    @pytest.mark.parametrize("rescale", [1.0, 0.8])
    def test_extremes_match_einsum_reference(self, rescale):
        d = build_gaussian_dict("coherence", 0.6, seed=4, n=60)
        gram, trials = d.gram, 500
        lo, hi, dev = verify_isometry(d, trials, rng_seed=9, rescale_factor=rescale)
        rng = np.random.default_rng(9)
        a, a1, a2 = (rng.standard_normal((trials, d.m)) for _ in range(3))
        ratios = np.einsum("ti,ij,tj->t", a, gram, a) / np.sum(a * a, axis=1) / rescale**2
        norms = np.linalg.norm(a1, axis=1) * np.linalg.norm(a2, axis=1)
        ip_kernel = np.einsum("ti,ij,tj->t", a1, gram, a2) / norms / rescale**2
        dev_ref = np.abs(ip_kernel - np.sum(a1 * a2, axis=1) / norms).max()
        np.testing.assert_allclose([lo, hi], [ratios.min(), ratios.max()], rtol=1e-12)
        np.testing.assert_allclose(dev, dev_ref, rtol=1e-12, atol=1e-14)

    def test_empty_rejected(self):
        d = Dictionary(Kernel.gaussian(1.0), CriterionConfig("coherence", 0.5))
        with pytest.raises(ValueError):
            verify_isometry(d, trials=10)



class TestContainmentProperties:
    @pytest.mark.parametrize("kind,threshold,seed", [
        ("distance", 0.5, 0), ("distance", 0.9, 1),
        ("approximation", 0.4, 2), ("approximation", 0.7, 3),
        ("coherence", 0.3, 4), ("coherence", 0.8, 5),
        ("babel", 0.6, 6), ("babel", 1.5, 7),
    ])
    def test_sound_bounds_contain_spectrum(self, kind, threshold, seed):
        d = build_gaussian_dict(kind, threshold, seed, sigma=0.8, max_atoms=50)
        assert d.m >= 2
        spec = eigensolve(d.gram)
        nr = NormRange(1.0, 1.0)
        for check_kind in KINDS:
            value = d.measure(check_kind)
            bs = window(check_kind, value, d.m, nr, sound=True)
            assert bs.sound
            assert spec.values[-1] >= bs.lower - 1e-9, check_kind
            assert spec.values[0] <= bs.upper + 1e-9, check_kind
            # the sound approximation window's bound is u/l, not the paper's 2R^2/delta^2 - 1
            bound = bs.cond_number_bound
            if math.isfinite(bound) and spec.values[-1] > 0:
                assert spec.values[0] / spec.values[-1] <= bound * (1 + 1e-9), check_kind

    def test_approximation_window_is_not_a_bound(self, tmp_path, capsys):
        # two atoms of norm s with correlation c: spectrum s^2 {1-c, 1+c} vs
        # window s^2 [1-c^2, 1+c^2]; the report must detect the escape at
        # any scale, also where it (s^2/4, here 2^-34) is far below 1e-9.
        # Far smaller atoms leave the approximation measure unavailable: its
        # Cholesky pivots fall below the absolute PIVOT_FLOOR
        for scale in (1.0, 2.0**-16):
            c, s_sq = 0.5, scale * scale
            atoms = [[scale, 0.0], [scale * c, scale * math.sqrt(1 - c * c)]]
            d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("approximation", 0.1 * scale), atoms)
            value = d.measure("approximation")
            assert value == pytest.approx(scale * math.sqrt(1 - c * c), rel=1e-12)
            lo, hi = bounds("approximation", value, 2, NormRange(s_sq, s_sq))
            spec = eigensolve(d.gram)
            assert spec.values[-1] < lo - 1e-3 * s_sq  # escapes by a wide margin
            assert spec.values[0] > hi + 1e-3 * s_sq
            report = spectral_report(d)
            names = {v.name for v in report.violations}
            assert names == {"approximation:eigen_lower", "approximation:eigen_upper"}, scale
            assert not any(v.hard for v in report.violations)
            assert verification_exit_code(report) == 0, scale  # informational, not a failure
            # verify of the saved dictionary prints the same flags, and exits 0
            d.save(tmp_path / "escape.txt")
            assert main(["verify", "--dict", str(tmp_path / "escape.txt")]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert {line.split()[2] for line in lines if line.startswith("flag (informational): ")} == names
            assert not [line for line in lines if line.startswith("VIOLATION")]

    @pytest.mark.parametrize("seed", range(3))
    def test_rayleigh_sandwich(self, seed):
        d = build_gaussian_dict("coherence", 0.7, seed=seed + 20, n=80)
        spec = eigensolve(d.gram)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            alpha = rng.standard_normal(d.m)
            ratio = alpha @ d.gram @ alpha / (alpha @ alpha)
            assert spec.values[-1] - 1e-9 <= ratio <= spec.values[0] + 1e-9

    @pytest.mark.parametrize("kind,threshold,seed", [
        ("coherence", 0.2, 0), ("babel", 0.4, 1), ("distance", 0.95, 2), ("approximation", 0.5, 3),
    ])
    def test_lin_indep_certificate(self, kind, threshold, seed):
        d = build_gaussian_dict(kind, threshold, seed + 40, max_atoms=4)
        assert d.m >= 2
        nr = NormRange(1.0, 1.0)
        value = d.measure(kind)
        spec = eigensolve(d.gram)
        if window(kind, value, d.m, nr).lin_indep_condition_holds:
            assert spec.values[-1] > 1e-12
            rng = np.random.default_rng(seed)
            for _ in range(20):
                xi = rng.standard_normal(d.m)
                assert xi @ d.gram @ xi >= (spec.values[-1] - 1e-9) * (xi @ xi)

    def test_spectral_shift_eigenpairs(self):
        d = build_gaussian_dict("coherence", 0.6, seed=77, n=60)
        spec = eigensolve(d.gram)
        shifted = eigensolve(d.gram - np.eye(d.m))
        np.testing.assert_allclose(shifted.values, spec.values - 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(2))
    def test_quasi_isometry_containment_sound_kinds(self, seed):
        d = build_gaussian_dict("coherence", 0.5, seed=seed + 60, n=100)
        nr = NormRange(1.0, 1.0)
        for kind in SOUND_KINDS:
            value = d.measure(kind)
            nu, s = isometry(kind, value, d.m, nr)
            lo, hi, dev = verify_isometry(d, trials=2000, rng_seed=seed, rescale_factor=s)
            assert lo >= 1 - nu - 1e-9
            assert hi <= 1 + nu + 1e-9
            assert dev <= nu + 1e-9


class TestSpectralReport:
    def test_coherence_run_is_clean(self):
        d = build_gaussian_dict("coherence", 0.5, seed=2, n=150)
        report = spectral_report(d)
        assert [bs.measure_kind for bs in report.per_measure] == list(KINDS)
        assert verification_exit_code(report) == 0
        sound = {v.name for v in report.violations if v.name.split(":")[0] in SOUND_KINDS}
        assert not sound
        coh = report.per_measure[2]
        assert coh.measure_value <= 0.5 + 1e-12
        assert coh.lin_indep_condition_holds or d.m * 0.5 >= 1  # vacuous only for large m

    @pytest.mark.parametrize("scale", [1.0, 2.0**-20, 2.0**-40], ids=["unit", "small", "tiny"])
    def test_sound_window_escape_is_hard_at_any_scale(self, scale):
        # two orthogonal atoms of norm s, reported against a norm range that
        # overstates kappa(x, x) fourfold: the coherence and Babel windows
        # are [4 s^2, 4 s^2] while the spectrum is {s^2, s^2}
        d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("coherence", 0.5), [[scale, 0.0], [0.0, scale]])
        s_sq = scale * scale
        report = spectral_report(d, NormRange(4.0 * s_sq, 4.0 * s_sq))
        assert report.violations == [
            Violation("coherence:eigen_lower", 3.0 * s_sq, True),
            Violation("babel:eigen_lower", 3.0 * s_sq, True),
        ]
        assert verification_exit_code(report) == 3

    def test_gersgorin_slack_scales_with_the_kernel(self):
        # two linear atoms of norm 1e5 with correlation k/64: the spectrum
        # s^2 (1 -+ c) lies on the Gersgorin discs' boundary, which the
        # eigensolver misses by an ulp of K ~ 1e10 (at k = 43, 9.5e-7, past
        # an absolute slack of 1e-9)
        for k in range(1, 64):
            c = k / 64
            d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("coherence", 0.5),
                                      [[1e5, 0.0], [1e5 * c, 1e5 * math.sqrt(1.0 - c * c)]])
            report = spectral_report(d)
            assert not [v for v in report.violations if v.hard or v.name == "gersgorin"], k
            assert verification_exit_code(report) == 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [2.0**-16, 1.0, 2.0**20])
    def test_drift_slack_is_in_the_measure_units(self, kind, scale):
        # a drift of half the slack passes and one of twice the slack is
        # flagged at every scale; the slack is 1e-9 in the measure's units:
        # R for delta, R^2 for the Babel gamma, 1 for the coherence (at
        # smaller scales the approximation measure's pivots fall below the
        # absolute PIVOT_FLOOR)
        atoms = [[scale, 0.0], [0.5 * scale, 0.75 * scale]]
        value = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("coherence", 1.0), atoms).measure(kind)
        units = {"distance": scale, "approximation": scale, "coherence": 1.0, "babel": scale * scale}[kind]
        sign = 1.0 if kind in ("distance", "approximation") else -1.0
        for factor, flagged in ((0.5, False), (2.0, True)):
            d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig(kind, value + sign * factor * 1e-9 * units), atoms)
            names = [v.name for v in spectral_report(d).violations]
            assert (f"{kind}:admission_threshold" in names) == flagged, (factor, names)

    def test_spectrum_is_eigensolve(self):
        d = build_gaussian_dict("coherence", 0.9, seed=5, n=300, spread=2.0)
        assert spectral_report(d).spectrum.values.tobytes() == eigensolve(d.gram).values.tobytes()

    def test_babel_drift_is_flag_only(self):
        rng = np.random.default_rng(8)
        d = Dictionary(Kernel.gaussian(1.0), CriterionConfig("babel", 0.8))
        for x in rng.uniform(-4, 4, size=(400, 2)):
            d.admit(x)
        report = spectral_report(d)
        if d.measure("babel") > 0.8 + 1e-9:
            assert Violation("babel:admission_threshold", d.measure("babel") - 0.8, False) in report.violations
        assert verification_exit_code(report) == 0

    def test_duplicate_direction_dictionary_vacuous_not_violated(self):
        d = Dictionary.from_atoms(
            Kernel.linear(), CriterionConfig("coherence", 1.0), [[1.0, 0.0], [2.0, 0.0]]
        )
        report = spectral_report(d)
        coh = report.per_measure[2]
        assert coh.measure_value == pytest.approx(1.0, abs=1e-12)
        assert not coh.lin_indep_condition_holds
        assert coh.cond_number_bound == math.inf
        assert report.spectrum.cond == math.inf
        assert verification_exit_code(report) == 0
        # approximation measure unavailable (singular sub-gram is fine here:
        # removing either atom leaves a 1x1 system) -> row may be nan or real
        csv = report.to_csv()
        assert csv.startswith("kind,measure,lower,upper,lambda_min,lambda_max,cond,cond_bound,nu,")

    def test_single_atom_report(self):
        d = build_gaussian_dict("coherence", 0.5, seed=3, n=1)
        assert d.m == 1
        report = spectral_report(d)
        by_kind = {bs.measure_kind: bs for bs in report.per_measure}
        assert math.isnan(by_kind["coherence"].measure_value)
        # an unavailable measure's NaN rescale factor gives NaN extremes
        assert all(math.isnan(v) for v in report.isometry_extremes(by_kind["coherence"]))
        assert by_kind["babel"].measure_value == 0.0
        assert verification_exit_code(report) == 0

    def test_csv_schema_and_round_trip(self):
        d = build_gaussian_dict("coherence", 0.5, seed=2, n=60)
        report = spectral_report(d)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == (
            "kind,measure,lower,upper,lambda_min,lambda_max,cond,cond_bound,nu,"
            "worst_ratio_low,worst_ratio_high,worst_ip_dev,violated"
        )
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] in KINDS
            for value in fields[1:-1]:
                float(value)  # parses (nan/inf included)
            assert fields[-1] in ("0", "1")

    @pytest.mark.parametrize("kernel, atoms, expected", [
        (Kernel.gaussian(2.0), [[0.0, 0.0], [1.0, 3.0]], (1.0, 1.0)),
        (Kernel.linear(), [[1.0, 0.0], [0.0, 2.0]], (1.0, 4.0)),
        (Kernel.polynomial(2, 1.0), [[0.0, 0.0], [1.0, 1.0]], (1.0, 9.0)),  # (0 + 1)^2, (2 + 1)^2
    ], ids=["gaussian", "linear", "polynomial"])
    def test_default_norm_range_is_the_gram_diagonal_extremes(self, kernel, atoms, expected):
        grown = Dictionary(kernel, CriterionConfig("babel", 100.0))
        for x in atoms:
            assert grown.admit(x)
        for d in (grown, Dictionary.from_text(grown.to_text())):
            nr = spectral_report(d).norm
            assert (nr.r_sq, nr.R_sq) == expected == (np.diag(d.gram).min(), np.diag(d.gram).max())

    def test_empty_dictionary_rejected(self):
        d = Dictionary(Kernel.gaussian(1.0), CriterionConfig("coherence", 0.5))
        with pytest.raises(ValueError):
            spectral_report(d)

    @pytest.mark.parametrize("case", ["gaussian", "rescaled", "low_skewed"])
    def test_isometry_extremes_are_exact(self, case):
        if case == "gaussian":
            d = build_gaussian_dict("coherence", 0.5, seed=2, n=150)
        elif case == "rescaled":  # empirical norm range: rescale factors differ from 1
            atoms = np.random.default_rng(5).standard_normal((6, 9))
            d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("babel", 5.0), atoms)
        else:  # unit atoms at 120 degrees, lifted: spectrum {0.27, 1.365, 1.365}, 1 - lambda_min wins
            angles = 2 * np.pi * np.arange(3) / 3
            atoms = np.column_stack([0.954 * np.cos(angles), 0.954 * np.sin(angles), np.full(3, 0.3)])
            atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
            d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("babel", 1.0), atoms)
        report = spectral_report(d)
        lam = np.linalg.eigvalsh(d.gram)
        rows = {line.split(",")[0]: line.split(",") for line in report.to_csv().split("\n")[1:-1]}
        for bs in report.per_measure:
            s_sq = bs.rescale_factor**2
            lo, hi, dev = report.isometry_extremes(bs)
            assert lo == pytest.approx(lam[0] / s_sq, rel=1e-12)
            assert hi == pytest.approx(lam[-1] / s_sq, rel=1e-12)
            assert dev == pytest.approx(np.linalg.norm(d.gram / s_sq - np.eye(d.m), 2), rel=1e-12)
            # worst_ratio_low, worst_ratio_high, worst_ip_dev
            assert [float(v) for v in rows[bs.measure_kind][9:12]] == [lo, hi, dev]

    def test_sampled_extremes_fall_inside_exact(self):
        d = build_gaussian_dict("coherence", 0.5, seed=2, n=150)
        report = spectral_report(d)
        for bs in report.per_measure:
            lo, hi, dev = report.isometry_extremes(bs)
            s_lo, s_hi, s_dev = verify_isometry(d, trials=10_000, rescale_factor=bs.rescale_factor)
            assert lo - 1e-9 <= s_lo <= s_hi <= hi + 1e-9
            assert s_dev <= dev + 1e-9

    @pytest.mark.parametrize("family", ["gaussian", "linear"])
    def test_nearly_orthogonal_approximation_row_is_finite(self, family):
        if family == "gaussian":
            # grid spacing 0.1 at sigma 0.0165: correlations about 1e-8
            grid = np.linspace(0.0, 0.4, 5)
            atoms = np.array([[u, v] for u in grid for v in grid])
            d = Dictionary.from_atoms(Kernel.gaussian(0.0165), CriterionConfig("coherence", 0.5), atoms)
        else:
            # orthogonal atoms: the measured delta^2 = 1/(1/0.84) rounds one ulp past R^2
            atoms = math.sqrt(0.84) * np.eye(3)
            d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("coherence", 0.5), atoms)
        report = spectral_report(d)
        approx = report.per_measure[1]
        assert approx.measure_value**2 == pytest.approx(report.norm.R_sq, rel=1e-12)
        for value in (approx.measure_value, approx.lower, approx.upper, approx.isometry_nu):
            assert math.isfinite(value)
