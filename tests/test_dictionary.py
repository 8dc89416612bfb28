import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cholesky_views import gram_inverse, lower
from sparsekaf import (
    CRITERION_KINDS,
    ConfigError,
    CriterionConfig,
    Dictionary,
    Kernel,
    LearnerConfig,
    ModelState,
    NumericalError,
    build_config,
    harness,
    kernel_vector,
    spectral_report,
    step,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def gaussian_dict(threshold=0.5, kind="coherence", sigma=1.0, max_atoms=None):
    return Dictionary(Kernel.gaussian(sigma), CriterionConfig(kind, threshold, max_atoms=max_atoms))


def linear_dict(atoms, kind="coherence", threshold=0.5):
    return Dictionary.from_atoms(Kernel.linear(), CriterionConfig(kind, threshold), atoms)


def kernels():
    """Kernels of all three families; polynomial degrees drawn as ints and as integral floats."""
    degrees = st.integers(1, 5).flatmap(lambda n: st.sampled_from([n, float(n)]))
    return st.one_of(
        st.just(Kernel.linear()),
        st.builds(Kernel.polynomial, degrees, st.floats(0.0, 10.0)),
        st.builds(Kernel.gaussian, st.floats(1e-3, 1e3)),
    )


def criteria():
    """Criteria of every kind, without a cap or with one drawn as an int or an integral float."""
    caps = st.one_of(st.none(), st.integers(1, 50), st.integers(1, 50).map(float))
    return st.sampled_from(CRITERION_KINDS).flatmap(lambda kind: st.builds(
        CriterionConfig, st.just(kind), st.floats(1e-3, 1.0 if kind == "coherence" else 10.0), max_atoms=caps))


class TestCriterionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CriterionConfig("distance", 0.0)
        with pytest.raises(ValueError):
            CriterionConfig("coherence", 1.5)
        with pytest.raises(ValueError):
            CriterionConfig("coherence", 0.0)
        with pytest.raises(ValueError):
            CriterionConfig("babel", -0.1)
        with pytest.raises(ValueError):
            CriterionConfig("novelty", 0.5)
        with pytest.raises(ValueError):
            CriterionConfig("babel", 0.5, max_atoms=0)
        assert CriterionConfig("coherence", 1.0).threshold == 1.0

    def test_integral_cap_is_stored_as_int(self):
        # dictionary.txt says max_atoms=5, as for an int cap
        crit = CriterionConfig("coherence", 0.9, max_atoms=5.0)
        assert type(crit.max_atoms) is int and crit.max_atoms == 5
        text = Dictionary.from_atoms(Kernel.gaussian(1.0), crit, [[0.0], [3.0]]).to_text()
        assert "criterion coherence threshold=0.9 max_atoms=5\n" in text
        assert Dictionary.from_text(text).criterion == crit

    @pytest.mark.parametrize("cap", [2.5, math.inf, math.nan])
    def test_non_integral_cap_refused(self, cap):
        with pytest.raises(ValueError, match="max_atoms must be a positive integer"):
            CriterionConfig("coherence", 0.9, max_atoms=cap)


class TestAdmit:
    def test_empty_always_accepts(self):
        d = gaussian_dict()
        assert d.admit([3.0, -1.0])
        assert d.m == 1

    def test_duplicate_atom_rejected(self):
        d = gaussian_dict(threshold=0.5)
        d.admit([0.0, 0.0])
        assert not d.admit([0.0, 0.0])
        assert d.m == 1

    def test_duplicate_needs_every_coordinate_of_one_atom(self):
        # a Babel test with large gamma passes anything but exact copies
        d = gaussian_dict(kind="babel", threshold=10.0)
        assert d.admit([0.0, 0.0, 0.0])
        assert d.admit([1.0, 1.0, 1.0])
        assert d.admit([0.0, 2.0, 2.0])  # first coordinate only
        assert d.admit([0.0, 1.0, 0.0])  # every coordinate, but not of one atom
        assert not d.admit([1.0, 1.0, 1.0])
        assert d.m == 4

    @pytest.mark.parametrize("kind", ["distance", "coherence"])
    def test_duplicate_rejection_precedes_criterion_errors(self, kind):
        # with a zero atom every distance and coherence test raises, but an
        # exact copy of an atom is rejected before the test runs
        d = linear_dict([[0.0, 0.0], [1.0, 0.0]], kind=kind)
        with pytest.raises(NumericalError, match="zero self-similarity"):
            d.admit([0.0, 1.0])
        assert not d.admit([0.0, 0.0])
        assert not d.admit([1.0, 0.0])
        assert d.m == 2

    def test_duplicate_scan_runs_only_when_the_test_admits_or_raises(self, monkeypatch):
        scanned = []
        contains = Dictionary._contains

        def counting(self, x):
            scanned.append(x.tolist())
            return contains(self, x)

        monkeypatch.setattr(Dictionary, "_contains", counting)
        d = gaussian_dict(threshold=0.5)
        d.admit([0.0, 0.0])
        assert not d.admit([0.1, 0.0])  # the criterion rejects it: no scan
        assert not d.admit([0.0, 0.0])  # a copy is rejected by the criterion too
        assert scanned == []
        assert d.admit([2.0, 0.0])
        assert scanned == [[2.0, 0.0]]
        # the test raises on a zero atom: a copy is rejected, anything else re-raises
        scanned.clear()
        z = linear_dict([[0.0, 0.0], [1.0, 0.0]], kind="distance")
        assert not z.admit([1.0, 0.0])
        with pytest.raises(NumericalError, match="zero self-similarity"):
            z.admit([0.0, 1.0])
        assert scanned == [[1.0, 0.0], [0.0, 1.0]]

    def test_coherence_accepts_distant_point(self):
        # oracle: kappa((0,0),(2,0)) = exp(-2) ~ 0.1353 <= 0.5
        d = gaussian_dict(threshold=0.5)
        d.admit([0.0, 0.0])
        assert math.exp(-2.0) <= 0.5
        assert d.admit([2.0, 0.0])
        assert d.m == 2

    def test_coherence_rejects_close_point(self):
        d = gaussian_dict(threshold=0.5)
        d.admit([0.0, 0.0])
        assert not d.admit([0.1, 0.0])

    def test_max_atoms_cap(self):
        d = gaussian_dict(threshold=0.9, max_atoms=1)
        d.admit([0.0, 0.0])
        assert not d.admit([50.0, 0.0])
        assert d.m == 1

    def test_dimension_mismatch(self):
        d = gaussian_dict()
        d.admit([0.0, 0.0])
        with pytest.raises(ValueError, match="mismatch"):
            d.admit([1.0, 2.0, 3.0])

    def test_non_finite_candidate(self):
        d = gaussian_dict()
        with pytest.raises(ValueError, match="non-finite"):
            d.admit([np.inf, 0.0])

    def test_near_singular_admission_raises(self):
        # coherence gamma=1 accepts anything, but a candidate this close to
        # an existing atom drives the Schur pivot under the floor
        d = gaussian_dict(threshold=1.0)
        for x in ([0.0, 0.0], [2.0, 0.0], [0.0, 2.5]):
            d.admit(x)
        before = (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes())
        with pytest.raises(NumericalError, match="near-singular"):
            d.admit([1e-9, 0.0])
        assert (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes()) == before

    # numpy warns as the kernel values overflow
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("first", [None, [1.0, 0.0]], ids=["empty", "one-atom"])
    def test_overflowing_kernel_value_raises_bit_identical(self, first):
        # kappa(x, x) = 1e400 is inf: into an empty dictionary the pivot is
        # inf, and after the atom [1, 0] it is inf - (1e200)^2, NaN; each was
        # stored as L's new diagonal entry
        kind = "approximation" if first is None else "coherence"
        d = Dictionary(Kernel.linear(), CriterionConfig(kind, 0.1))
        if first is not None:
            d.admit(first)
        buffers = (d._atoms_buf, d._diag_buf, d._packed)
        before = [b.tobytes() for b in buffers]
        with pytest.raises(NumericalError, match=r"Schur pivot (inf|nan): a kernel value past float64's range"):
            d.admit([1e200, 0.0])
        assert (d._atoms_buf, d._diag_buf, d._packed) == buffers and [b.tobytes() for b in buffers] == before
        assert d.m == (first is not None)

    def test_rejection_is_bit_identical(self):
        d = gaussian_dict(threshold=0.5)
        for x in ([0.0, 0.0], [2.0, 0.0], [0.0, 2.5]):
            d.admit(x)
        atoms, gram, inv = d.atoms.copy(), d.gram.copy(), gram_inverse(d).copy()
        assert not d.admit([0.05, 0.0])
        assert d.atoms.tobytes() == atoms.tobytes()
        assert d.gram.tobytes() == gram.tobytes()
        assert gram_inverse(d).tobytes() == inv.tobytes()


class TestDistanceTest:
    def test_existing_atom_fails(self):
        d = gaussian_dict(kind="distance", threshold=0.1)
        d.admit([1.0, 1.0])
        assert not d.test_distance([1.0, 1.0])

    def test_half_correlation(self):
        # oracle: kappa = exp(-d^2/2) = 1/2 at d^2 = 2 ln 2, statistic 1 - 1/4
        d = gaussian_dict(kind="distance", threshold=math.sqrt(0.5))
        d.admit([0.0, 0.0])
        x = [math.sqrt(2.0 * math.log(2.0)), 0.0]
        assert d.test_distance(x)  # 0.75 >= 0.5
        assert not d.test_distance(x, threshold=math.sqrt(0.76))

    def test_orthogonal_candidate_statistic_is_self_similarity(self):
        d = linear_dict([E1], kind="distance", threshold=1.0)
        assert d.test_distance(0.8 * E2, threshold=0.8)
        assert not d.test_distance(0.8 * E2, threshold=0.81)

    def test_zero_self_norm_atom(self):
        d = linear_dict([[0.0, 0.0, 0.0]], kind="distance", threshold=0.5)
        with pytest.raises(NumericalError, match="self-similarity"):
            d.test_distance(E1)


class TestApproximationTest:
    def test_existing_atom_fails(self):
        d = gaussian_dict(kind="approximation", threshold=0.1)
        d.admit([0.0, 0.0])
        d.admit([3.0, 0.0])
        assert not d.test_approximation([0.0, 0.0])

    def test_single_atom_residual(self):
        # oracle: explicit 1x1 inverse, residual 1 - 0.5^2 = 0.75
        d = gaussian_dict(kind="approximation", threshold=0.5)
        d.admit([0.0, 0.0])
        x = [math.sqrt(2.0 * math.log(2.0)), 0.0]
        assert d.project(x).residual_sq == pytest.approx(0.75, abs=1e-12)
        assert d.test_approximation(x, threshold=math.sqrt(0.75) - 1e-9)
        assert not d.test_approximation(x, threshold=0.9)

    def test_two_orthonormal_atoms(self):
        # oracle: gram = I, residual 1 - 0.6^2 = 0.64
        d = linear_dict([E1, E2], kind="approximation", threshold=0.5)
        x = np.array([0.6, 0.0, 0.8])
        assert d.project(x).residual_sq == pytest.approx(0.64, abs=1e-12)
        assert d.test_approximation(x)
        assert not d.test_approximation(x, threshold=0.81)


class TestCoherenceTest:
    def test_existing_atom_fails(self):
        d = gaussian_dict(threshold=0.99)
        d.admit([1.0, 2.0])
        assert not d.test_coherence([1.0, 2.0])

    def test_gamma_one_always_passes(self):
        d = gaussian_dict(threshold=1.0)
        d.admit([0.0, 0.0])
        assert d.test_coherence([0.0, 1e-3])

    def test_cosine_oracle(self):
        # oracle: cos = exp(-1/2) ~ 0.6065
        d = gaussian_dict(threshold=0.7)
        d.admit([0.0, 0.0])
        assert d.test_coherence([1.0, 0.0])
        assert not d.test_coherence([1.0, 0.0], threshold=0.6)

    def test_zero_self_similarity_candidate(self):
        d = linear_dict([E1])
        with pytest.raises(NumericalError, match="self-similarity"):
            d.test_coherence([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("kind", ["coherence", "babel"])
    def test_anticorrelated_candidate_counts_by_magnitude(self, kind):
        # the Gaussian row is never negative, the linear and polynomial rows can be
        d = linear_dict([E1, E2], kind=kind, threshold=0.5)
        assert not d.admit([-1.0, 0.0, 0.1])
        assert d.admit([-0.1, 0.0, 1.0])


class TestBabelTest:
    def test_orthogonal_candidate(self):
        d = linear_dict([E1, E2], kind="babel", threshold=0.01)
        assert d.test_babel(E3)

    def test_duplicate_of_atom_fails_small_gamma(self):
        d = gaussian_dict(kind="babel", threshold=0.9)
        d.admit([0.0, 0.0])
        assert not d.test_babel([0.0, 0.0])

    def test_hand_sum(self):
        # oracle: 0.3 + 0.4 = 0.7 > 0.65
        d = linear_dict([E1, E2], kind="babel", threshold=0.65)
        x = np.array([0.3, 0.4, 0.5])
        assert not d.test_babel(x)
        assert d.test_babel(x, threshold=0.7)


class TestDefaultThreshold:
    def test_only_the_criterion_kind_reads_the_dictionary_threshold(self):
        # a coherence gamma of 0.5 is neither a Babel gamma nor a delta, so
        # the other tests need their own threshold
        d = gaussian_dict(threshold=0.5)
        d.admit([0.0])
        for kind in ("distance", "approximation", "babel"):
            with pytest.raises(ValueError, match=f"^{kind} test needs a threshold: the dictionary's threshold is for coherence$"):
                getattr(d, f"test_{kind}")([3.0])
            assert getattr(d, f"test_{kind}")([3.0], threshold=0.5)
        assert d.test_coherence([3.0])  # exp(-4.5) <= 0.5


class TestMeasure:
    def test_two_unit_atoms_half_correlation(self):
        # closed 2x2 oracles; for m=2 distance and approximation coincide
        atoms = [E1, np.array([0.5, math.sqrt(0.75), 0.0])]
        d = linear_dict(atoms)
        assert d.measure("coherence") == pytest.approx(0.5, abs=1e-12)
        assert d.measure("babel") == pytest.approx(0.5, abs=1e-12)
        assert d.measure("distance") == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert d.measure("approximation") == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_orthonormal(self):
        d = linear_dict([E1, E2, E3])
        assert d.measure("coherence") == 0.0
        assert d.measure("babel") == 0.0
        assert d.measure("approximation") == pytest.approx(1.0, abs=1e-12)
        assert d.measure("distance") == pytest.approx(1.0, abs=1e-12)

    def test_repeated_direction_coherence_one(self):
        d = linear_dict([[1.0, 0.0], [2.0, 0.0]])
        assert d.measure("coherence") == pytest.approx(1.0, abs=1e-12)

    def test_babel_single_atom_is_zero(self):
        d = gaussian_dict()
        d.admit([0.0])
        assert d.measure("babel") == 0.0

    def test_min_size(self):
        d = gaussian_dict()
        d.admit([0.0])
        for kind in ("distance", "approximation", "coherence"):
            with pytest.raises(ValueError, match="two atoms"):
                d.measure(kind)
        with pytest.raises(ValueError):
            d.measure("unknown")

    @pytest.mark.parametrize("kind,threshold", [
        ("distance", 0.6), ("approximation", 0.4), ("coherence", 0.5), ("babel", 0.8),
    ])
    def test_approximation_matches_per_atom_residuals(self, kind, threshold):
        # reference: reconstruct each atom from the others, one solve per atom
        rng = np.random.default_rng(31)
        d = gaussian_dict(kind=kind, threshold=threshold, sigma=0.8, max_atoms=60)
        for x in rng.uniform(-3, 3, size=(300, 2)):
            d.admit(x)
        gram = d.gram
        residuals = []
        for i in range(d.m):
            keep = np.arange(d.m) != i
            coef = np.linalg.solve(gram[np.ix_(keep, keep)], gram[keep, i])
            residuals.append(gram[i, i] - gram[keep, i] @ coef)
        assert d.m >= 10
        assert d.measure("approximation") == pytest.approx(math.sqrt(min(residuals)), rel=1e-10)

    @pytest.mark.parametrize("kernel, shape, kind, threshold, target_m", [
        (Kernel.gaussian(0.3), (300, 2), "coherence", 0.5, 20),
        (Kernel.gaussian(0.5), (400, 3), "approximation", 0.3, 60),
        (Kernel.polynomial(3, 0.5), (200, 3), "approximation", 0.2, 16),
        (Kernel.gaussian(0.4), (5000, 4), "coherence", 0.95, 800),
    ], ids=["gaussian-20", "gaussian-60", "polynomial-16", "gaussian-800"])
    def test_approximation_matches_a_dense_inverse(self, kernel, shape, kind, threshold, target_m):
        # reference: numpy's dense inverse of the Gram matrix, on grown and
        # reloaded dictionaries whose Gram matrices are well conditioned
        d = Dictionary(kernel, CriterionConfig(kind, threshold, max_atoms=target_m))
        for x in np.random.default_rng(3).uniform(-1, 1, size=shape):
            d.admit(x)
        assert d.m == target_m and np.linalg.cond(d.gram) < 1e6
        expected = math.sqrt(np.min(1.0 / np.diag(np.linalg.inv(d.gram))))
        for built in (d, Dictionary.from_text(d.to_text())):
            assert built.measure("approximation") == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kernel, dim", [
        (Kernel.gaussian(0.3), 4), (Kernel.polynomial(3, 0.5), 40), (Kernel.linear(), 1200),
    ], ids=["gaussian", "polynomial", "linear"])
    def test_distance_and_coherence_in_place(self, kernel, dim):
        # bit-identical to the masked off-diagonal reductions, in at most one
        # (distance) or two (coherence) m x m temporaries beyond the Gram matrix
        m = 1000
        atoms = np.random.default_rng(7).uniform(-1, 1, size=(m, dim))
        d = Dictionary.from_atoms(kernel, CriterionConfig("babel", 1e9), atoms)
        gram, diag = d.gram, np.diag(d.gram)
        off = ~np.eye(m, dtype=bool)
        worst = float(np.min((diag[:, None] - gram**2 / diag[None, :])[off]))
        expected = {
            "distance": math.sqrt(max(math.nextafter(worst, -math.inf), 0.0)),
            "coherence": float(np.max((np.abs(gram) / np.sqrt(np.outer(diag, diag)))[off])),
        }
        for kind, bound in (("distance", 1.2), ("coherence", 2.2)):
            tracemalloc.start()
            try:
                value = d.measure(kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert value == expected[kind], kind
            assert peak < bound * m * m * 8, (kind, peak / (m * m * 8))

    def test_near_singular_file_has_no_approximation_measure(self):
        # the second atom's replayed pivot is about 1e-14: the Gram matrix
        # still has a Cholesky factor (cond 1.2e15), but admission would
        # have refused the atom, and so does the replay
        d = Dictionary.from_text(
            "kernel gaussian sigma=1.0\ncriterion coherence threshold=1.0\natom 0.0\natom 1e-07\natom 1.0\n"
        )
        assert d.measure("coherence") == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericalError, match="near-singular gram matrix"):
            d.measure("approximation")
        rows = {bs.measure_kind: bs for bs in spectral_report(d).per_measure}
        assert math.isnan(rows["approximation"].measure_value) and rows["coherence"].measure_value > 0.99

    def test_approximation_measure_singular_subgram(self):
        # three copies of a direction: removing one atom leaves a singular pair
        d = linear_dict([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(NumericalError, match="singular"):
            d.measure("approximation")


class TestProject:
    def test_onto_own_atom(self):
        d = gaussian_dict(threshold=0.5)
        d.admit([0.0, 0.0])
        d.admit([3.0, 0.0])
        res = d.project([0.0, 0.0])
        np.testing.assert_allclose(res.coefficients, [1.0, 0.0], atol=1e-12)
        assert res.residual_sq == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_coefficients(self):
        d = linear_dict([E1, E2])
        res = d.project([0.6, 0.8, 0.0])
        np.testing.assert_allclose(res.coefficients, [0.6, 0.8], atol=1e-12)
        assert res.residual_sq == pytest.approx(0.0, abs=1e-12)

    def test_single_atom_scalar_division(self):
        # oracle: xi = c / 1, residual 1 - c^2 with c = 0.5
        d = gaussian_dict()
        d.admit([0.0, 0.0])
        x = [math.sqrt(2.0 * math.log(2.0)), 0.0]
        res = d.project(x)
        np.testing.assert_allclose(res.coefficients, [0.5], atol=1e-12)
        assert res.residual_sq == pytest.approx(0.75, abs=1e-12)

    def test_residual_clamped_nonnegative(self):
        d = gaussian_dict(threshold=0.9)
        for x in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
            d.admit(x)
        assert d.project([0.0, 0.0]).residual_sq >= 0.0

    def test_projection_is_reconstruction_minimizer(self):
        # oracle: ||kappa(x,.) - sum xi'_j kappa_j||^2 expanded through the gram
        rng = np.random.default_rng(11)
        d = gaussian_dict(threshold=0.8, sigma=1.0)
        for x in rng.uniform(-2, 2, size=(12, 2)):
            d.admit(x)
        assert d.m >= 3
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            res = d.project(x)
            kvec = kernel_vector(d.kernel, d.atoms, x)
            kxx = d.kernel.self_similarity(x)
            for _ in range(100):
                xi_p = res.coefficients + 0.1 * rng.standard_normal(d.m)
                alt = kxx - 2.0 * xi_p @ kvec + xi_p @ d.gram @ xi_p
                assert res.residual_sq <= alt + 1e-12

    def test_z_is_the_forward_solve_behind_the_residual(self):
        rng = np.random.default_rng(12)
        d = gaussian_dict(threshold=0.8, sigma=1.0)
        for x in rng.uniform(-2, 2, size=(12, 2)):
            d.admit(x)
        factor = np.linalg.cholesky(d.gram)
        for x in rng.uniform(-2, 2, size=(5, 2)):
            res = d.project(x)
            np.testing.assert_allclose(factor @ res.z, kernel_vector(d.kernel, d.atoms, x), atol=1e-12)
            np.testing.assert_allclose(factor.T @ res.coefficients, res.z, atol=1e-12)
            assert res.residual_sq == max(d.kernel.self_similarity(x) - float(res.z @ res.z), 0.0)
            # the approximation test reads the same residual, bit for bit
            for delta in (math.sqrt(res.residual_sq), math.nextafter(math.sqrt(res.residual_sq), math.inf)):
                assert d.test_approximation(x, delta) == (res.residual_sq >= delta**2)


class TestIncrementalInverse:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fresh_inverse_after_long_runs(self, seed):
        rng = np.random.default_rng(seed)
        d = gaussian_dict(threshold=0.97, sigma=0.6)
        for x in rng.uniform(-4, 4, size=(400, 2)):
            if d.m >= 50:
                break
            d.admit(x)
        assert d.m >= 30
        eye_resid = np.linalg.norm(d.gram @ gram_inverse(d) - np.eye(d.m))
        assert eye_resid <= 1e-8 * d.m
        fresh = np.linalg.inv(d.gram)
        assert np.max(np.abs(gram_inverse(d) - fresh)) <= 1e-8

    def test_forced_refresh_keeps_consistency(self):
        # 80 admissions in 1-d, a long growth of the factor
        rng = np.random.default_rng(5)
        d = Dictionary(Kernel.gaussian(0.25), CriterionConfig("coherence", 0.9))
        for x in rng.uniform(-30, 30, size=(3000, 1)):
            if d.m >= 80:
                break
            d.admit(x)
        assert d.m >= 80
        eye_resid = np.linalg.norm(d.gram @ gram_inverse(d) - np.eye(d.m))
        assert eye_resid <= 1e-8 * d.m


class TestCholeskyFactor:
    def test_tiny_exact_pivot_is_admitted(self):
        # The 44th atom's exact pivot is tiny but 1300x above PIVOT_FLOOR; a
        # Schur-updated inverse had drifted enough to compute it as -2.1e-9
        # and raise a false "near-singular admission".
        x, _ = harness.synthesize("sinc1d", 3, 1500)
        d = Dictionary(Kernel.gaussian(0.3), CriterionConfig("distance", 0.3))
        for t in range(210):
            d.admit(x[t])
        assert d.m >= 44
        # reference: the same pivot from a Cholesky of the Gram matrix in
        # 60-digit arithmetic (mpmath)
        assert lower(d)[43, 43] ** 2 == pytest.approx(1.315e-9, rel=0.05)

    def test_invariants_at_grow_scale(self):
        rng = np.random.default_rng(0)
        d = Dictionary(Kernel.gaussian(0.4), CriterionConfig("coherence", 0.95))
        points = iter(rng.uniform(-1, 1, size=(5000, 4)))
        while d.m < 800:
            d.admit(next(points))
        factor, inv = lower(d), gram_inverse(d)
        assert inv.shape == (800, 800)
        assert np.array_equal(factor, np.tril(factor))
        assert np.max(np.abs(factor @ factor.T - d.gram)) <= 1e-12
        assert np.linalg.norm(d.gram @ inv - np.eye(800)) <= 1e-9
        assert np.array_equal(inv, inv.T)

    def test_admissions_fill_spare_capacity(self):
        # the atom, diagonal and factor buffers double together when full
        # instead of being reallocated per admission, and atoms views and
        # factor rows handed out earlier keep their values while later atoms
        # are written past them
        rng = np.random.default_rng(1)
        d = Dictionary(Kernel.gaussian(0.4), CriterionConfig("coherence", 0.95))
        points = iter(rng.uniform(-1, 1, size=(2000, 4)))
        bufs, reallocations, early = (None, None, None), 0, None
        while d.m < 100:
            d.admit(next(points))
            current = (d._atoms_buf, d._diag_buf, d._packed)
            grown = [new is not old for new, old in zip(current, bufs)]
            assert all(grown) or not any(grown)
            if grown[0]:
                bufs, reallocations = current, reallocations + 1
            assert d._diag_buf.shape[0] == d._atoms_buf.shape[0]
            assert d._packed.shape[0] == d._atoms_buf.shape[0] * (d._atoms_buf.shape[0] + 1) // 2
            if d.m == 10 and early is None:
                early = (d.atoms, d.atoms.copy(), lower(d))
        assert reallocations <= 5
        assert np.array_equal(early[0], early[1])
        assert np.array_equal(d.atoms[:10], early[1])
        assert np.array_equal(lower(d)[:10, :10], early[2])
        assert np.array_equal(d._diag_buf[: d.m], np.ones(d.m))

    def test_gram_read_mid_stream_is_extended_bit_for_bit(self):
        # gram is read first once before a doubling (m = 10, capacity 16) and
        # once just after one (m = 17, capacity 32); after every later
        # admission, past Kernel.gram's Gaussian blocks of 64 and 128 rows, it
        # stays bit-identical to Kernel.gram replaying the admissions from
        # scratch, and the array read first keeps its values
        for dim in (1, 4, 9):
            for first_read in (10, 17):
                rng = np.random.default_rng(dim)
                d = Dictionary(Kernel.gaussian(0.02 * dim), CriterionConfig("coherence", 0.9))
                points = iter(rng.uniform(-1, 1, size=(5000, dim)))
                while d.m < first_read:
                    d.admit(next(points))
                view = d.gram
                assert view.tobytes() == d.kernel.gram(d.atoms).tobytes()
                frozen = view.copy()
                while d.m < 140:
                    if d.admit(next(points)):
                        assert d.gram.tobytes() == d.kernel.gram(d.atoms).tobytes()
                assert view.tobytes() == frozen.tobytes()
                # each row left of the diagonal is the row its admission evaluated
                for i in range(1, d.m):
                    assert d.gram[i, :i].tobytes() == d.kernel.against(d.atoms[:i], d.atoms[i]).tobytes()

    @pytest.mark.parametrize("algo", ["lms_identity", "lms_gram", "nlms", "functional_sgd"])
    def test_streams_that_never_read_gram_allocate_no_dense_buffer(self, algo):
        # no step reads gram: growing past 512 atoms doubles the buffers to
        # 1024 rows, and nothing the size of a 1024 x 1024 Gram matrix may be
        # allocated on the way (the packed factor is about half of it)
        cap = 1024
        rng = np.random.default_rng(2)
        xs = rng.uniform(-1, 1, size=(3000, 4))
        ys = np.sin(np.pi * xs[:, 0]) * xs[:, 1]
        d = Dictionary(Kernel.gaussian(0.4), CriterionConfig("coherence", 0.95, max_atoms=520))
        cfg = LearnerConfig(algo, eta=0.5, eps=1e-6)
        state = ModelState.empty()
        tracemalloc.start()
        try:
            for x, y in zip(xs, ys):
                state, _ = step(state, d, x, y, cfg)
                if d.m == 520:
                    break
            largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.m == 520 and d._atoms_buf.shape[0] == cap
        assert largest < cap * cap * 8
        assert peak < cap * cap * 8


class TestCriterionSoundness:
    # distance and coherence: the defining inequality of the finished
    # dictionary is exact for unit-norm kernels
    @pytest.mark.parametrize("kind,threshold", [
        ("distance", 0.3), ("distance", 0.7), ("coherence", 0.3), ("coherence", 0.7),
    ])
    def test_measure_satisfies_threshold(self, kind, threshold):
        rng = np.random.default_rng(hash((kind, threshold)) % 2**32)
        d = gaussian_dict(kind=kind, threshold=threshold, sigma=0.8)
        for x in rng.uniform(-3, 3, size=(300, 2)):
            d.admit(x)
        assert d.m >= 2
        value = d.measure(kind)
        if kind == "distance":
            assert value >= threshold - 1e-12
        else:
            assert value <= threshold + 1e-12

    def test_approximation_admission_does_not_bound_final_measure(self):
        # Admission checks candidates against the atoms present at the time;
        # a later atom can shrink an earlier atom's reconstruction residual
        # below the threshold. Correlations (0.7, 0.707, 0.495) realized with
        # gaussian points: every admission passes delta^2 = 0.49, yet atom 1's
        # final residual is ~0.338.
        sigma = 1.0
        d12 = math.sqrt(2.0 * sigma**2 * math.log(1.0 / 0.7))
        d13 = math.sqrt(2.0 * sigma**2 * math.log(1.0 / 0.707))
        d23 = math.sqrt(2.0 * sigma**2 * math.log(1.0 / 0.495))
        x3x = (d13**2 + d12**2 - d23**2) / (2.0 * d12)
        points = [
            np.array([0.0, 0.0]),
            np.array([d12, 0.0]),
            np.array([x3x, math.sqrt(d13**2 - x3x**2)]),
        ]
        d = Dictionary(Kernel.gaussian(sigma), CriterionConfig("approximation", 0.7))
        assert d.admit(points[0])
        assert d.project(points[1]).residual_sq >= 0.49
        assert d.admit(points[1])
        assert d.project(points[2]).residual_sq >= 0.49
        assert d.admit(points[2])
        assert d.measure("approximation") ** 2 < 0.49 - 0.1

    def test_babel_measure_may_drift_past_threshold(self):
        rng = np.random.default_rng(123)
        d = gaussian_dict(kind="babel", threshold=0.8, sigma=1.0)
        for x in rng.uniform(-4, 4, size=(500, 2)):
            d.admit(x)
        assert d.m >= 3
        # not asserted <= threshold: the admission test controls candidates,
        # not earlier atoms' row sums; just confirm the measure is computable
        assert d.measure("babel") >= 0.0


class TestSerialization:
    def make(self):
        d = Dictionary(Kernel.gaussian(0.5), CriterionConfig("coherence", 0.5, max_atoms=20))
        rng = np.random.default_rng(9)
        for x in rng.uniform(-3, 3, size=(40, 2)):
            d.admit(x)
        return d

    def test_round_trip_preserves_gram(self, tmp_path):
        d = self.make()
        path = tmp_path / "dict.txt"
        d.save(path)
        d2 = Dictionary.load(path)
        assert np.array_equal(d.atoms, d2.atoms)
        assert np.array_equal(d.gram, d2.gram)  # stronger than the 1e-12 contract
        assert d2.kernel == d.kernel
        assert d2.criterion == d.criterion

    def test_round_trip_other_kernels(self):
        for kernel in (Kernel.linear(), Kernel.polynomial(3, 0.25)):
            d = Dictionary.from_atoms(kernel, CriterionConfig("babel", 1.5), np.eye(3))
            d2 = Dictionary.from_text(d.to_text())
            assert d2.kernel == kernel
            assert np.array_equal(d.gram, d2.gram)

    def test_round_trip_polynomial_multidimensional_bit_identical(self):
        # Kernel.gram replays admission: row i over the first i atoms only
        # (BLAS rounds a product over more rows differently) and the
        # diagonal as the scalar power admission stores. The Gram matrix is
        # ill-conditioned (a pivot near 3e-10), and dpptrf still rebuilds
        # the grown factor bit for bit.
        x, _ = harness.synthesize("narma2", 3, 1000)
        d = Dictionary(Kernel.polynomial(3, 0.5), CriterionConfig("babel", 3.0))
        for p in x:
            d.admit(p)
        d2 = Dictionary.from_text(d.to_text())
        assert d.m == 16 and x.shape[1] == 3
        assert np.array_equal(d.atoms, d2.atoms)
        assert np.array_equal(d.gram, d2.gram)
        assert d.measure("approximation") < 1e-4
        size = d.m * (d.m + 1) // 2
        assert d2._factor()[:size].tobytes() == d._factor()[:size].tobytes()

    # every generator, kernel and criterion; linear and polynomial
    # dictionaries are capped at their feature-space dimension, where more
    # atoms would make a singular Gram matrix
    @pytest.mark.parametrize("kind, threshold", [
        ("distance", 0.3), ("approximation", 0.1), ("coherence", 0.9), ("babel", 3.0),
    ])
    @pytest.mark.parametrize("kernel, cap", [
        (Kernel.gaussian(0.1), lambda dim: None),
        (Kernel.linear(), lambda dim: dim),
        (Kernel.polynomial(3, 0.5), lambda dim: math.comb(dim + 3, 3)),
    ], ids=["gaussian", "linear", "polynomial"])
    @pytest.mark.parametrize("data", harness.GENERATORS)
    def test_round_trip_preserves_factor_and_report(self, data, kernel, cap, kind, threshold):
        # the factor replayed from the file is the grown one bit for bit, so
        # verify of the saved dictionary writes run's spectral.csv
        dim = harness.synthesize(data, 1, 1)[0].shape[1]
        cfg = harness.ExperimentConfig(
            kernel, CriterionConfig(kind, threshold, max_atoms=cap(dim)), LearnerConfig("nlms", 0.5, 1e-6),
            data=data, seed=1, length=800,
        )
        record = harness.run_online(cfg)
        d = record.dictionary
        loaded = Dictionary.from_text(d.to_text())
        size = d.m * (d.m + 1) // 2
        assert loaded._factor()[:size].tobytes() == d._factor()[:size].tobytes()
        assert spectral_report(loaded).to_csv() == record.report.to_csv()

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            Dictionary.from_text("kernel gaussian sigma=1.0\nbogus record\n")
        with pytest.raises(ValueError, match="headers"):
            Dictionary.from_text("atom 1.0 2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            Dictionary.from_text(
                "kernel gaussian sigma=1.0\ncriterion coherence threshold=0.5\nkernel gaussian\n"
            )

    @pytest.mark.parametrize("text, lineno, match", [
        ("kernel linear sigma=abc\ncriterion coherence threshold=0.5\n", 1, "field sigma='abc': could not convert"),
        ("kernel linear\ncriterion coherence threshold=0.5\nkernel linear\n", 3, "second kernel record"),
        ("kernel linear\ncriterion babel threshold=0.5\ncriterion babel threshold=0.5\n", 3, "second criterion record"),
        ("kernel polynomial\ncriterion coherence threshold=0.5\n", 1, "missing field degree="),
        ("kernel polynomial degree=2\ncriterion coherence threshold=0.5\n", 1, "missing field offset="),
        ("kernel gaussian\ncriterion coherence threshold=0.5\n", 1, "missing field sigma="),
        ("kernel gaussian sigma=0.5 sigma=0.5\ncriterion coherence threshold=0.5\n", 1, "field 'sigma' given twice"),
        ("kernel linear\ncriterion coherence threshold=0.5 max_atoms=2.5\n", 2, "field max_atoms='2.5'"),
        ("kernel gaussian sigma\ncriterion coherence threshold=0.5\n", 1, "expected key=value, got 'sigma'$"),
        ("kernel gaussian sigma=0.5\ncriterion coherence threshold=0.5 width=2\n", 2, "unknown field 'width'$"),
    ])
    def test_records_checked_field_by_field(self, text, lineno, match):
        # each record appears once, names every parameter its family reads,
        # and every field must parse, also one the family does not read
        with pytest.raises(ValueError, match=f"^dictionary file line {lineno}: {match}"):
            Dictionary.from_text(text)

    def test_atoms_of_different_dimension_refused(self):
        with pytest.raises(ValueError, match="^dictionary file atoms have inconsistent dimensions$"):
            Dictionary.from_text("kernel linear\ncriterion coherence threshold=0.5\natom 1.0\natom 1.0 2.0\n")

    @pytest.mark.parametrize("kernel, plain", [
        (Kernel("linear", degree=7, offset=-1.0, sigma=-5.0), Kernel.linear()),
        (Kernel("polynomial", degree=3, offset=0.5, sigma=-5.0), Kernel.polynomial(3, 0.5)),
        (Kernel("gaussian", degree=7, offset=-1.0, sigma=0.5), Kernel.gaussian(0.5)),
    ], ids=["linear", "polynomial", "gaussian"])
    def test_unread_kernel_parameters_take_their_defaults(self, kernel, plain):
        # the file names only the parameters the family reads, so a kernel
        # must not differ from its loaded copy in the others
        assert kernel == plain and hash(kernel) == hash(plain)
        d = Dictionary.from_atoms(kernel, CriterionConfig("coherence", 0.9), [[0.5]])
        assert Dictionary.from_text(d.to_text()).kernel == kernel

    def test_integral_float_fields_load_as_ints(self):
        d = Dictionary.from_text("kernel polynomial degree=3.0 offset=0.5\ncriterion babel threshold=3.0 max_atoms=5.0\natom 0.5\n")
        assert (d.kernel, d.criterion) == (Kernel.polynomial(3, 0.5), CriterionConfig("babel", 3.0, max_atoms=5))
        assert type(d.kernel.degree) is int and type(d.criterion.max_atoms) is int

    @pytest.mark.parametrize("raw", ["2.5", "inf", "nan"])
    def test_non_integral_degree_refused_on_load(self, raw):
        with pytest.raises(ValueError, match=f"^dictionary file line 1: field degree='{raw}': not an integer"):
            Dictionary.from_text(f"kernel polynomial degree={raw} offset=1.0\ncriterion babel threshold=3.0\n")

    def test_numpy_scalar_fields_print_as_floats(self):
        # repr(np.float64(0.3)) is "np.float64(0.3)", which float() cannot read back
        d = Dictionary.from_atoms(Kernel.gaussian(np.float64(0.3)), CriterionConfig("coherence", np.float64(0.5)), [[1.0]])
        assert d.to_text().splitlines()[1:3] == ["kernel gaussian sigma=0.3", "criterion coherence threshold=0.5"]
        assert Dictionary.from_text(d.to_text()).kernel == d.kernel

    def test_file_and_config_refuse_a_field_alike(self):
        with pytest.raises(ValueError) as from_file:
            Dictionary.from_text("kernel linear sigma=abc\ncriterion coherence threshold=0.5\n")
        with pytest.raises(ConfigError) as from_config:
            build_config({"kernel": "linear", "sigma": "abc"})
        assert str(from_file.value) == f"dictionary file line 1: {from_config.value}"

    @settings(max_examples=60, deadline=None)
    @given(kernel=kernels(), criterion=criteria())
    def test_fields_round_trip(self, kernel, criterion):
        assert Kernel.from_fields(kernel.family, kernel.fields()) == kernel
        assert CriterionConfig.from_fields(criterion.kind, criterion.fields()) == criterion
        d = Dictionary(kernel, criterion)
        for x in np.random.default_rng(4).uniform(-2, 2, size=(12, 2)):
            try:
                d.admit(x)
            except NumericalError:  # a linear or polynomial kernel runs out of dimensions
                pass
        loaded = Dictionary.from_text(d.to_text())
        assert (loaded.kernel, loaded.criterion) == (kernel, criterion)
        assert loaded.atoms.tobytes() == d.atoms.tobytes()

    def test_singular_hand_built_file_loads(self):
        # duplicate-direction atoms: measures that read only the Gram matrix
        # still work, the factor and the approximation measure do not
        text = (
            "kernel linear\n"
            "criterion coherence threshold=1.0\n"
            "atom 1.0 0.0\n"
            "atom 2.0 0.0\n"
        )
        d = Dictionary.from_text(text)
        assert d.measure("coherence") == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericalError, match="near-singular gram matrix"):
            d.measure("approximation")
        with pytest.raises(NumericalError):
            d._factor()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kernel, atoms, k", [
        (Kernel.linear(), [[1e200, 0.0], [0.0, 1e200]], 1),
        (Kernel.linear(), [[1.0, 0.0], [0.0, 1e200]], 2),
        (Kernel.polynomial(3, 0.5), [[1.0], [2.0], [1e110]], 3),
    ], ids=["linear-both", "linear-second", "polynomial-third"])
    def test_overflowing_self_similarity_is_refused(self, kernel, atoms, k):
        # the file loaded, and measure printed inf and nan for it
        with pytest.raises(NumericalError, match=rf"^atom {k}: kappa\(x, x\) = inf is past float64's range$"):
            Dictionary.from_atoms(kernel, CriterionConfig("coherence", 0.5), atoms)


class TestEmptyDictionary:
    def test_operations_require_atoms(self):
        d = gaussian_dict()
        with pytest.raises(ValueError):
            d.test_coherence([0.0])
        with pytest.raises(ValueError):
            d.project([0.0])
        with pytest.raises(ValueError):
            kernel_vector(d.kernel, d.atoms, [0.0])
        with pytest.raises(ValueError):
            d.measure("babel")
