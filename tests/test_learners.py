import copy
import math

import numpy as np
import pytest

import sparsekaf.dictionary as dictionary_module
import sparsekaf.kernels as kernels_module
import sparsekaf.learners as learners_module
from cholesky_views import gram_inverse, lower
from sparsekaf import (
    ALGORITHMS,
    CRITERION_KINDS,
    CriterionConfig,
    Dictionary,
    Kernel,
    LearnerConfig,
    ModelState,
    NumericalError,
    StepOutcome,
    kernel_vector,
    step,
    synthesize,
    update_functional,
    update_lms_gram,
    update_lms_identity,
    update_nlms,
)


def fresh(kind="coherence", threshold=0.5, sigma=1.0):
    return Dictionary(Kernel.gaussian(sigma), CriterionConfig(kind, threshold))


class TestLearnerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LearnerConfig("sgd", 0.5)
        with pytest.raises(ValueError):
            LearnerConfig("nlms", 0.0)
        with pytest.raises(ValueError):
            LearnerConfig("nlms", 0.5, eps=-1.0)
        # the normalized rule is stable only for 0 < eta < 2
        for eta in (2.0, 3.0):
            with pytest.raises(ValueError, match="nlms step size eta must be < 2"):
                LearnerConfig("nlms", eta)
        assert LearnerConfig("lms_identity", 2.0).eta == 2.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_and_eps_name_the_field(self, value):
        with pytest.raises(ValueError, match="eta"):
            LearnerConfig("nlms", value)
        with pytest.raises(ValueError, match="eps"):
            LearnerConfig("nlms", 0.5, eps=value)


class TestUpdateLmsIdentity:
    def test_zero_error_zero_eps_is_identity(self):
        alpha = np.array([0.3, -0.2])
        out = update_lms_identity(alpha, np.array([1.0, 0.5]), 0.0, 0.5, 0.0)
        np.testing.assert_array_equal(out, alpha)

    def test_from_zero(self):
        out = update_lms_identity(np.zeros(2), np.array([1.0, 0.5]), 2.0, 0.1, 0.0)
        np.testing.assert_allclose(out, [0.2, 0.1], atol=1e-15)

    def test_hand_example(self):
        # oracle: 1 + 0.1*(1*1 - 0.5*1) = 1.05
        out = update_lms_identity([1.0], [1.0], 1.0, 0.1, 0.5)
        np.testing.assert_allclose(out, [1.05], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            update_lms_identity([1.0], [1.0, 2.0], 1.0, 0.1, 0.0)


class TestUpdateLmsGram:
    def test_zero_eps_matches_identity_rule(self):
        alpha, kvec = np.array([0.5, 0.1]), np.array([0.9, 0.2])
        gram = np.array([[1.0, 0.4], [0.4, 1.0]])
        np.testing.assert_array_equal(
            update_lms_gram(alpha, kvec, gram @ alpha, 1.5, 0.2, 0.0),
            update_lms_identity(alpha, kvec, 1.5, 0.2, 0.0),
        )

    def test_identity_gram_matches_identity_rule(self):
        alpha, kvec = np.array([0.5, 0.1]), np.array([0.9, 0.2])
        np.testing.assert_allclose(
            update_lms_gram(alpha, kvec, np.eye(2) @ alpha, 1.5, 0.2, 0.7),
            update_lms_identity(alpha, kvec, 1.5, 0.2, 0.7),
            atol=1e-15,
        )

    def test_hand_example(self):
        # oracle: (1,0) + 0.1*(0 - [[1,.5],[.5,1]] @ (1,0)) = (0.9, -0.05)
        out = update_lms_gram([1.0, 0.0], [1.0, 0.5], np.array([[1.0, 0.5], [0.5, 1.0]]) @ [1.0, 0.0], 0.0, 0.1, 1.0)
        np.testing.assert_allclose(out, [0.9, -0.05], atol=1e-15)


class TestUpdateNlms:
    def test_zero_error_is_identity(self):
        alpha = np.array([0.4])
        np.testing.assert_array_equal(update_nlms(alpha, [2.0], 0.0, 1.0, 0.0), alpha)

    def test_one_step_interpolation(self):
        # oracle: alpha' = 0 + 1/(1+0) * 1 * 1 = 1; prediction after = 1
        out = update_nlms([0.0], [1.0], 1.0, 1.0, 0.0)
        np.testing.assert_allclose(out, [1.0], atol=1e-15)

    def test_prediction_invariant_to_kvec_scaling(self):
        # oracle algebra: alpha'k = alpha k + e k.k/||k||^2 = alpha k + e
        rng = np.random.default_rng(0)
        alpha = rng.standard_normal(4)
        kvec = rng.standard_normal(4)
        e = 0.7
        for scale in (1.0, 10.0):
            out = update_nlms(alpha, scale * kvec, e, 1.0, 0.0)
            pred = out @ (scale * kvec)
            assert pred == pytest.approx(alpha @ (scale * kvec) + e, rel=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(NumericalError):
            update_nlms([0.0], [0.0], 1.0, 1.0, 0.0)


class TestUpdateFunctional:
    def test_projection_of_own_atom_touches_one_entry(self):
        d = fresh()
        d.admit([0.0, 0.0])
        d.admit([3.0, 0.0])
        alpha = np.array([0.2, 0.4])
        out = update_functional(alpha, d.project([0.0, 0.0]).coefficients, 1.0, 0.5, 0.2)
        decay = 1 - 0.5 * 0.2
        np.testing.assert_allclose(out, [decay * 0.2 + 0.5, decay * 0.4], atol=1e-10)

    def test_no_error_no_eps_is_identity(self):
        d = fresh()
        d.admit([0.0, 0.0])
        alpha = np.array([0.7])
        np.testing.assert_array_equal(update_functional(alpha, d.project([1.0, 0.0]).coefficients, 0.0, 0.5, 0.0), alpha)

    def test_scalar_projection(self):
        # oracle: xi = kappa(x, atom) / 1 = 0.5
        d = fresh()
        d.admit([0.0, 0.0])
        x = [math.sqrt(2.0 * math.log(2.0)), 0.0]
        out = update_functional(np.zeros(1), d.project(x).coefficients, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(out, [0.5], atol=1e-12)

    def test_diverging_decay_rejected(self):
        d = fresh()
        d.admit([0.0, 0.0])
        with pytest.raises(NumericalError, match="decay"):
            update_functional(np.zeros(1), d.project([1.0, 0.0]).coefficients, 1.0, 2.0, 1.0)


class TestStep:
    def test_first_sample(self):
        d = fresh()
        state = ModelState.empty()
        for algo in ("lms_identity", "lms_gram", "nlms", "functional_sgd"):
            s, out = step(ModelState.empty(), fresh(), [1.0, 2.0], 3.0, LearnerConfig(algo, 0.5))
            assert out.admitted and out.new_m == 1
            assert out.prediction == 0.0
            assert out.error == 3.0
            assert len(s.alpha) == 1

    def test_rejection_keeps_state_length(self):
        d = fresh(threshold=0.5)
        state = ModelState.empty()
        cfg = LearnerConfig("nlms", 0.5)
        state, _ = step(state, d, [0.0, 0.0], 1.0, cfg)
        state, out = step(state, d, [0.01, 0.0], 1.0, cfg)
        assert not out.admitted
        assert d.m == 1 and len(state.alpha) == 1

    def test_lms_hand_example(self):
        # oracle: alpha' = 0 + 0.5*(1*1 - 0) = 0.5 on the atom itself
        d = fresh()
        d.admit([1.0, 1.0])
        state = ModelState(alpha=np.zeros(1))
        cfg = LearnerConfig("lms_identity", eta=0.5, eps=0.0)
        state, out = step(state, d, [1.0, 1.0], 1.0, cfg)
        assert not out.admitted
        assert out.error == 1.0
        np.testing.assert_allclose(state.alpha, [0.5], atol=1e-15)

    def test_inconsistent_state_rejected(self):
        d = fresh()
        d.admit([0.0, 0.0])
        with pytest.raises(ValueError, match="sized for"):
            step(ModelState.empty(), d, [1.0, 0.0], 1.0, LearnerConfig("nlms", 0.5))

    def test_functional_divergence_checked_before_mutation(self):
        d = fresh()
        cfg = LearnerConfig("functional_sgd", eta=2.0, eps=1.0)
        with pytest.raises(NumericalError):
            step(ModelState.empty(), d, [0.0, 0.0], 1.0, cfg)
        assert d.m == 0


def reference_step(state, d, x, y, cfg):
    """``step`` rebuilt from the public pieces, each evaluating its own kernel row.

    The functional rule runs on the coordinates w over the factor L and on
    the projection's z = L^-1 kvec; an admission appends the new diagonal
    entry of L, the square root of the Schur pivot, to z. The admitted
    atom's own row entry is kappa(x, x) as the Gram matrix holds it. The
    Gram-weighted rule applies the dense Gram matrix, K alpha.
    """
    if cfg.algorithm == "functional_sgd":
        w = state.coordinates(d)
        z = d.project(x).z if d.m else np.zeros(0)
        prediction = float(w @ z)
        error = float(y) - prediction
        admitted = d.admit(x)
        if admitted:
            w, z = np.append(w, 0.0), np.append(z, math.sqrt(d.gram[-1, -1] - float(z @ z)))
        w = update_functional(w, z, error, cfg.eta, cfg.eps)
        return ModelState.from_coordinates(w, d), StepOutcome(prediction, error, admitted, d.m)
    prediction = state.predict(d, x)
    error = float(y) - prediction
    admitted = d.admit(x)
    alpha = np.append(state.alpha, 0.0) if admitted else state.alpha
    kvec = kernel_vector(d.kernel, d.atoms, x)
    if admitted:
        kvec[-1] = d.gram[-1, -1]
    if cfg.algorithm == "lms_identity":
        alpha = update_lms_identity(alpha, kvec, error, cfg.eta, cfg.eps)
    elif cfg.algorithm == "lms_gram":
        alpha = update_lms_gram(alpha, kvec, d.gram @ alpha, error, cfg.eta, cfg.eps)
    else:
        alpha = update_nlms(alpha, kvec, error, cfg.eta, cfg.eps)
    return ModelState(alpha=alpha), StepOutcome(prediction, error, admitted, d.m)


# lms_gram's step forms K alpha as L (L^T alpha), the reference as K @ alpha:
# the two round differently, so its states and outcomes agree within this
# relative tolerance (over the cases below the worst deviation is 2.0e-13 in
# alpha and 4.7e-13 in a prediction), and its admissions exactly
GRAM_PRODUCT_RTOL = 1e-11


# (kernel, inputs, dimension, max_atoms, threshold per criterion). On the
# half-integer lattice every dot product is exact, so BLAS cannot round a row
# entry differently with the number of atoms; with one-dimensional or Gaussian
# inputs no row entry depends on the other rows either. Each case admits,
# rejects and reaches its cap within the stream.
DATA_FLOW_CASES = {
    "linear-lattice": (Kernel.linear(), "lattice", 6, 6,
                       {"distance": 2.0, "approximation": 0.7, "coherence": 0.5, "babel": 10.0}),
    "polynomial-lattice": (Kernel.polynomial(3, 0.5), "lattice", 3, 6,
                           {"distance": 8.0, "approximation": 7.0, "coherence": 0.3, "babel": 30.0}),
    "gaussian-lattice": (Kernel.gaussian(1.5), "lattice", 3, 6,
                         {"distance": 0.7, "approximation": 0.7, "coherence": 0.3, "babel": 0.5}),
    "polynomial-line": (Kernel.polynomial(3, 0.5), "uniform", 1, 3,
                        {"distance": 1.0, "approximation": 1.0, "coherence": 0.3, "babel": 0.2}),
    "gaussian-plane": (Kernel.gaussian(1.5), "uniform", 2, 6,
                       {"distance": 0.85, "approximation": 0.8, "coherence": 0.3, "babel": 0.6}),
}


def data_flow_stream(inputs, dim, n=80):
    rng = np.random.default_rng(11)
    xs = rng.integers(-4, 5, size=(n, dim)) / 2.0 if inputs == "lattice" else rng.uniform(-3, 3, size=(n, dim))
    return xs, np.sin(xs).sum(axis=1)


def assert_close(got, expected, rtol):
    """Largest entry-wise deviation within ``rtol`` of the largest entry, or of 1 if that is smaller."""
    got, expected = np.atleast_1d(got), np.atleast_1d(expected)
    assert np.abs(got - expected).max() <= rtol * max(np.abs(expected).max(), 1.0)


class TestStepDataFlow:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("kind", CRITERION_KINDS)
    @pytest.mark.parametrize("case", sorted(DATA_FLOW_CASES))
    def test_matches_reference_bit_for_bit(self, case, kind, algo):
        # bit for bit for every rule but lms_gram, which agrees within
        # GRAM_PRODUCT_RTOL
        kernel, inputs, dim, cap, thresholds = DATA_FLOW_CASES[case]
        xs, ys = data_flow_stream(inputs, dim)
        crit = CriterionConfig(kind, thresholds[kind], max_atoms=cap)
        cfg = LearnerConfig(algo, eta=0.2, eps=0.05)
        d, d_ref = Dictionary(kernel, crit), Dictionary(kernel, crit)
        state = state_ref = ModelState.empty()
        seen = set()
        for x, y in zip(xs, ys):
            m = d.m
            state, out = step(state, d, x, y, cfg)
            state_ref, out_ref = reference_step(state_ref, d_ref, x, y, cfg)
            if algo == "lms_gram":
                assert out[2:] == out_ref[2:]
                assert_close(out[:2], out_ref[:2], GRAM_PRODUCT_RTOL)
                assert_close(state.alpha, state_ref.alpha, GRAM_PRODUCT_RTOL)
                assert_close(state.coordinates(d), state_ref.coordinates(d_ref), GRAM_PRODUCT_RTOL)
            else:
                assert out == out_ref
                assert state.alpha.tobytes() == state_ref.alpha.tobytes()
                assert state.coordinates(d).tobytes() == state_ref.coordinates(d_ref).tobytes()
            seen.add("first" if m == 0 else "cap" if m == cap else "admit" if out.admitted else "reject")
        assert seen == {"first", "admit", "reject", "cap"}
        for got, expected in ((d.atoms, d_ref.atoms), (d.gram, d_ref.gram), (gram_inverse(d), gram_inverse(d_ref))):
            assert got.tobytes() == expected.tobytes()

    def test_update_reads_the_gram_diagonal(self):
        # kappa(x, x) of the polynomial family rounds as a scalar power, while
        # the kernel row rounds as an array power; the two differ in the last
        # bit for some x. The admitted atom's entry of the row the update
        # reads is the one the Gram matrix holds.
        kernel = Kernel.polynomial(3, 0.5)
        cfg = LearnerConfig("lms_identity", eta=0.2, eps=0.0)
        row_differs = 0
        for x in np.random.default_rng(12).uniform(-3, 3, size=(200, 1)):
            d = Dictionary(kernel, CriterionConfig("distance", 0.1))
            state, _ = step(ModelState.empty(), d, np.array([0.25]), 1.0, cfg)
            state, out = step(state, d, x, 1.0, cfg)
            if out.admitted:
                assert state.alpha[-1] == cfg.eta * (out.error * d.gram[-1, -1])
                row_differs += kernel_vector(kernel, x[None, :], x)[0] != d.gram[-1, -1]
        assert row_differs

    def test_one_triangular_solve_per_functional_step(self, monkeypatch):
        solves, products = [], []
        dtpsv, dtpmv = dictionary_module.dtpsv, dictionary_module.dtpmv

        def counting_dtpsv(n, *args, **kwargs):
            solves.append(n)
            return dtpsv(n, *args, **kwargs)

        def counting_dtpmv(n, *args, **kwargs):
            products.append(n)
            return dtpmv(n, *args, **kwargs)

        monkeypatch.setattr(dictionary_module, "dtpsv", counting_dtpsv)
        monkeypatch.setattr(dictionary_module, "dtpmv", counting_dtpmv)
        kernel, inputs, dim, cap, thresholds = DATA_FLOW_CASES["gaussian-plane"]
        xs, ys = data_flow_stream(inputs, dim)
        cfg = LearnerConfig("functional_sgd", eta=0.2, eps=0.05)
        for kind in CRITERION_KINDS:
            d = Dictionary(kernel, CriterionConfig(kind, thresholds[kind], max_atoms=cap))
            state = ModelState.empty()
            seen = set()
            for x, y in zip(xs, ys):
                m = d.m
                solves.clear()
                state, out = step(state, d, x, y, cfg)
                # the forward solve over the pre-admission dictionary, none when it is empty
                assert solves == ([m] if m else [])
                seen.add(out.admitted)
            assert seen == {True, False}
        assert products == []

    def test_alpha_state_enters_a_functional_step(self):
        d = fresh(sigma=0.7)
        for x in np.linspace(-3, 3, 7):
            d.admit([x, 0.0])
        alpha = np.random.default_rng(4).standard_normal(d.m)
        x = np.array([0.3, 0.1])
        state, out = step(ModelState(alpha=alpha), d, x, 1.0, LearnerConfig("functional_sgd", eta=0.5, eps=0.01))
        assert not out.admitted
        assert out.prediction == pytest.approx(float(alpha @ kernel_vector(d.kernel, d.atoms, x)), rel=1e-12)
        expected = update_functional(alpha, d.project(x).coefficients, out.error, 0.5, 0.01)
        assert np.linalg.norm(state.alpha - expected) <= 1e-12 * np.linalg.norm(expected)
        # a state carried over another dictionary's factor enters as its alpha
        atoms = np.column_stack([np.full(d.m, 0.5), np.linspace(-2, 2, d.m)])
        other = Dictionary.from_atoms(d.kernel, d.criterion, atoms)
        _, out = step(state, other, x, 1.0, LearnerConfig("functional_sgd", eta=0.5, eps=0.01))
        assert out.prediction == pytest.approx(float(state.alpha @ kernel_vector(other.kernel, other.atoms, x)), rel=1e-12)

    def test_state_outlives_buffer_doubling_and_deepcopy(self):
        xs, ys = synthesize("sinc1d", seed=2, length=400, noise=0.01)
        d = Dictionary(Kernel.gaussian(0.1), CriterionConfig("coherence", 0.5))
        cfg = LearnerConfig("functional_sgd", eta=0.5, eps=0.01)
        state = ModelState.empty()
        t = 0
        while d.m < 16:
            state, _ = step(state, d, xs[t], float(ys[t]), cfg)
            t += 1
        # the buffers hold 16 atoms, so the next admission doubles them; an
        # equal state whose alpha is read now gives the figure to keep
        before = ModelState.from_coordinates(state.coordinates(d), d).alpha
        held, (copied, d_copy) = state, copy.deepcopy((state, d))
        for x, y in zip(xs[t:], ys[t:]):
            state, _ = step(state, d, x, float(y), cfg)
        assert d.m > 32
        assert held.alpha.tobytes() == before.tobytes()
        assert copied.alpha.tobytes() == before.tobytes()
        # the copied snapshot replays the rest of the stream bit for bit
        for x, y in zip(xs[t:], ys[t:]):
            copied, _ = step(copied, d_copy, x, float(y), cfg)
        assert copied.alpha.tobytes() == state.alpha.tobytes()

    def test_one_kernel_row_per_step(self, monkeypatch):
        calls = []
        against = Kernel.against

        def counting(self, atoms, x):
            calls.append(np.asarray(atoms).shape[0])
            return against(self, atoms, x)

        monkeypatch.setattr(Kernel, "against", counting)
        kernel, inputs, dim, cap, thresholds = DATA_FLOW_CASES["gaussian-plane"]
        xs, ys = data_flow_stream(inputs, dim)
        d = Dictionary(kernel, CriterionConfig("approximation", thresholds["approximation"], max_atoms=cap))
        state = ModelState.empty()
        for x, y in zip(xs, ys):
            m = d.m
            calls.clear()
            state, out = step(state, d, x, y, LearnerConfig("functional_sgd", eta=0.2, eps=0.05))
            assert calls == ([m] if m else [])
        for public in (d.admit, d.project, d.test_distance, d.test_approximation, d.test_coherence, d.test_babel):
            calls.clear()
            public(xs[0] + 0.5)
            assert calls == [d.m]


class TestStepUpdateCalls:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_one_public_update_per_step(self, monkeypatch, algo):
        calls = []
        rules = {"lms_identity": "update_lms_identity", "lms_gram": "update_lms_gram",
                 "nlms": "update_nlms", "functional_sgd": "update_functional"}

        def counting(name):
            rule = getattr(learners_module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return rule(*args, **kwargs)

            return counted

        for name in rules.values():
            monkeypatch.setattr(learners_module, name, counting(name))
        kernel, inputs, dim, cap, thresholds = DATA_FLOW_CASES["gaussian-plane"]
        xs, ys = data_flow_stream(inputs, dim)
        d = Dictionary(kernel, CriterionConfig("coherence", thresholds["coherence"], max_atoms=cap))
        state, seen = ModelState.empty(), set()
        for x, y in zip(xs, ys):
            m = d.m
            calls.clear()
            state, out = step(state, d, x, y, LearnerConfig(algo, eta=0.2, eps=0.05))
            assert calls == [rules[algo]]
            seen.add("first" if m == 0 else "cap" if m == cap else "admit" if out.admitted else "reject")
        assert seen == {"first", "admit", "reject", "cap"}


class TestStepChecks:
    BAD = {"non-finite": [np.nan, 0.0], "2-D": [[0.5, 0.0]], "0-D": 0.5, "wrong dimension": [0.5, 0.0, 0.0]}

    @pytest.mark.parametrize("algorithm", ["nlms", "functional_sgd"])
    @pytest.mark.parametrize(
        "m, bad",
        # with no atoms every dimension fits
        [(0, "non-finite"), (0, "2-D"), (0, "0-D")] + [(3, bad) for bad in BAD],
    )
    def test_bad_input_raises_and_changes_nothing(self, algorithm, m, bad):
        cfg = LearnerConfig(algorithm, eta=0.5, eps=0.01)
        d, state = fresh(sigma=0.7), ModelState.empty()
        for x in np.linspace(-3, 3, m):
            state, _ = step(state, d, [x, 0.0], 1.0, cfg)
        assert d.m == m
        before = (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes(), state.alpha.tobytes())
        with pytest.raises(ValueError, match="1-D|non-finite|mismatch"):
            step(state, d, self.BAD[bad], 1.0, cfg)
        assert (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes(), state.alpha.tobytes()) == before

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_finite_inputs_whose_sum_overflows_are_accepted(self, algorithm):
        cfg = LearnerConfig(algorithm, eta=0.5, eps=0.01)
        d, state = fresh(sigma=0.7), ModelState.empty()
        # at m = 0, then against atoms of ordinary size; the Gaussian row is 0
        for x in ([1e308, 1e308], [0.5, 0.0], [-1e308, -1e308]):
            state, out = step(state, d, x, 1.0, cfg)
            assert out.admitted
        # an ordinary x against atoms whose sum overflows
        state, out = step(state, d, [0.6, 0.0], 1.0, cfg)
        assert not out.admitted and d.m == 3
        assert np.isfinite(state.alpha).all() and math.isfinite(out.prediction)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ["nlms", "functional_sgd"])
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [np.inf, 0.5], [-np.inf, 0.5], [np.inf, -np.inf]])
    def test_non_finite_input_message(self, algorithm, m, bad):
        cfg = LearnerConfig(algorithm, eta=0.5, eps=0.01)
        d, state = fresh(sigma=0.7), ModelState.empty()
        for x in np.linspace(-3, 3, m):
            state, _ = step(state, d, [x, 0.0], 1.0, cfg)
        before = (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes(), state.alpha.tobytes())
        with pytest.raises(ValueError, match="^x contains non-finite entries$"):
            step(state, d, bad, 1.0, cfg)
        assert (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes(), state.alpha.tobytes()) == before

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_raises_and_changes_nothing(self, algorithm, m, y):
        cfg = LearnerConfig(algorithm, eta=0.5, eps=0.01)
        d, state = fresh(sigma=0.7), ModelState.empty()
        for x in np.linspace(-3, 3, m):
            state, _ = step(state, d, [x, 0.0], 1.0, cfg)
        assert d.m == m
        before = (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes(), state.alpha.tobytes())
        # a novel x, which the dictionary would admit
        with pytest.raises(ValueError, match="^y must be finite"):
            step(state, d, [0.1, 2.0], y, cfg)
        assert (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes(), state.alpha.tobytes()) == before

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_non_finite_prediction_raises_and_changes_nothing(self, algorithm):
        cfg = LearnerConfig(algorithm, eta=0.5, eps=0.01)
        d, state = fresh(threshold=0.9), ModelState.empty()
        for x in (-0.5, 0.0, 0.5):
            state, _ = step(state, d, [x, 0.0], 1.0, cfg)
        assert d.m == 3
        # finite coefficients whose prediction overflows at a novel x, which
        # the dictionary would admit: the kernel row sums to 2.47, its largest entry is 0.896
        state = ModelState(alpha=np.full(3, 1e308))
        before = (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes())
        with pytest.raises(NumericalError, match=f"^{algorithm} with eta 0.5 diverged: prediction (inf|nan)$"):
            step(state, d, [0.0, 0.47], 1.0, cfg)
        assert (d.atoms.tobytes(), d.gram.tobytes(), lower(d).tobytes()) == before

    def test_input_is_validated_once_per_step(self, monkeypatch):
        # exactly one finiteness check covers x: _as_vector's with no atoms,
        # the kernel row's check of its own squared distances with atoms; no
        # check re-reads the atoms, and no step reads the Gram matrix
        calls = []

        def counting(name, check):
            def wrapped(*args):
                calls.append(name)
                return check(*args)
            return wrapped

        checks = {name: counting(name, getattr(kernels_module, name))
                  for name in ("_as_vector", "_as_matrix", "_all_finite", "_distances_finite")}
        for module in (kernels_module, dictionary_module, learners_module):
            for name, check in checks.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, check)
        xs, ys = synthesize("sinc1d", seed=3, length=60, noise=0.01)
        for algorithm in ALGORITHMS:
            d, state = fresh(sigma=0.3), ModelState.empty()
            assert d.gram.shape == (0, 0)
            for x, y in zip(xs, ys):
                calls.clear()
                expected = ["_distances_finite"] if d.m else ["_as_vector", "_all_finite"]
                state, _ = step(state, d, x, float(y), LearnerConfig(algorithm, eta=0.5, eps=0.01))
                assert calls == expected
            assert d.m > 1


class TestInvariants:
    def run_stream(self, algo, eta, eps, length=300, seed=5, probe=None):
        xs, ys = synthesize("sinc1d", seed=seed, length=length, noise=0.01)
        d = fresh(sigma=0.7)
        state = ModelState.empty()
        cfg = LearnerConfig(algo, eta=eta, eps=eps)
        outs = []
        for t in range(length):
            state, out = step(state, d, xs[t], float(ys[t]), cfg)
            outs.append(out)
            if probe is not None:
                probe(state, d, out, xs[t], float(ys[t]))
        return state, d, outs

    @pytest.mark.parametrize("algo", ["lms_identity", "lms_gram", "nlms", "functional_sgd"])
    def test_dual_expansion_matches_explicit_sum(self, algo):
        rng = np.random.default_rng(3)
        zs = rng.uniform(-3, 3, size=(5, 1))

        def probe(state, d, out, x, y):
            for z in zs:
                explicit = sum(
                    a * d.kernel(atom, z) for a, atom in zip(state.alpha, d.atoms)
                )
                assert state.predict(d, z) == pytest.approx(explicit, abs=1e-12)

        self.run_stream(algo, eta=0.3, eps=0.01, length=40, probe=probe)

    def test_nlms_step_one_interpolates_admitted_samples(self):
        def probe(state, d, out, x, y):
            if out.admitted:
                assert state.predict(d, x) == pytest.approx(y, abs=1e-10)

        self.run_stream("nlms", eta=1.0, eps=0.0, length=200, probe=probe)

    def test_functional_fidelity_identity(self):
        # <psi_t, kappa_j> = (1-eta eps) <psi_{t-1}, kappa_j> + eta e (K xi)_j,
        # with K xi = kvec(x_t) through the maintained inverse
        eta, eps = 0.5, 0.1
        xs, ys = synthesize("sinc1d", seed=7, length=400, noise=0.01)
        d = fresh(sigma=0.7)
        state = ModelState.empty()
        cfg = LearnerConfig("functional_sgd", eta=eta, eps=eps)
        for t in range(400):
            prev_alpha = state.alpha
            state, out = step(state, d, xs[t], float(ys[t]), cfg)
            alpha_prev = np.append(prev_alpha, 0.0) if out.admitted else prev_alpha
            lhs = d.gram @ state.alpha
            rhs = (1 - eta * eps) * (d.gram @ alpha_prev) + eta * out.error * kernel_vector(d.kernel, d.atoms, xs[t])
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("kind", CRITERION_KINDS)
    @pytest.mark.parametrize("data, sigma, thresholds", [
        ("sinc1d", 0.7, {"distance": 0.3, "approximation": 0.2, "coherence": 0.5, "babel": 1.0}),
        ("narma2", 0.05, {"distance": 0.3, "approximation": 0.2, "coherence": 0.7, "babel": 2.0}),
    ])
    def test_functional_step_follows_the_dual_recursion(self, data, sigma, thresholds, kind):
        # alpha' = (1 - eta eps) alpha + eta e xi with xi = K^-1 kvec, run on
        # alpha itself, against the step that carries w = L^T alpha
        xs, ys = synthesize(data, seed=3, length=300)
        d = Dictionary(Kernel.gaussian(sigma), CriterionConfig(kind, thresholds[kind]))
        cfg = LearnerConfig("functional_sgd", eta=0.5, eps=0.01)
        state, alpha = ModelState.empty(), np.zeros(0)
        for x, y in zip(xs, ys):
            prediction = float(alpha @ kernel_vector(d.kernel, d.atoms, x)) if d.m else 0.0
            state, out = step(state, d, x, float(y), cfg)
            if out.admitted:
                alpha = np.append(alpha, 0.0)
            alpha = update_functional(alpha, d.project(x).coefficients, float(y) - prediction, cfg.eta, cfg.eps)
            assert np.linalg.norm(state.alpha - alpha) <= 1e-9 * np.linalg.norm(alpha)
            w = state.coordinates(d)
            psi_sq = float(state.alpha @ d.gram @ state.alpha)
            assert abs(float(w @ w) - psi_sq) <= 1e-12 * psi_sq
        assert d.m > 5

    @pytest.mark.parametrize("algo", ["nlms", "functional_sgd"])
    def test_rayleigh_norm_bounds_along_run(self, algo):
        from sparsekaf import eigensolve

        state, d, _ = self.run_stream(algo, eta=0.5, eps=1e-3, length=150)
        spec = eigensolve(d.gram)
        a_sq = float(state.alpha @ state.alpha)
        psi_sq = float(state.alpha @ d.gram @ state.alpha)
        assert spec.values[-1] * a_sq - 1e-9 <= psi_sq <= spec.values[0] * a_sq + 1e-9

    def test_convergence_smoke_noiseless_sinc(self):
        # Dictionary capacity depends on atom arrival order; this fixed seed
        # yields 9 atoms whose span fits sinc well below the target. (Sparser
        # draws, e.g. seed 2 with 7 atoms, have an optimal-fit floor above it.)
        length = 5000
        xs, ys = synthesize("sinc1d", seed=1, length=length, noise=0.0)
        d = Dictionary(Kernel.gaussian(0.5), CriterionConfig("coherence", 0.5))
        state = ModelState.empty()
        cfg = LearnerConfig("nlms", eta=0.5, eps=1e-6)
        errs = np.empty(length)
        for t in range(length):
            state, out = step(state, d, xs[t], float(ys[t]), cfg)
            errs[t] = out.error
        assert float(np.mean(errs[-length // 10:] ** 2)) < 1e-3
