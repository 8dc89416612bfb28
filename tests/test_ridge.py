import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dtrttf

from sparsekaf import (
    Kernel,
    NumericalError,
    RidgeProblem,
    eigensolve,
    gradient,
    normal_residual,
    objective,
    solve,
    synthesize,
)
from sparsekaf.ridge import _rfp_diagonal


def random_problem(seed, n=5, variant="param_norm", eps=0.5):
    rng = np.random.default_rng(seed)
    return RidgeProblem(
        samples=rng.standard_normal((n, 2)),
        targets=rng.standard_normal(n),
        kernel=Kernel.gaussian(1.0),
        eps=eps,
        variant=variant,
    )


class TestSolve:
    def test_scalar_param_norm(self):
        # oracle: (K^2 + eps) alpha = K y with K = [[1]] -> alpha = 0.5
        prob = RidgeProblem([[0.0]], [1.0], Kernel.gaussian(1.0), eps=1.0, variant="param_norm")
        np.testing.assert_allclose(solve(prob), [0.5], atol=1e-14)

    def test_zero_targets(self):
        for variant in ("rkhs_norm", "param_norm"):
            prob = random_problem(1, variant=variant)
            prob.targets = np.zeros(5)
            np.testing.assert_allclose(solve(prob), np.zeros(5), atol=1e-12)

    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    @pytest.mark.parametrize("seed", range(4))
    def test_normal_equation_residual(self, variant, seed):
        prob = random_problem(seed, n=8, variant=variant, eps=0.3)
        alpha = solve(prob)
        assert normal_residual(prob, alpha) <= 1e-8

    def test_gradient_vanishes_at_solution(self):
        # oracle: analytic gradient K(K a - y) + eps a (param) / + eps K a (rkhs)
        for variant in ("rkhs_norm", "param_norm"):
            prob = random_problem(7, variant=variant)
            alpha = solve(prob)
            scale = max(np.linalg.norm(prob.targets), 1.0)
            assert np.linalg.norm(gradient(prob, alpha)) <= 1e-8 * scale

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_refinement_step_earns_its_cost(self, seed):
        # K^2 + 1e-10 I from a wide Gaussian on the line is ill-conditioned
        # enough that one Cholesky solve leaves a residual of 5.6e-11 to
        # 8.4e-11 on these seeds, and the refinement step 1.3e-12 to 4.3e-12
        xs, ys = synthesize("sinc1d", seed, 200)
        prob = RidgeProblem(xs, ys, Kernel.gaussian(2.0), eps=1e-10, variant="param_norm")
        assert normal_residual(prob, solve(prob)) <= 2e-11

    def test_rkhs_norm_singular_suggests_param_norm(self):
        # duplicate samples make the Gram matrix exactly singular
        samples = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        prob = RidgeProblem(samples, [1.0, 1.0, 0.0], Kernel.gaussian(1.0), eps=0.1, variant="rkhs_norm")
        with pytest.raises(NumericalError, match="param_norm"):
            solve(prob)
        prob_p = RidgeProblem(samples, [1.0, 1.0, 0.0], Kernel.gaussian(1.0), eps=0.1, variant="param_norm")
        alpha = solve(prob_p)
        assert normal_residual(prob_p, alpha) <= 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeProblem([[0.0]], [1.0], Kernel.gaussian(1.0), eps=0.0)
        with pytest.raises(ValueError):
            RidgeProblem([[0.0]], [1.0, 2.0], Kernel.gaussian(1.0), eps=1.0)
        with pytest.raises(ValueError):
            RidgeProblem([[0.0]], [1.0], Kernel.gaussian(1.0), eps=1.0, variant="lasso")
        # either would make solve return all-NaN coefficients
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="eps"):
                RidgeProblem([[0.0]], [1.0], Kernel.gaussian(1.0), eps=eps)
        for target in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="targets"):
                RidgeProblem([[0.0], [1.0]], [1.0, target], Kernel.gaussian(1.0), eps=1.0)


# Each kernel on samples it keeps full rank on, so that rkhs_norm is solvable too:
# a cubic in 4 variables spans 35 monomials, a linear kernel d of them.
KERNEL_PROBLEMS = [
    (Kernel.gaussian(0.7), (40, 2)),
    (Kernel.polynomial(3, 0.5), (30, 4)),
    (Kernel.linear(), (30, 30)),
    # the packed normal matrix splits its triangle one way for even n and
    # another for odd n; in 8 dimensions the Gaussian keeps full rank
    *((Kernel.gaussian(0.7), (n, 8)) for n in (1, 2, 3, 80, 81, 401)),
]


def dense_residual(prob, alpha):
    A, b = prob.normal_system()
    return float(np.linalg.norm(A @ alpha - b)) / float(np.linalg.norm(b))


class TestSolveAgainstDense:
    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    @pytest.mark.parametrize("kernel, shape", KERNEL_PROBLEMS)
    def test_agrees_with_a_dense_solve(self, variant, kernel, shape):
        rng = np.random.default_rng(6)
        prob = RidgeProblem(rng.uniform(-3, 3, size=shape), rng.standard_normal(shape[0]), kernel, 0.3, variant)
        A, b = prob.normal_system()
        expected = np.linalg.solve(A, b)
        # both solves are backward stable: each is off by about cond(A) * u
        rtol = 100 * np.linalg.cond(A) * np.finfo(np.float64).eps
        assert np.linalg.norm(solve(prob) - expected) <= rtol * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [3, 60])
    def test_singular_rkhs_norm_raises_with_the_hint(self, n):
        # a zero sample gives the linear Gram matrix, and so K^2 + eps K, an
        # exactly zero row: the Cholesky pivot there is 0 whatever the rounding
        rng = np.random.default_rng(n)
        samples = rng.uniform(-1, 1, size=(n, n))
        samples[n // 2] = 0.0
        targets = rng.standard_normal(n)
        with pytest.raises(NumericalError, match="param_norm variant stays solvable"):
            solve(RidgeProblem(samples, targets, Kernel.linear(), 0.1, "rkhs_norm"))
        prob = RidgeProblem(samples, targets, Kernel.linear(), 0.1, "param_norm")
        assert normal_residual(prob, solve(prob)) <= 1e-8

    @pytest.mark.parametrize("seed", range(30))
    def test_duplicated_sample_raises_or_returns_a_minimizer(self, seed):
        # a copied sample makes K singular but K^2 + eps K only singular up to
        # rounding: the Cholesky factorization fails on some seeds and not on
        # others. Every minimizer has the same K alpha, so a returned alpha
        # must match the least-squares solution's K alpha.
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-2, 2, size=(50, 2))
        samples[25] = samples[0]
        prob = RidgeProblem(samples, rng.standard_normal(50), Kernel.gaussian(1.0), 0.1, "rkhs_norm")
        try:
            alpha = solve(prob)
        except NumericalError as exc:
            assert "param_norm variant stays solvable" in str(exc)
            return
        A, b = prob.normal_system()
        k_ref = prob.gram @ np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.max(np.abs(prob.gram @ alpha - k_ref)) <= 1e-8 * np.max(np.abs(k_ref))

    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    def test_residual_matches_the_dense_formula(self, variant):
        rng = np.random.default_rng(2)
        prob = RidgeProblem(rng.uniform(-3, 3, size=(80, 3)), rng.standard_normal(80), Kernel.gaussian(0.5),
                            0.1, variant)
        alpha = solve(prob)
        # at the solution both are round-off, about 1e-15, and agree only in size
        assert normal_residual(prob, alpha) <= 1e-12 and dense_residual(prob, alpha) <= 1e-12
        for scale in (1e-6, 1e-3, 1.0):
            perturbed = alpha + scale * rng.standard_normal(80)
            assert normal_residual(prob, perturbed) == pytest.approx(dense_residual(prob, perturbed), rel=1e-8)


class TestSolveMemory:
    N = 400

    def problem(self, variant):
        rng = np.random.default_rng(2)
        prob = RidgeProblem(rng.uniform(-3, 3, size=(self.N, 3)), rng.standard_normal(self.N),
                            Kernel.gaussian(0.5), 0.1, variant)
        prob.gram  # built before tracing: both calls read it
        return prob

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    def test_solve_holds_one_packed_triangle(self, variant):
        # n(n+1)/2 doubles for the RFP normal matrix, and vectors
        peak = self.traced_peak(solve, self.problem(variant))
        assert peak <= 0.55 * self.N**2 * 8 + 16 * self.N * 8

    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    def test_residual_holds_vectors_only(self, variant):
        prob = self.problem(variant)
        alpha = solve(prob)
        assert self.traced_peak(normal_residual, prob, alpha) <= 16 * self.N * 8


class TestRfpDiagonal:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_the_packed_identity(self, n):
        want = np.flatnonzero(dtrttf(np.eye(n), transr="N", uplo="L")[0])
        np.testing.assert_array_equal(_rfp_diagonal(n), want)


class TestNormalSystem:
    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    @pytest.mark.parametrize("kernel", [Kernel.gaussian(0.7), Kernel.polynomial(3, 0.5), Kernel.linear()])
    def test_matches_the_textbook_formula_bit_for_bit(self, variant, kernel):
        rng = np.random.default_rng(6)
        prob = RidgeProblem(rng.uniform(-3, 3, size=(120, 2)), rng.standard_normal(120), kernel, 0.3, variant)
        K = prob.gram
        A = K @ K + (0.3 * K if variant == "rkhs_norm" else 0.3 * np.eye(120))
        got, b = prob.normal_system()
        assert got.tobytes() == (0.5 * (A + A.T)).tobytes()
        assert b.tobytes() == (K @ prob.targets).tobytes()


class TestObjective:
    def test_zero_alpha_is_half_y_norm(self):
        prob = random_problem(2)
        assert objective(prob, np.zeros(5)) == pytest.approx(
            0.5 * float(prob.targets @ prob.targets), rel=1e-14
        )

    def test_scalar_hand_value(self):
        # oracle: 0.5*(0.5-1)^2 + 0.5*1*0.25 = 0.25
        prob = RidgeProblem([[0.0]], [1.0], Kernel.gaussian(1.0), eps=1.0, variant="param_norm")
        assert objective(prob, [0.5]) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    def test_solution_beats_random_vectors(self, variant):
        prob = random_problem(3, variant=variant)
        alpha = solve(prob)
        best = objective(prob, alpha)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert best <= objective(prob, alpha + 0.1 * rng.standard_normal(5)) + 1e-12

    @pytest.mark.parametrize("variant", ["rkhs_norm", "param_norm"])
    def test_finite_difference_gradient(self, variant):
        prob = random_problem(4, variant=variant)
        rng = np.random.default_rng(1)
        alpha = rng.standard_normal(5)
        g = gradient(prob, alpha)
        h = 1e-6
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (objective(prob, alpha + e) - objective(prob, alpha - e)) / (2 * h)
        np.testing.assert_allclose(fd, g, rtol=1e-5, atol=1e-8)

    def test_length_mismatch(self):
        prob = random_problem(5)
        with pytest.raises(ValueError):
            objective(prob, np.zeros(3))


class TestRegularityBounds:
    @pytest.mark.parametrize("seed", range(3))
    def test_rayleigh_bounds_at_solution(self, seed):
        # lambda_min ||a||^2 <= a K a <= lambda_max ||a||^2
        prob = random_problem(seed, n=12, variant="param_norm", eps=0.2)
        alpha = solve(prob)
        spec = eigensolve(prob.gram)
        a_sq = float(alpha @ alpha)
        psi_sq = float(alpha @ prob.gram @ alpha)
        assert spec.values[-1] * a_sq - 1e-9 <= psi_sq <= spec.values[0] * a_sq + 1e-9
