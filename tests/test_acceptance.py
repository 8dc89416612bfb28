"""Acceptance suite: one pass/fail line per criterion (run with ``pytest -v -s``).

Criteria 2, 4 and 5 are parametrized by measure kind and check the sound
window of each measure (``window(..., sound=True)``). For distance, coherence and Babel that is the
paper's Gersgorin window. For the approximation measure the paper's window
[delta^2, 2 R^2 - delta^2] is not a containment bound (two unit-norm atoms
with correlation c have spectrum {1-c, 1+c} but window [1-c^2, 1+c^2]; in
general lambda_min never exceeds the smallest atom reconstruction
residual, which *is* the squared measure), so these criteria check the
sound window [delta^2/m, m R^2 - (m-1) delta^2/m] instead, at the same
1e-9 slack.
"""

import math
import time

import numpy as np
import pytest

from cholesky_views import gram_inverse
from sampled_isometry import verify_isometry
from sparsekaf import (
    CriterionConfig,
    Dictionary,
    Kernel,
    LearnerConfig,
    ModelState,
    NormRange,
    RidgeProblem,
    eigensolve,
    gradient,
    kernel_vector,
    normal_residual,
    objective,
    run_online,
    solve,
    step,
    synthesize,
    window,
)
from sparsekaf.harness import ExperimentConfig
from sparsekaf.spectral import gersgorin_margin

KINDS = ("distance", "approximation", "coherence", "babel")
UNIT = NormRange(1.0, 1.0, source="analytic")
SLACK = 1e-9

_timings: dict = {}


def _report(num, name, failures, limit=12):
    status = "FAIL" if failures else "PASS"
    print(f"\n[acceptance {num}] {name}: {status}")
    if failures:
        shown = "\n".join(failures[:limit])
        more = f"\n... and {len(failures) - limit} more" if len(failures) > limit else ""
        pytest.fail(f"{len(failures)} check(s) failed:\n{shown}{more}", pytrace=False)


# -- criterion 1: Gersgorin containment ------------------------------------------


def test_acceptance_1_gersgorin_containment():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    failures = []
    for i in range(200):
        sigma = float(rng.uniform(0.3, 2.0))
        gamma = float(rng.uniform(0.3, 0.95))
        dim = int(rng.integers(1, 4))
        d = Dictionary(Kernel.gaussian(sigma), CriterionConfig("coherence", gamma, max_atoms=30))
        for x in rng.uniform(-4, 4, size=(60, dim)):
            d.admit(x)
        spec = eigensolve(d.gram)
        worst = gersgorin_margin(d.gram, spec.values)
        if worst > SLACK:
            failures.append(f"dict {i} (m={d.m}, sigma={sigma:.2f}): margin {worst:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, f"gersgorin containment, 200 dictionaries in {elapsed:.1f}s", failures)


# -- criteria 2 and 5 share the criterion-built dictionary set --------------------


@pytest.fixture(scope="module")
def built_dictionaries():
    start = time.perf_counter()
    entries = []
    rng = np.random.default_rng(200)
    for kind in KINDS:
        for threshold in np.arange(0.1, 0.95, 0.1):
            threshold = round(float(threshold), 1)
            d = Dictionary(Kernel.gaussian(0.8), CriterionConfig(kind, threshold, max_atoms=50))
            for x in rng.uniform(-4, 4, size=(400, 2)):
                d.admit(x)
            assert d.m >= 2, (kind, threshold)
            measures = {k: d.measure(k) for k in KINDS}
            entries.append({
                "kind": kind,
                "threshold": threshold,
                "dict": d,
                "spectrum": eigensolve(d.gram),
                "measures": measures,
                "isometry_seed": 500 + len(entries),
            })
    _timings["build"] = time.perf_counter() - start
    return entries


@pytest.mark.parametrize("checked_kind", KINDS)
def test_acceptance_2_eigen_bound_containment(built_dictionaries, checked_kind):
    start = time.perf_counter()
    failures = []
    for entry in built_dictionaries:
        d, spec = entry["dict"], entry["spectrum"]
        value = entry["measures"][checked_kind]
        bs = window(checked_kind, value, d.m, UNIT, sound=True)
        lo, hi = bs.lower, bs.upper
        label = f"{entry['kind']}@{entry['threshold']} (m={d.m}, measured {value:.4f})"
        if spec.values[-1] < lo - SLACK:
            failures.append(f"{label}: lambda_min {spec.values[-1]:.6f} < lower {lo:.6f}")
        if spec.values[0] > hi + SLACK:
            failures.append(f"{label}: lambda_max {spec.values[0]:.6f} > upper {hi:.6f}")
    _timings[f"crit2:{checked_kind}"] = time.perf_counter() - start
    _report(2, f"eigenvalue bound containment ({checked_kind})", failures)


def test_acceptance_2_runtime(built_dictionaries):
    total = _timings["build"] + sum(v for k, v in _timings.items() if k.startswith("crit2:"))
    failures = [] if total < 30.0 else [f"runtime {total:.1f}s exceeds 30s"]
    _report(2, f"containment runtime ({total:.1f}s of 30s budget)", failures)


# -- criterion 3: exact m=2 unit-norm algebra -------------------------------------


def test_acceptance_3_exact_two_atom_algebra():
    failures = []
    for c in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        spec = eigensolve(np.array([[1.0, c], [c, 1.0]]))
        if abs(spec.values[0] - (1 + c)) > 1e-12 or abs(spec.values[-1] - (1 - c)) > 1e-12:
            failures.append(f"c={c}: eigenvalues {spec.values} vs closed form (1-c, 1+c)")
        bs = window("coherence", c, 2, UNIT)
        lo, hi = bs.lower, bs.upper
        if abs(lo - (1 - c)) > 1e-12 or abs(hi - (1 + c)) > 1e-12:
            failures.append(f"c={c}: coherence bounds ({lo}, {hi}) not (1-c, 1+c)")
        # tightness: the bounds are attained exactly at gamma = c
        if abs(spec.values[-1] - lo) > 1e-12 or abs(spec.values[0] - hi) > 1e-12:
            failures.append(f"c={c}: bounds not tight against the exact spectrum")
        bound = bs.cond_number_bound
        expect = (1 + c) / (1 - c)
        if abs(bound - expect) > 1e-12 * expect:
            failures.append(f"c={c}: cond bound {bound} vs (1+c)/(1-c) {expect}")
        if abs(spec.cond - bound) > 1e-12 * bound:
            failures.append(f"c={c}: exact cond {spec.cond} not tight against bound {bound}")
    _report(3, "exact m=2 unit-norm algebra", failures)


# -- criterion 4: linear independence ----------------------------------------------

_CRIT4_RANGES = {
    "distance": (0.85, 0.99, 3),
    "approximation": (0.3, 0.9, 4),
    "coherence": (0.05, 0.3, 4),
    "babel": (0.2, 0.9, 5),
}


@pytest.fixture(scope="module")
def small_dictionaries():
    """50 small criterion-built dictionaries per kind, with measured values."""
    out = {kind: [] for kind in KINDS}
    for kind in KINDS:
        lo_t, hi_t, cap = _CRIT4_RANGES[kind]
        rng = np.random.default_rng(400 + KINDS.index(kind))
        for i in range(50):
            threshold = float(rng.uniform(lo_t, hi_t))
            d = Dictionary(
                Kernel.gaussian(float(rng.uniform(0.5, 1.2))),
                CriterionConfig(kind, threshold, max_atoms=int(rng.integers(2, cap + 1))),
            )
            for x in rng.uniform(-4, 4, size=(80, 2)):
                d.admit(x)
            if d.m < 2:
                continue
            out[kind].append((i, d, d.measure(kind), eigensolve(d.gram)))
    return out


def test_acceptance_4_lambda_min_positive(small_dictionaries):
    failures = []
    total_hits = 0
    for kind in KINDS:
        hits = 0
        for i, d, value, spec in small_dictionaries[kind]:
            if not window(kind, value, d.m, UNIT).lin_indep_condition_holds:
                continue
            hits += 1
            if not spec.values[-1] > 1e-12:
                failures.append(
                    f"{kind} dict {i} (m={d.m}): lambda_min {spec.values[-1]:.3e} not > 1e-12"
                )
        if hits < 20:
            failures.append(f"{kind}: only {hits} dictionaries satisfied the condition")
        total_hits += hits
    _report(4, f"lambda_min > 1e-12 whenever the condition holds ({total_hits} hits)", failures)


@pytest.mark.parametrize("built_kind", KINDS)
def test_acceptance_4_rayleigh_lower_bound(small_dictionaries, built_kind):
    rng = np.random.default_rng(450 + KINDS.index(built_kind))
    failures = []
    for i, d, value, spec in small_dictionaries[built_kind]:
        bs = window(built_kind, value, d.m, UNIT, sound=True)
        if not bs.lin_indep_condition_holds:
            continue
        lower = bs.lower
        for _ in range(100):
            xi = rng.standard_normal(d.m)
            quad = float(xi @ d.gram @ xi)
            if quad < (lower - SLACK) * float(xi @ xi):
                failures.append(
                    f"dict {i} (m={d.m}, measured {value:.4f}): "
                    f"xi K xi / |xi|^2 = {quad / float(xi @ xi):.6f} < lower {lower:.6f}"
                )
                break
    _report(4, f"random xi stay above the theoretical lower bound ({built_kind})", failures)


# -- criterion 5: quasi-isometry ----------------------------------------------------


@pytest.mark.parametrize("checked_kind", KINDS)
def test_acceptance_5_quasi_isometry(built_dictionaries, checked_kind):
    failures = []
    for entry in built_dictionaries:
        d = entry["dict"]
        value = entry["measures"][checked_kind]
        bs = window(checked_kind, value, d.m, UNIT, sound=True)
        nu, rescale = bs.isometry_nu, bs.rescale_factor
        lo, hi, dev = verify_isometry(d, trials=10_000, rng_seed=entry["isometry_seed"], rescale_factor=rescale)
        label = f"{entry['kind']}@{entry['threshold']} (m={d.m}, nu={nu:.4f})"
        if lo < 1 - nu - SLACK:
            failures.append(f"{label}: worst ratio {lo:.6f} < 1-nu = {1 - nu:.6f}")
        if hi > 1 + nu + SLACK:
            failures.append(f"{label}: worst ratio {hi:.6f} > 1+nu = {1 + nu:.6f}")
        if dev > nu + SLACK:
            failures.append(f"{label}: ip deviation {dev:.6f} > nu = {nu:.6f}")
    _report(5, f"quasi-isometry, 10000 trials per dictionary ({checked_kind})", failures)


def test_acceptance_5_unit_norm_formulas():
    # closed forms: (m-1)sqrt(1-d^2); 1-d^2; (m-1)g; g -- with rescale 1
    failures = []
    for m in (2, 3, 5, 9):
        for theta in (0.05, 0.2, 0.5, 0.8, 0.95):
            cases = {
                "distance": (m - 1) * math.sqrt(1 - theta**2),
                "approximation": 1 - theta**2,
                "coherence": (m - 1) * theta,
                "babel": theta,
            }
            for kind, expect in cases.items():
                bs = window(kind, theta, m, UNIT)
                nu, rescale = bs.isometry_nu, bs.rescale_factor
                if abs(nu - expect) > 1e-14 * max(1.0, expect) or rescale != 1.0:
                    failures.append(f"{kind} m={m} theta={theta}: nu={nu} expect {expect}, s={rescale}")
    _report(5, "unit-norm isometry constants match closed forms", failures)


# -- criterion 6: ridge solver -------------------------------------------------------


def test_acceptance_6_ridge_solver():
    rng = np.random.default_rng(600)
    failures = []
    for i in range(50):
        n = int(rng.integers(2, 101))
        prob = RidgeProblem(
            samples=rng.uniform(-2, 2, size=(n, 3)),
            targets=rng.standard_normal(n),
            kernel=Kernel.gaussian(float(rng.uniform(0.7, 1.5))),
            eps=float(rng.uniform(0.05, 1.0)),
            variant="rkhs_norm" if i % 2 == 0 else "param_norm",
        )
        alpha = solve(prob)
        label = f"problem {i} (n={n}, {prob.variant})"
        resid = normal_residual(prob, alpha)
        if resid > 1e-8:
            failures.append(f"{label}: normal residual {resid:.3e}")
        best = objective(prob, alpha)
        for _ in range(100):
            trial = alpha + 0.1 * rng.standard_normal(n)
            if best > objective(prob, trial) + 1e-12:
                failures.append(f"{label}: perturbation beat the solution")
                break
        point = rng.standard_normal(n)
        g = gradient(prob, point)
        h = 1e-6
        for j in rng.choice(n, size=min(n, 5), replace=False):
            e = np.zeros(n)
            e[j] = h
            fd = (objective(prob, point + e) - objective(prob, point - e)) / (2 * h)
            if abs(fd - g[j]) > 1e-5 * max(abs(g[j]), 1e-3):
                failures.append(f"{label}: fd grad[{j}] {fd:.8f} vs analytic {g[j]:.8f}")
                break
    _report(6, "ridge solver correctness, 50 random problems", failures)


# -- criterion 7: learner sanity ------------------------------------------------------


def test_acceptance_7_learner_sanity():
    start = time.perf_counter()
    failures = []

    # NLMS with eta=1, eps=0 interpolates every admitted sample
    xs, ys = synthesize("sinc1d", seed=3, length=500, noise=0.01)
    d = Dictionary(Kernel.gaussian(0.5), CriterionConfig("coherence", 0.5))
    state = ModelState.empty()
    cfg = LearnerConfig("nlms", eta=1.0, eps=0.0)
    for t in range(500):
        state, out = step(state, d, xs[t], float(ys[t]), cfg)
        if out.admitted:
            post = state.predict(d, xs[t])
            if abs(post - float(ys[t])) > 1e-10:
                failures.append(f"t={t}: admitted sample not interpolated ({post} vs {ys[t]})")

    # trailing-10% MSE on noiseless sinc; atom placement is arrival-order
    # dependent, this fixed draw has enough capacity (see tests/test_learners)
    length = 5000
    xs, ys = synthesize("sinc1d", seed=1, length=length, noise=0.0)
    d = Dictionary(Kernel.gaussian(0.5), CriterionConfig("coherence", 0.5))
    state = ModelState.empty()
    cfg = LearnerConfig("nlms", eta=0.5, eps=1e-6)
    errs = np.empty(length)
    for t in range(length):
        state, out = step(state, d, xs[t], float(ys[t]), cfg)
        errs[t] = out.error
    mse = float(np.mean(errs[-length // 10:] ** 2))
    if mse >= 1e-3:
        failures.append(f"trailing-10% mse {mse:.3e} >= 1e-3")

    # functional-update fidelity identity at every step
    eta, eps = 0.5, 0.1
    xs, ys = synthesize("sinc1d", seed=5, length=1000, noise=0.01)
    d = Dictionary(Kernel.gaussian(0.5), CriterionConfig("coherence", 0.5))
    state = ModelState.empty()
    cfg = LearnerConfig("functional_sgd", eta=eta, eps=eps)
    for t in range(1000):
        prev = state.alpha
        state, out = step(state, d, xs[t], float(ys[t]), cfg)
        prev_ext = np.append(prev, 0.0) if out.admitted else prev
        lhs = d.gram @ state.alpha
        rhs = (1 - eta * eps) * (d.gram @ prev_ext) + eta * out.error * kernel_vector(d.kernel, d.atoms, xs[t])
        worst = float(np.max(np.abs(lhs - rhs)))
        if worst > 1e-10:
            failures.append(f"t={t}: fidelity identity off by {worst:.3e}")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 20s")
    _report(7, f"learner sanity in {elapsed:.1f}s", failures)


# -- criterion 8: dictionary mechanics --------------------------------------------------


def test_acceptance_8_dictionary_mechanics(tmp_path):
    failures = []

    # inverse from the grown factor vs fresh inversion after 50+ admissions
    rng = np.random.default_rng(800)
    d = Dictionary(Kernel.gaussian(0.6), CriterionConfig("coherence", 0.97, max_atoms=55))
    for x in rng.uniform(-4, 4, size=(600, 2)):
        d.admit(x)
    if d.m < 50:
        failures.append(f"only reached m={d.m}")
    drift = float(np.max(np.abs(gram_inverse(d) - np.linalg.inv(d.gram))))
    if drift > 1e-8:
        failures.append(f"factor inverse drift {drift:.3e} > 1e-8")

    # rejected candidates leave state bit-identical
    before = (d.atoms.tobytes(), d.gram.tobytes(), gram_inverse(d).tobytes())
    if d.admit(d.atoms[0] + 1e-3):
        failures.append("candidate expected to be rejected was admitted")
    after = (d.atoms.tobytes(), d.gram.tobytes(), gram_inverse(d).tobytes())
    if before != after:
        failures.append("rejected candidate mutated dictionary state")

    # serialization round-trip preserves the gram matrix
    path = tmp_path / "dict.txt"
    d.save(path)
    d2 = Dictionary.load(path)
    gram_dev = float(np.max(np.abs(d.gram - d2.gram)))
    if gram_dev > 1e-12:
        failures.append(f"round-trip gram deviation {gram_dev:.3e} > 1e-12")
    _report(8, f"dictionary mechanics (m={d.m})", failures)


# -- criterion 9: determinism -------------------------------------------------------------


def test_acceptance_9_determinism(tmp_path):
    failures = []
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = ExperimentConfig(
            kernel=Kernel.gaussian(0.5),
            criterion=CriterionConfig("coherence", 0.5),
            learner=LearnerConfig("nlms", 0.5, 1e-6),
            data="sinc1d",
            seed=7,
            length=400,
            out=str(out),
        )
        run_online(cfg)
        outs.append(out)
    for name in ("run.csv", "spectral.csv", "dictionary.txt"):
        b1 = (outs[0] / name).read_bytes()
        b2 = (outs[1] / name).read_bytes()
        if b1 != b2:
            failures.append(f"{name} differs between identical runs")
    _report(9, "byte-identical outputs for identical config+seed", failures)
