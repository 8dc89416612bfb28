"""The library's online runs against the from-scratch reference in ``reference.py``.

For every criterion and update rule, Hypothesis draws a kernel, a
threshold and cap, eta and eps, and a stream, from a fixed seed, and runs
the library's ``step`` and the reference side by side. At every step the
admissions are identical and the
predictions agree within 1e-8 of sum_j |alpha_j kvec_j|, the scale of a
prediction's rounding error: the one ``step`` makes, and the one the
state's alpha gives, which a functional step does not read. At the end
every measure agrees within 1e-10, relative or absolute; the approximation
measure, read from K^-1, within 1e-14 cond(K) if that is larger. With two
atoms or more, the dictionary and its reload from ``to_text`` satisfy the
paper's cross-measure relations (``cross_measure.py``).

A step where the reference's statistic lies within a relative 1e-9 of the
threshold ends the example (a tie). So does an admission whose reference
Schur pivot is below 10 * PIVOT_FLOOR in units of kappa(x, x) (at least
1), where rounding decides whether the library's pivot clears the floor:
the library may raise NumericalError only there. Three in four examples,
and at least one for every criterion and rule, must run to the end, so
the test cannot pass by stopping early.
"""

import itertools
import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from cross_measure import relation_failures
from reference import PIVOT_FLOOR, Reference, kernel_value

from sparsekaf import (
    ALGORITHMS,
    CRITERION_KINDS,
    CriterionConfig,
    Dictionary,
    Kernel,
    LearnerConfig,
    ModelState,
    NumericalError,
    step,
    synthesize,
)

RTOL = 1e-8
TIE = 1e-9
MEASURE_TOL = 1e-10
EXAMPLES = 8  # per criterion and rule


def stream(data: str, data_seed: int, length: int):
    if data != "uniform4":
        return synthesize(data, data_seed, length)
    xs = np.random.default_rng(data_seed).uniform(-1.0, 1.0, size=(length, 4))
    return xs, np.sin(np.pi * xs[:, 0]) * xs[:, 1] + 0.1 * xs[:, 2] * xs[:, 3]


@st.composite
def cases(draw, kind: str, algorithm: str):
    family = draw(st.sampled_from(["gaussian", "polynomial", "linear"]))
    if family == "gaussian":
        kernel = ("gaussian", draw(st.floats(0.2, 1.5)))
    elif family == "polynomial":
        kernel = ("polynomial", draw(st.integers(1, 3)), draw(st.floats(0.0, 1.0)))
    else:
        kernel = ("linear",)
    data = draw(st.sampled_from(["sinc1d", "narma2", "uniform4"]))
    xs, ys = stream(data, draw(st.integers(0, 2**16)), draw(st.integers(10, 200)))
    # the thresholds and step sizes scale with the largest kappa(x, x) of the stream
    r_sq = max(max(kernel_value(kernel, x, x) for x in xs), 1e-3)
    frac = draw(st.floats(0.05, 0.95))
    threshold = {"distance": frac * math.sqrt(r_sq), "approximation": frac * math.sqrt(r_sq),
                 "coherence": frac, "babel": 1.5 * frac * r_sq}[kind]
    cap = draw(st.integers(2, 24))
    eta = draw(st.floats(0.05, 0.95))
    if algorithm == "nlms":
        eta *= 2.0
    elif algorithm != "functional_sgd":
        eta /= cap * max(r_sq, 1.0) ** 2
    eps = draw(st.floats(0.0, 1.0))
    return kernel, kind, threshold, cap, algorithm, eta, eps, xs, ys


def library_kernel(kernel: tuple) -> Kernel:
    if kernel[0] == "gaussian":
        return Kernel.gaussian(kernel[1])
    return Kernel.polynomial(kernel[1], kernel[2]) if kernel[0] == "polynomial" else Kernel.linear()


def assert_close(got: float, expected: float, scale: float) -> None:
    assert abs(got - expected) <= RTOL * scale, (got, expected, scale)


def compare(case) -> str:
    """Run one case on both sides: "end", "tie" or "error" (a NumericalError, or a pivot near the floor)."""
    kernel, kind, threshold, cap, algorithm, eta, eps, xs, ys = case
    ref = Reference(kernel, kind, threshold, algorithm, eta, eps)
    d = Dictionary(library_kernel(kernel), CriterionConfig(kind, threshold, max_atoms=cap))
    cfg = LearnerConfig(algorithm, eta, eps)
    state = ModelState.empty()
    for x, y in zip(xs, ys):
        y = float(y)
        prediction, scale = ref.predict(x)
        assert_close(state.predict(d, x), prediction, scale)
        kvec = ref.row(x)
        m = len(ref.atoms)
        if m >= cap or tuple(x) in ref.atoms:
            admit = False
        elif m == 0:
            admit = True
        else:
            statistic = ref.statistic(x, kvec)
            if abs(statistic - ref.bar()) <= TIE * ref.bar():
                return "tie"
            admit = ref.passes(statistic)
        pivot = ref.residual(x, kvec) if admit else math.inf
        # the pivot's rounding error grows with the scale of kappa, the floor does not
        near_floor = pivot < 10 * PIVOT_FLOOR * max(kernel_value(kernel, x, x), 1.0)
        try:
            state, out = step(state, d, x, y, cfg)
        except NumericalError as exc:
            assert near_floor, exc
            return "error"
        if near_floor:
            return "error"
        assert out.admitted == admit
        assert_close(out.prediction, prediction, scale)
        if admit:
            ref.admit(x, kvec)
        ref.update(x, y - prediction)
    prediction, scale = ref.predict(xs[0])
    assert_close(state.predict(d, xs[0]), prediction, scale)
    for measure in CRITERION_KINDS:
        if len(ref.atoms) >= (1 if measure == "babel" else 2):
            expected = ref.measure(measure)
            tol = MEASURE_TOL if measure != "approximation" else max(MEASURE_TOL, 1e-14 * np.linalg.cond(ref.gram))
            assert math.isclose(d.measure(measure), expected, rel_tol=tol, abs_tol=MEASURE_TOL), measure
    if d.m >= 2:
        failures = relation_failures("grown", d) + relation_failures("loaded", Dictionary.from_text(d.to_text()))
        assert not failures, failures
    return "end"


def test_library_matches_reference():
    # every criterion with every rule, on its own seeded draws; a finite-rank
    # kernel (linear, or polynomial on few coordinates) whose cap exceeds its
    # rank ends an example with a near-singular admission, which the check
    # accepts only where the reference's pivot is near the floor too
    outcomes = {}
    for i, (kind, algorithm) in enumerate(itertools.product(CRITERION_KINDS, ALGORITHMS)):
        runs = outcomes[kind, algorithm] = []

        @seed(i)
        @settings(max_examples=EXAMPLES, deadline=None, database=None)
        @given(cases(kind, algorithm))
        def check(case):
            runs.append(compare(case))

        check()
    ends = sum(runs.count("end") for runs in outcomes.values())
    assert ends >= 0.75 * EXAMPLES * len(outcomes), ends
    assert all("end" in runs for runs in outcomes.values()), outcomes
