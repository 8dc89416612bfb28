"""Tests of the benchmark's own logic: percentiles, spans, self time, row counts.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import Tracer, layer_metrics, self_times, within  # noqa: E402
from summary import percentile, reported_percentile, spread  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rule_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    p99 = reported_percentile(values, 99)
    assert sum(v > p99 for v in values) == 10
    with pytest.raises(ValueError, match="at least 10 samples beyond its rank, got 999"):
        reported_percentile(values[:-1], 99)
    assert reported_percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        reported_percentile(list(range(1, 20)), 50)
    with pytest.raises(ValueError):
        reported_percentile([], 99)


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 14.5)


def _tree():
    # root [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 55]
    start = np.array([0, 10, 40, 45])
    end = np.array([100, 30, 70, 55])
    parent = np.array([-1, 0, 0, 2])
    return start, end, parent


def test_self_time_subtracts_children():
    assert self_times(*_tree()).tolist() == [50, 20, 20, 10]


def test_within_marks_descendants():
    _, _, parent = _tree()
    assert within(np.array([False, False, True, False]), parent).tolist() == [False, False, True, True]
    assert within(np.array([True, False, False, False]), parent).all()


def _synthetic_stream(tracer: Tracer, steps: int, rows: int):
    against = tracer.wrap(lambda: None, "kernels.against")
    gram = tracer.wrap(lambda n: [against() for _ in range(n)], "kernels.gram")

    def one_step():
        for _ in range(rows):
            against()

    step = tracer.wrap(one_step, "learners.step")
    gram(5)  # rows outside any step must not count
    for sample in range(steps):
        tracer.sample_id = sample
        step()


def test_rows_per_step_counts_rows_inside_steps_only():
    tracer = Tracer()
    _synthetic_stream(tracer, steps=7, rows=4)
    spans = tracer.arrays()
    metrics = layer_metrics(spans, tracer.names)
    assert metrics["kernels.rows_per_step"] == 4.0
    assert len(tracer) == 1 + 5 + 7 * (1 + 4)
    assert spans["sample"][-1] == 6


def test_arrays_rebase_parents_to_the_slice():
    tracer = Tracer()
    _synthetic_stream(tracer, steps=2, rows=3)
    lo = 6  # first step span
    spans = tracer.arrays(lo)
    assert spans["parent"].tolist() == [-1, 0, 0, 0, -1, 4, 4, 4]
    assert layer_metrics(spans, tracer.names)["kernels.rows_per_step"] == 3.0


def test_span_renamed_from_result():
    tracer = Tracer()
    admit = tracer.wrap(lambda ok: ok, "dictionary.admit",
                        lambda args, kwargs, ok: "dictionary.admit_accepted" if ok else "dictionary.admit_rejected")
    for ok in (True, False, False, False):
        admit(ok)
    metrics = layer_metrics(tracer.arrays(), tracer.names)
    assert metrics["dictionary.admit.accept_ratio"] == 0.25


def test_install_wraps_every_binding_and_uninstall_restores():
    import sparsekaf
    from sparsekaf import harness, kernels, learners

    originals = (learners.step, harness.step, sparsekaf.step, kernels.Kernel.against)
    tracer = Tracer()
    missing = tracer.install()
    try:
        assert missing == []
        assert learners.step is harness.step is sparsekaf.step
        assert learners.step is not originals[0]
        dictionary = sparsekaf.Dictionary(sparsekaf.Kernel.gaussian(0.5), sparsekaf.CriterionConfig("coherence", 0.7))
        state = sparsekaf.ModelState.empty()
        cfg = sparsekaf.LearnerConfig("nlms", eta=0.5, eps=1e-6)
        for x in np.linspace(-1.0, 1.0, 9):
            state = learners.step(state, dictionary, np.array([x]), float(x), cfg)[0]
    finally:
        tracer.uninstall()
    assert (learners.step, harness.step, sparsekaf.step, kernels.Kernel.against) == originals
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    assert (names == "learners.step").sum() == 9
    assert (names == "kernels.against").sum() > 0


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layer_metrics(Tracer().arrays(), [])) | {"harness.output_bytes", "trace.overhead_ratio"}
    assert produced == {m["name"] for m in spec["per_layer"]}
