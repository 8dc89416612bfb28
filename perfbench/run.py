"""Benchmark of sparsekaf: one workload, one process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 0 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout this file lives in.
Set-up is repeated ``SETUP_REPEATS`` times and timed; then passes of the
workload run until ``--seconds`` have gone by, and at least until each of
the workload's streams was replayed ``REPLAYS`` times. Every pass checks
its outputs; a raised exception (in set-up too) or a failed check counts
as a failed operation.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported. With ``--trace 1`` untraced and traced rounds alternate (wrappers
are installed around the library's public names for each traced round and
removed after it); the per-layer metrics are medians over the traced
rounds, and the spans are written to ``perfbench/out/spans-<workload>.npz``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it record the environment
and the sample counts behind each figure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3
# Untraced runs replay each stream at least this often, so that every
# sample's step time is a median over replays.
REPLAYS = 3
# A traced run makes at least this many pairs of an untraced and a traced round.
MIN_ROUND_PAIRS = 2
# One closed-loop caller: BLAS threads would only add contention noise at
# these matrix sizes, and must never exceed the cores available.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("steady", "grow", "report"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(np, scipy) -> dict:
    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(np), "scipy": blas(scipy)},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def run_passes(workload, ctx, tracer, seconds, min_passes, results, log) -> bool:
    """Append passes until ``seconds`` have gone by and ``min_passes`` are done.

    Returns False when a pass raised (the workload state is then unusable).
    """
    begin = time.perf_counter()
    floor = len(results) + min_passes
    while len(results) < floor or time.perf_counter() - begin < seconds:
        try:
            results.append(workload.run_pass(ctx, len(results), tracer))
        except Exception:
            log.append(traceback.format_exc())
            return False
        log.extend(results[-1].failures)
    return True


def sample_times_us(results) -> list[float]:
    """Per-sample step time: the median over the passes that replayed its stream.

    Passes over one stream do identical work sample by sample, so a sample
    that reads far slower in one replay than in the others was interrupted;
    the median drops such a reading, where a mean would carry it into the
    tail percentiles.
    """
    import numpy as np

    times = []
    for stream in sorted({r.stream for r in results}):
        replays = [r.step_ns for r in results if r.stream == stream]
        n = min(len(r) for r in replays)
        replays = np.stack([r[:n] for r in replays])
        times.extend((np.median(replays, axis=0) / 1e3).tolist())
    return times


def end_to_end(workload, results, setup_s):
    """End-to-end figures; ``online_mse`` covers the first pass over each stream."""
    import numpy as np

    from summary import percentile, reported_percentile

    step_us = sample_times_us(results)
    metrics = {
        "step_us_p50": percentile(step_us, 50),
        "step_us_p99": reported_percentile(step_us, 99),
        "samples_per_s": statistics.median(len(r.step_ns) / r.stream_s for r in results),
        "online_mse": float(np.mean(np.concatenate([r.errors for r in results[: workload.streams]]) ** 2)),
        "pass_s": statistics.median(r.wall_s for r in results),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"step_us_samples": len(step_us), "passes": len(results), "setup_repeats": SETUP_REPEATS}
    return metrics, counts


def per_layer(workload, ctx, tracer, seconds, results, log):
    """Untraced and traced rounds in turn; per-layer medians over the traced rounds.

    A round is one pass over each of the workload's streams, so a traced
    round repeats the work of the untraced round just before it, step by
    step. ``trace.overhead_ratio`` is the median over these pairs of the
    traced round's wall time over the untraced one's; pairing adjacent
    rounds keeps the machine's slow drift out of the ratio.
    """
    from spans import layer_metrics

    rounds, ratios, traced = [], [], []
    begin = time.perf_counter()
    while len(rounds) < MIN_ROUND_PAIRS or time.perf_counter() - begin < seconds:
        lo = len(results)
        if not run_passes(workload, ctx, tracer, 0, workload.streams, results, log):
            return None, {}
        mid, first = len(results), len(tracer)
        missing = tracer.install()
        try:
            traced_ok = run_passes(workload, ctx, tracer, 0, workload.streams, results, log)
        finally:
            tracer.uninstall()
        if not traced_ok:
            return None, {}
        rounds.append(layer_metrics(tracer.arrays(first), tracer.names))
        ratios.append(sum(r.wall_s for r in results[mid:]) / sum(r.wall_s for r in results[lo:mid]))
        traced.extend(results[mid:])
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics["harness.output_bytes"] = statistics.median(r.output_bytes for r in traced)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload.name}.npz"))
    counts = {"round_pairs": len(rounds), "spans": len(tracer), "unwrapped_names": missing}
    return metrics, counts


def time_setup(workload, seed, workdir, log):
    """Set up ``SETUP_REPEATS`` times; return the last context and the median
    time, or ``(None, None)`` when set-up raised."""
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = workload.setup(seed, workdir)
            times.append(time.perf_counter() - t0)
    except Exception:
        log.append(traceback.format_exc())
        return None, None
    return ctx, statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsekaf", "__init__.py")):
        print(f"error: no sparsekaf sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import numpy as np
    import scipy
    import sparsekaf
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(sparsekaf.__file__)) != os.path.join(SRC, "sparsekaf"):
        print(f"error: imported sparsekaf from {sparsekaf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    log: list[str] = []
    results = []
    metrics, counts = None, {}
    try:
        ctx, setup_s = time_setup(workload, args.seed, workdir, log)
        if ctx is not None:
            tracer = Tracer()
            if args.trace:
                metrics, counts = per_layer(workload, ctx, tracer, args.seconds, results, log)
            elif run_passes(workload, ctx, tracer, args.seconds, REPLAYS * workload.streams, results, log):
                metrics, counts = end_to_end(workload, results, import_s + setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in log:
        print(f"check failed: {line}", file=sys.stderr)
    raised = metrics is None
    attempted = sum(r.ops for r in results) + raised
    failed = min(attempted, sum(len(r.failures) for r in results) + raised)
    if not raised and set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    print(json.dumps({"environment": environment(np, scipy), "workload": workload.name, "seed": args.seed}))
    print(json.dumps({"samples": counts}))
    print(json.dumps({
        "correct": not raised and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if raised else {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
