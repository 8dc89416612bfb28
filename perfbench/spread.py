"""Run-to-run spread and set-to-set agreement of the end-to-end metrics.

Run from the repository root, one workload at a time:

    python3 perfbench/spread.py --workload steady --first-seed 100

Two sets of runs are made over the same ``SEEDS`` seeds, in turn: set A on the first
seed, set B on the first seed, set A on the second seed, and so on. Each
run is one sequential ``run.py`` process measuring ``run_seconds`` from
``BENCHMARK.json``. For every metric the script prints, per set, the
median and the distance between the quartiles (``statistics.quantiles(n=4)``)
as a share of the median; then how much worse set B's median is than set
A's, as a share of set A's (negative: better), and the metric's bound.
Each run's figures go to standard error as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from summary import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args(argv)

    sets = {"A": [], "B": []}
    for seed in range(args.first_seed, args.first_seed + SEEDS):
        for label, runs in sets.items():
            result = run_once(args.workload, seed, spec["run_seconds"])
            runs.append(result)
            values = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"set {label} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", file=sys.stderr)

    print(f"{'metric':<16}{'median A':>14}{'spread A':>10}{'median B':>14}{'spread B':>10}"
          f"{'B worse':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        a, b = ([r["metrics"][metric["name"]]["value"] for r in runs] for runs in sets.values())
        median_a, median_b = statistics.median(a), statistics.median(b)
        print(f"{metric['name']:<16}{median_a:>14.6g}{spread(a):>10.4f}{median_b:>14.6g}{spread(b):>10.4f}"
              f"{worse_by(metric, median_a, median_b):>9.4f}{metric['bound']:>7}")
    return 0 if all(r["correct"] for runs in sets.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
