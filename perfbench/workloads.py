"""The benchmark's three workloads, driven through the library's public API.

Each workload has an untimed ``setup`` (repeated by the caller to time it)
and a ``run_pass`` that does one fixed, seed-determined unit of work, times
it and checks its outputs. A pass returns per-step times of the stream it
drove and the prequential errors of that stream; passes over the same
stream repeat the same work step by step. Library names are looked up on
their modules at call time, so the traced run sees every call.

- ``steady``: read path. A 4-d stream is warmed up until admissions are
  rare (set-up); each pass replays the next samples from a copy of that
  state, so nearly every step is predict, coherence test, projection and
  update with no admission. No atom cap: a reached cap would skip the test.
- ``grow``: write path. Each pass builds a dictionary from empty to its cap
  of 800 atoms, most steps admitting (Schur inverse update, refresh, copies).
  Passes alternate between two seeded streams so that the error figure
  averages over more than one short stream.
- ``report``: offline verification. Each pass runs ``sparsekaf verify`` on a
  saved 240-atom dictionary, ``sparsekaf run`` on 3000 narma2 samples, a
  batch ridge solve, and three seeded narma2 streams through ``step``
  directly, before ``run``, before ``verify`` and after it; the first is the
  series ``run`` drives. The pass's stream is the three in a row.

Output checks never depend on round-off, on the eigensolver used, or on the
meaning of the Monte-Carlo ``worst_*`` CSV columns.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import sparsekaf
from sparsekaf import cli, harness, learners, ridge

PROBES = 64
PREDICTION_RTOL = 1e-9
COHERENCE_SLACK = 1e-12


@dataclass
class PassResult:
    """One pass over stream number ``stream``: the pass's and its stream's wall
    times, per-step times (ns), prequential errors, operations and failures."""

    stream: int
    wall_s: float
    stream_s: float
    step_ns: np.ndarray
    errors: np.ndarray
    ops: int
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0


def stream_4d(rng: np.random.Generator, n: int):
    """x uniform on [-1, 1]^4, y = sin(pi x0) cos(pi x1) + 0.5 x2 x3 + 0.01 noise."""
    x = rng.uniform(-1.0, 1.0, size=(n, 4))
    y = (np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]) + 0.5 * x[:, 2] * x[:, 3]
         + 0.01 * rng.standard_normal(n))
    return x, y


def drive(x, y, state, dictionary, cfg, tracer, stop_at_m=None):
    """Closed-loop stream through ``step``; returns (state, step_ns, errors, wall_s).

    ``step`` mutates the dictionary in place; only the state and the
    outcome are read from its result. With ``stop_at_m`` the stream ends
    once the dictionary holds that many atoms.
    """
    clock = time.perf_counter_ns
    step_ns = []
    errors = []
    begin = clock()
    for t in range(len(y)):
        tracer.sample_id += 1
        t0 = clock()
        result = learners.step(state, dictionary, x[t], float(y[t]), cfg)
        step_ns.append(clock() - t0)
        state, outcome = result[0], result[-1]
        errors.append(outcome.error)
        if stop_at_m is not None and dictionary.m >= stop_at_m:
            break
    wall_s = (clock() - begin) / 1e9
    return state, np.array(step_ns, dtype=np.int64), np.array(errors), wall_s


def gaussian_gram(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    d_sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-np.maximum(d_sq, 0.0) / (2.0 * sigma**2))


def _close(got: float, expected: float, rtol: float) -> bool:
    return abs(got - expected) <= rtol * abs(expected)


def replay_failures(ctx, stream: int, errors: np.ndarray) -> list[str]:
    """A replay of a stream must give the errors of its first pass bit for bit."""
    first = ctx["first_errors"].setdefault(stream, errors)
    return [] if np.array_equal(errors, first) else ["replaying the same stream gave different predictions"]


def check_model(dictionary, state, sigma, gamma, probes, mse, mse_ceiling) -> list[str]:
    """Coherence of the atoms, predictions at probe points, error ceiling."""
    failures = []
    atoms = np.array(dictionary.atoms)
    cos = gaussian_gram(atoms, atoms, sigma)
    np.fill_diagonal(cos, 0.0)
    if cos.max() > gamma + COHERENCE_SLACK:
        failures.append(f"coherence {float(cos.max())!r} exceeds {gamma}")
    rows = gaussian_gram(probes, atoms, sigma)
    alpha = np.asarray(state.alpha)
    got = np.array([state.predict(dictionary, z) for z in probes])
    if np.any(np.abs(got - rows @ alpha) > PREDICTION_RTOL * (1.0 + np.abs(rows) @ np.abs(alpha))):
        failures.append("predictions differ from alpha . kappa(atoms, z)")
    if not mse <= mse_ceiling:
        failures.append(f"online mse {mse!r} above ceiling {mse_ceiling}")
    return failures


class Steady:
    """Read path at a nearly saturated dictionary (see module docstring)."""

    name = "steady"
    streams = 1
    WARMUP = 5000
    PASS = 15000
    SIGMA = 0.5
    GAMMA = 0.7
    MSE_CEILING = 0.2

    def setup(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        x, y = stream_4d(rng, self.WARMUP + self.PASS)
        dictionary = sparsekaf.Dictionary(sparsekaf.Kernel.gaussian(self.SIGMA),
                                          sparsekaf.CriterionConfig("coherence", self.GAMMA))
        cfg = sparsekaf.LearnerConfig("functional_sgd", eta=0.5, eps=0.01)
        state = sparsekaf.ModelState.empty()
        for t in range(self.WARMUP):
            state = learners.step(state, dictionary, x[t], float(y[t]), cfg)[0]
        return {
            "x": x[self.WARMUP:], "y": y[self.WARMUP:], "cfg": cfg,
            "snapshot": (state, dictionary), "probes": rng.uniform(-1.0, 1.0, size=(PROBES, 4)),
            "first_errors": {},
        }

    def run_pass(self, ctx, k: int, tracer) -> PassResult:
        state, dictionary = copy.deepcopy(ctx["snapshot"])
        state, step_ns, errors, wall_s = drive(ctx["x"], ctx["y"], state, dictionary, ctx["cfg"], tracer)
        failures = check_model(dictionary, state, self.SIGMA, self.GAMMA, ctx["probes"],
                               float(np.mean(errors**2)), self.MSE_CEILING)
        failures += replay_failures(ctx, 0, errors)
        return PassResult(0, wall_s, wall_s, step_ns, errors, len(step_ns), failures)


class Grow:
    """Admission-heavy write path (see module docstring)."""

    name = "grow"
    streams = 2
    LENGTH = 3000
    CAP = 800
    SIGMA = 0.4
    GAMMA = 0.95
    MSE_CEILING = 0.2

    def setup(self, seed: int, workdir: str):
        streams = [stream_4d(np.random.default_rng([seed, 2, s]), self.LENGTH) for s in range(self.streams)]
        return {
            "streams": streams,
            "probes": np.random.default_rng([seed, 2]).uniform(-1.0, 1.0, size=(PROBES, 4)),
            "first_errors": {},
        }

    def run_pass(self, ctx, k: int, tracer) -> PassResult:
        s = k % self.streams
        x, y = ctx["streams"][s]
        dictionary = sparsekaf.Dictionary(
            sparsekaf.Kernel.gaussian(self.SIGMA),
            sparsekaf.CriterionConfig("coherence", self.GAMMA, max_atoms=self.CAP),
        )
        cfg = sparsekaf.LearnerConfig("nlms", eta=0.5, eps=1e-6)
        state, step_ns, errors, wall_s = drive(x, y, sparsekaf.ModelState.empty(), dictionary, cfg,
                                               tracer, stop_at_m=self.CAP)
        failures = check_model(dictionary, state, self.SIGMA, self.GAMMA, ctx["probes"],
                               float(np.mean(errors**2)), self.MSE_CEILING)
        if dictionary.m != self.CAP:
            failures.append(f"stream ended at m={dictionary.m}, before the cap {self.CAP}")
        failures += replay_failures(ctx, s, errors)
        return PassResult(s, wall_s, wall_s, step_ns, errors, len(step_ns), failures)


class Report:
    """Offline verification through the CLI plus the batch reference (see module docstring)."""

    name = "report"
    streams = 1
    LENGTH = 3000
    RIDGE_SAMPLES = 1000
    RIDGE_EPS = 1e-3
    RIDGE_RESIDUAL = 1e-8
    VERIFY_ATOMS = 240
    SPECTRUM_RTOL = 1e-8
    MSE_CEILING = 1e-3
    RUN_ARGS = ("--data", "narma2", "--kernel", "gaussian", "--sigma", "0.05", "--criterion", "coherence",
                "--threshold", "0.7", "--algo", "functional", "--eta", "0.5", "--eps", "1e-6")

    def setup(self, seed: int, workdir: str):
        points = np.random.default_rng([seed, 3]).uniform(-1.0, 1.0, size=(4000, 4))
        dictionary = sparsekaf.Dictionary(
            sparsekaf.Kernel.gaussian(0.4),
            sparsekaf.CriterionConfig("coherence", 0.95, max_atoms=self.VERIFY_ATOMS),
        )
        for p in points:
            if dictionary.m == self.VERIFY_ATOMS:
                break
            dictionary.admit(p)
        path = os.path.join(workdir, "verify-dictionary.txt")
        dictionary.save(path)
        # The first stream is the one ``run`` drives; the others come from seeds derived from it.
        seeds = [seed] + [int(np.random.default_rng([seed, 4, j]).integers(2**31)) for j in (1, 2)]
        streams = [harness.synthesize("narma2", s, self.LENGTH) for s in seeds]
        return {"seed": seed, "workdir": workdir, "dict_path": path, "atoms": np.array(dictionary.atoms),
                "streams": streams, "first_errors": {}}

    def run_pass(self, ctx, k: int, tracer) -> PassResult:
        """Stream, ``run``, stream, ``verify``, stream, ridge: the streams are
        driven between the calls so that their figures sample the whole pass."""
        drives = [self._stream(ctx, 0, tracer)]
        out = tempfile.mkdtemp(prefix="pass-", dir=ctx["workdir"])
        try:
            run_dir = os.path.join(out, "run")
            tracer.sample_id += 1
            code, run_s = self._cli(["run", *self.RUN_ARGS, "--length", str(self.LENGTH),
                                     "--seed", str(ctx["seed"]), "--out", run_dir])
            failures = self._check_run(code, run_dir, drives[0][1])
            output_bytes = sum(entry.stat().st_size for entry in os.scandir(run_dir))
            drives.append(self._stream(ctx, 1, tracer))

            verify_dir = os.path.join(out, "verify")
            tracer.sample_id += 1
            code, verify_s = self._cli(["verify", "--dict", ctx["dict_path"], "--seed", str(ctx["seed"]),
                                        "--out", verify_dir])
            failures += self._check_verify(code, verify_dir, ctx["atoms"])
            drives.append(self._stream(ctx, 2, tracer))
        finally:
            shutil.rmtree(out)

        tracer.sample_id += 1
        x, y = ctx["streams"][0]
        problem = ridge.RidgeProblem(x[: self.RIDGE_SAMPLES], y[: self.RIDGE_SAMPLES],
                                     sparsekaf.Kernel.gaussian(0.05), self.RIDGE_EPS, "param_norm")
        t0 = time.perf_counter()
        alpha = ridge.solve(problem)
        ridge_s = time.perf_counter() - t0
        residual = ridge.normal_residual(problem, alpha)
        if not residual <= self.RIDGE_RESIDUAL:
            failures.append(f"ridge normal-equation residual {residual!r} above {self.RIDGE_RESIDUAL}")

        step_ns, errors, stream_s = (np.concatenate(parts) for parts in zip(*drives))
        if not np.mean(errors**2) <= self.MSE_CEILING:
            failures.append(f"online mse {np.mean(errors**2)!r} above ceiling {self.MSE_CEILING}")
        failures += replay_failures(ctx, 0, errors)
        wall_s = stream_s.sum() + run_s + verify_s + ridge_s
        return PassResult(0, wall_s, stream_s.sum(), step_ns, errors, step_ns.size + 3, failures, output_bytes)

    def _stream(self, ctx, j: int, tracer):
        """Narma2 stream ``j`` through ``step`` into a fresh model: (step_ns, errors, [wall_s])."""
        cfg = sparsekaf.LearnerConfig("functional_sgd", eta=0.5, eps=1e-6)
        dictionary = sparsekaf.Dictionary(sparsekaf.Kernel.gaussian(0.05),
                                          sparsekaf.CriterionConfig("coherence", 0.7))
        x, y = ctx["streams"][j]
        _, step_ns, errors, wall_s = drive(x, y, sparsekaf.ModelState.empty(), dictionary, cfg, tracer)
        return step_ns, errors, [wall_s]

    @staticmethod
    def _cli(argv):
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        return code, time.perf_counter() - t0

    def _check_run(self, code, run_dir, errors) -> list[str]:
        if code != 0:
            return [f"run exited with {code}"]
        with open(os.path.join(run_dir, "run.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.LENGTH:
            return [f"run.csv has {len(rows)} rows for {self.LENGTH} samples"]
        if not np.array_equal([float(r["error"]) for r in rows], errors):
            return ["run.csv errors differ from the same stream driven through step"]
        missing = [f for f in ("spectral.csv", "dictionary.txt") if not os.path.isfile(os.path.join(run_dir, f))]
        return [f"run wrote no {f}" for f in missing]

    def _check_verify(self, code, verify_dir, atoms) -> list[str]:
        if code != 0:
            return [f"verify exited with {code}"]
        with open(os.path.join(verify_dir, "spectral.csv"), newline="") as fh:
            rows = {r["kind"]: r for r in csv.DictReader(fh)}
        gram = gaussian_gram(atoms, atoms, 0.4)
        eig = np.linalg.eigvalsh(gram)
        expected = {"lambda_min": eig[0], "lambda_max": eig[-1], "cond": eig[-1] / eig[0]}
        failures = [f"reported {key} differs from numpy.linalg.eigh" for key, value in expected.items()
                    if not _close(float(rows["coherence"][key]), value, self.SPECTRUM_RTOL)]
        approx = np.sqrt(np.min(1.0 / np.diag(np.linalg.inv(gram))))
        if not _close(float(rows["approximation"]["measure"]), approx, self.SPECTRUM_RTOL):
            failures.append("approximation measure differs from sqrt(min 1/diag(K^-1))")
        return failures


WORKLOADS = {w.name: w for w in (Steady(), Grow(), Report())}
