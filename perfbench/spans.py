"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public names of the library from the outside: module
functions are replaced in every ``sparsekaf`` module that binds them (so a
caller's own import, such as ``sparsekaf.harness.step``, is traced too) and
methods are replaced on their class. Private helpers are never wrapped;
their cost lands in the self time of the public caller. The library itself
is not changed, and :meth:`Tracer.uninstall` restores every name.

A span is (name, start, end, parent span, sample id). Spans live in flat
arrays until the run ends. Calls are strictly sequential, so spans nest
properly and a span's children never overlap each other.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

from summary import percentile

PACKAGE = "sparsekaf"
MEASURE_KINDS = ("distance", "approximation", "coherence", "babel")


def _admit_outcome(args, kwargs, accepted):
    return "dictionary.admit_accepted" if accepted else "dictionary.admit_rejected"


def _measure_kind(args, kwargs, result):
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return f"dictionary.measure.{kind}"


def _cli_command(args, kwargs, result):
    argv = kwargs["argv"] if "argv" in kwargs else args[0]
    return f"cli.main.{argv[0]}"


# (module, public name, span name, renames the span from (args, kwargs, result))
TARGETS = (
    ("kernels", "Kernel.against", "kernels.against", None),
    ("kernels", "Kernel.gram", "kernels.gram", None),
    ("kernels", "kernel_vector", "kernels.kernel_vector", None),
    ("dictionary", "Dictionary.admit", "dictionary.admit", _admit_outcome),
    ("dictionary", "Dictionary.test_distance", "dictionary.test", None),
    ("dictionary", "Dictionary.test_approximation", "dictionary.test", None),
    ("dictionary", "Dictionary.test_coherence", "dictionary.test", None),
    ("dictionary", "Dictionary.test_babel", "dictionary.test", None),
    ("dictionary", "Dictionary.project", "dictionary.project", None),
    ("dictionary", "Dictionary.measure", "dictionary.measure", _measure_kind),
    ("learners", "ModelState.predict", "learners.predict", None),
    ("learners", "update_lms_identity", "learners.update", None),
    ("learners", "update_lms_gram", "learners.update", None),
    ("learners", "update_nlms", "learners.update", None),
    ("learners", "update_functional", "learners.update", None),
    ("learners", "step", "learners.step", None),
    ("spectral", "eigensolve", "spectral.eigensolve", None),
    ("spectral", "gersgorin_margin", "spectral.gersgorin", None),
    ("spectral", "spectral_report", "spectral.report", None),
    ("ridge", "solve", "ridge.solve", None),
    ("harness", "run_online", "harness.run_online", None),
    ("cli", "main", "cli.main", _cli_command),
)


class Tracer:
    """Records spans around wrapped callables; ``sample_id`` tags new spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.sample = array("q")
        self.start = array("q")
        self.end = array("q")
        self.sample_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, name_of=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self.intern(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.sample.append(self.sample_id)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._stack.pop()
            if name_of is not None:
                self.name[idx] = self.intern(name_of(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        for module in {t[0] for t in TARGETS}:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"{PACKAGE}.{module}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        missing = []
        for module, qualname, span, name_of in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{qualname}")
                continue
            wrapper = self.wrap(original, span, name_of)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return missing

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self, lo: int = 0) -> dict[str, np.ndarray]:
        """Spans from ``lo`` on as numpy arrays, parents re-based to the slice (-1: outside)."""
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:].astype(np.int64) - lo
        parent[parent < 0] = -1
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:].copy(),
            "parent": parent,
            "sample": np.frombuffer(self.sample, dtype=np.int64)[lo:].copy(),
            "start": np.frombuffer(self.start, dtype=np.int64)[lo:].copy(),
            "end": np.frombuffer(self.end, dtype=np.int64)[lo:].copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span are sequential and lie inside it, so the time
    they cover is the sum of their durations.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def within(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans that are flagged or descend from a flagged span."""
    inside = flag.copy()
    child = parent >= 0
    while True:
        grown = inside.copy()
        grown[child] |= inside[parent[child]]
        if np.array_equal(grown, inside):
            return inside
        inside = grown


def layer_metrics(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced round (times in s and us, counts exact)."""
    dur_ns = spans["end"] - spans["start"]
    self_ns = self_times(spans["start"], spans["end"], spans["parent"])

    def pick(name: str) -> np.ndarray:
        return spans["name"] == (names.index(name) if name in names else -1)

    def prefixed(prefix: str) -> np.ndarray:
        return np.isin(spans["name"], [i for i, name in enumerate(names) if name.startswith(prefix)])

    def self_s(mask) -> float:
        return float(self_ns[mask].sum()) / 1e9

    def total_s(mask) -> float:
        return float(dur_ns[mask].sum()) / 1e9

    def us_p50(mask) -> float:
        return percentile(dur_ns[mask] / 1e3, 50) if mask.any() else 0.0

    steps = pick("learners.step")
    against = pick("kernels.against")
    accepted = pick("dictionary.admit_accepted")
    rejected = pick("dictionary.admit_rejected")
    admits = int(accepted.sum() + rejected.sum())
    cli = prefixed("cli.main.")
    out = {
        "kernels.rows_per_step": float((against & within(steps, spans["parent"])).sum() / steps.sum())
        if steps.any() else 0.0,
        "kernels.against.self_s": self_s(against),
        "kernels.kernel_vector.self_s": self_s(pick("kernels.kernel_vector")),
        "kernels.gram.self_s": self_s(pick("kernels.gram")),
        "dictionary.admit.accept_ratio": float(accepted.sum() / admits) if admits else 0.0,
        "dictionary.admit_accepted.us_p50": us_p50(accepted),
        "dictionary.admit_accepted.self_s": self_s(accepted),
        "dictionary.admit_rejected.us_p50": us_p50(rejected),
        "dictionary.test.self_s": self_s(pick("dictionary.test")),
        "dictionary.project.us_p50": us_p50(pick("dictionary.project")),
        "dictionary.project.self_s": self_s(pick("dictionary.project")),
    }
    for kind in MEASURE_KINDS:
        out[f"dictionary.measure.{kind}.s"] = total_s(pick(f"dictionary.measure.{kind}"))
    out.update({
        "learners.predict.self_s": self_s(pick("learners.predict")),
        "learners.update.self_s": self_s(pick("learners.update")),
        "learners.step.self_s": self_s(steps),
        "spectral.eigensolve.s": total_s(pick("spectral.eigensolve")),
        "spectral.gersgorin.s": total_s(pick("spectral.gersgorin")),
        "spectral.report.self_s": self_s(pick("spectral.report")),
        "ridge.solve.s": total_s(pick("ridge.solve")),
        "harness.run_online.self_s": self_s(pick("harness.run_online")),
        "cli.main.self_s": self_s(cli),
        "cli.main.verify.s": total_s(pick("cli.main.verify")),
        "cli.main.run.s": total_s(pick("cli.main.run")),
    })
    return out
