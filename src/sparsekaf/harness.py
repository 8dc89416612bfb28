"""Experiment orchestration: data synthesis, online runs, verification, CSV output.

Everything here is deterministic given the configured seed: synthetic
data derives its randomness from it and the spectral report draws none,
so identical configurations produce byte-identical CSV files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dictionary import CriterionConfig, Dictionary
from .errors import NumericalError
from .kernels import Kernel
from .learners import LearnerConfig, ModelState, step
from .spectral import SpectralReport, spectral_report

GENERATORS = ("sinc1d", "narma2")

RUN_CSV = "run.csv"
SPECTRAL_CSV = "spectral.csv"
DICTIONARY_FILE = "dictionary.txt"


class ConfigError(ValueError):
    """Invalid configuration file or option values (usage error)."""


@dataclass
class ExperimentConfig:
    kernel: Kernel
    criterion: CriterionConfig
    learner: LearnerConfig
    data: str = "sinc1d"
    seed: int = 0
    length: int = 1000
    noise: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("length must be >= 1")


def synthesize(name: str, seed: int, length: int, noise: float | None = None):
    """Deterministic synthetic regression data.

    ``sinc1d``: x uniform on [-3, 3], y = sinc(x) + gaussian noise
    (std ``noise``, default 0.01), with sinc(x) = sin(pi x)/(pi x).

    ``narma2``: second-order nonlinear autoregressive series
    y[k] = 0.4 y[k-1] + 0.4 y[k-1] y[k-2] + 0.6 u[k-1]^3 + 0.1 driven by
    u uniform on [0, ``noise``] (default amplitude 0.5); the regressor is
    (y[k-1], y[k-2], u[k-1]) and the target y[k].

    ``noise`` must be finite and >= 0; 0 disables it.

    Returns (X, y) with X of shape (length, d).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if noise is not None and not 0 <= noise < math.inf:  # NaN fails too
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
    rng = np.random.default_rng(seed)
    if name == "sinc1d":
        std = 0.01 if noise is None else noise
        x = rng.uniform(-3.0, 3.0, size=(length, 1))
        y = np.sinc(x[:, 0]) + std * rng.standard_normal(length)
        return x, y
    if name == "narma2":
        amplitude = 0.5 if noise is None else noise
        u = rng.uniform(0.0, amplitude, size=length + 2) if amplitude > 0 else np.zeros(length + 2)
        # the recursion runs on Python floats, whose arithmetic is float64's
        # without numpy's per-scalar cost
        try:
            cubes = [v**3 for v in u.tolist()]
        except OverflowError:  # a cube past float64's range: numpy's scalars give inf
            cubes = [float(v**3) for v in u]
        y = [0.0, 0.0]
        for k in range(2, length + 2):
            y.append(0.4 * y[k - 1] + 0.4 * y[k - 1] * y[k - 2] + 0.6 * cubes[k - 1] + 0.1)
        y = np.array(y)
        x = np.column_stack([y[1 : length + 1], y[:length], u[1 : length + 1]])
        return x, y[2:]
    raise ValueError(f"unknown generator {name!r}; valid names: {', '.join(GENERATORS)}")


def load_csv(path: str):
    """Read samples from a CSV whose last column is the target.

    A non-numeric first row is treated as a header. Malformed rows raise
    :class:`ConfigError` with line and field diagnostics.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            if lineno == 1:
                continue  # header row
            raise ConfigError(f"{path} line {lineno}: {exc}") from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ConfigError(
                f"{path} line {lineno}: expected {len(rows[0])} fields, got {len(rows[-1])}"
            )
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    if len(rows[0]) < 2:
        raise ConfigError(f"{path}: need at least one feature column and one target column")
    data = np.array(rows)
    return data[:, :-1], data[:, -1]


def synthesize_finite(name: str, seed: int, length: int, noise: float | None = None):
    """:func:`synthesize` for a configured run: every fault a :class:`ConfigError`.

    Besides the generator's own checks this rejects a series that leaves
    float64's range, such as narma2 at an input amplitude of 0.9, naming the
    first sample that is not finite, so nothing is learnt or written from it.
    """
    try:
        xs, ys = synthesize(name, seed, length, noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not np.isfinite(ys).all():  # x holds past targets and finite inputs only
        k = int(np.argmin(np.isfinite(ys)))
        raise ConfigError(f"{name} with noise {noise!r} diverges: sample {k + 1} of {length} is {float(ys[k])!r}")
    return xs, ys


def _resolve_data(cfg: ExperimentConfig):
    if cfg.data.startswith("csv:"):
        return load_csv(cfg.data[4:])
    return synthesize_finite(cfg.data, cfg.seed, cfg.length, cfg.noise)


@dataclass
class RunRecord:
    """Per-step trace of one online run plus the final spectral report."""

    rows: list[tuple] = field(default_factory=list)
    report: SpectralReport | None = None
    dictionary: Dictionary | None = None
    state: ModelState | None = None

    RUN_COLUMNS = ("t", "prediction", "error", "admitted", "m", "alpha_sq_norm", "psi_sq_norm")

    def run_csv(self) -> str:
        lines = [",".join(self.RUN_COLUMNS)]
        for t, pred, err, admitted, m, a_sq, psi_sq in self.rows:
            lines.append(
                f"{t},{pred!r},{err!r},{int(admitted)},{m},{a_sq!r},{psi_sq!r}"
            )
        return "\n".join(lines) + "\n"


def run_online(cfg: ExperimentConfig) -> RunRecord:
    """Stream the configured data through the online learner.

    Writes ``run.csv``, ``spectral.csv`` and the serialized dictionary to
    ``cfg.out`` when set. A learner that diverges (a non-finite prediction
    or row norm) raises ``NumericalError`` naming the step, and nothing is
    written.
    """
    xs, ys = _resolve_data(cfg)
    dictionary = Dictionary(cfg.kernel, cfg.criterion)
    state = ModelState.empty()
    record = RunRecord()
    # every figure the loop keeps is checked with isfinite, so numpy's
    # overflow warnings from a diverging model would only repeat the error;
    # one errstate for the whole loop, since entering it costs microseconds
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(xs.shape[0]):
            try:
                state, outcome = step(state, dictionary, xs[t], float(ys[t]), cfg.learner)
            except NumericalError as exc:
                raise NumericalError(f"step {t + 1}: {exc}") from None
            alpha_sq = float(state.alpha @ state.alpha)
            # ||w||^2 = alpha^T K alpha with w = L^T alpha, which a functional state
            # holds and any other costs one packed triangular product
            w = state.coordinates(dictionary)
            psi_sq = float(w @ w)
            if not (math.isfinite(alpha_sq) and math.isfinite(psi_sq)):
                raise NumericalError(
                    f"step {t + 1}: {cfg.learner.algorithm} with eta {cfg.learner.eta} diverged:"
                    f" alpha_sq_norm {alpha_sq!r}, psi_sq_norm {psi_sq!r}"
                )
            record.rows.append((t + 1, *outcome, alpha_sq, psi_sq))
    record.dictionary = dictionary
    record.state = state
    record.report = spectral_report(dictionary)
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, RUN_CSV), "w", encoding="ascii") as fh:
            fh.write(record.run_csv())
        with open(os.path.join(cfg.out, SPECTRAL_CSV), "w", encoding="ascii") as fh:
            fh.write(record.report.to_csv())
        dictionary.save(os.path.join(cfg.out, DICTIONARY_FILE))
    return record


def verification_exit_code(report: SpectralReport) -> int:
    """3 when a sound containment guarantee is violated beyond slack, else 0."""
    return 3 if any(v.hard for v in report.violations) else 0


def verify_dictionary(dictionary: Dictionary, out: str | None = None) -> tuple[int, SpectralReport]:
    """Recompute all measures and guarantees for a finished dictionary."""
    report = spectral_report(dictionary)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, SPECTRAL_CSV), "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
    return verification_exit_code(report), report


# -- flat key=value configuration ------------------------------------------------

_ALGO_ALIASES = {
    "lms": "lms_identity",
    "lms-gram": "lms_gram",
    "lms_gram": "lms_gram",
    "lms_identity": "lms_identity",
    "nlms": "nlms",
    "functional": "functional_sgd",
    "functional_sgd": "functional_sgd",
}

CONFIG_KEYS = (
    "data", "kernel", "sigma", "degree", "offset", "criterion", "threshold",
    "max_atoms", "algo", "eta", "eps", "seed", "length", "noise", "out",
)

DEFAULTS = {
    "data": "sinc1d",
    "kernel": "gaussian",
    "sigma": "1.0",
    "degree": "2",
    "offset": "1.0",
    "criterion": "coherence",
    "threshold": "0.5",
    "algo": "nlms",
    "eta": "0.5",
    "eps": "1e-6",
    "seed": "0",
    "length": "1000",
}


def parse_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _get(mapping: dict[str, str], key: str, conv):
    raw = mapping[key]
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"field {key}={raw!r}: {exc}") from None


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Materialize an :class:`ExperimentConfig` from string key=value pairs."""
    merged = dict(DEFAULTS)
    merged.update({k: v for k, v in mapping.items() if v is not None})

    family = merged["kernel"]
    # each kernel parameter must parse, whichever family reads it
    sigma, degree, offset = _get(merged, "sigma", float), _get(merged, "degree", int), _get(merged, "offset", float)
    try:
        if family == "linear":
            kernel = Kernel.linear()
        elif family == "polynomial":
            kernel = Kernel.polynomial(degree, offset)
        elif family == "gaussian":
            kernel = Kernel.gaussian(sigma)
        else:
            raise ConfigError(f"field kernel={family!r}: unknown family")
        max_atoms = _get(merged, "max_atoms", int) if "max_atoms" in merged else None
        criterion = CriterionConfig(merged["criterion"], _get(merged, "threshold", float), max_atoms=max_atoms)
        algo = merged["algo"]
        if algo not in _ALGO_ALIASES:
            raise ConfigError(f"field algo={algo!r}: expected one of {sorted(set(_ALGO_ALIASES))}")
        learner = LearnerConfig(_ALGO_ALIASES[algo], _get(merged, "eta", float), _get(merged, "eps", float))
        return ExperimentConfig(
            kernel=kernel,
            criterion=criterion,
            learner=learner,
            data=merged["data"],
            seed=_get(merged, "seed", int),
            length=_get(merged, "length", int),
            noise=_get(merged, "noise", float) if "noise" in merged else None,
            out=merged.get("out"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
