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

from .dictionary import CRITERION_FIELDS, CRITERION_KINDS, CriterionConfig, Dictionary
from .errors import NumericalError
from .kernels import FAMILIES, KERNEL_FIELDS, Kernel, _all_finite, integral, parse_fields
from .learners import LearnerConfig, ModelState, _update, step
from .spectral import SpectralReport, spectral_report

GENERATORS = ("sinc1d", "narma2")

RUN_CSV = "run.csv"
SPECTRAL_CSV = "spectral.csv"
DICTIONARY_FILE = "dictionary.txt"

# samples per chunk of run_online's Gaussian kernel rows
_CHUNK = 64


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

    A non-numeric first row is treated as a header. Malformed rows, and
    fields that are not finite (``nan``, ``inf``, or a number past float64's
    range), raise :class:`ConfigError` with line and field diagnostics.
    """
    rows, linenos = [], []
    for lineno, line in enumerate(_read_lines(path, "data file"), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            if lineno == 1:
                continue  # header row
            raise ConfigError(f"{path} line {lineno}: {exc}") from None
        linenos.append(lineno)
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ConfigError(
                f"{path} line {lineno}: expected {len(rows[0])} fields, got {len(rows[-1])}"
            )
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    if len(rows[0]) < 2:
        raise ConfigError(f"{path}: need at least one feature column and one target column")
    data = np.array(rows)
    if not _all_finite(data):
        i, k = np.argwhere(~np.isfinite(data))[0]  # the first in file order
        name = "y" if k == data.shape[1] - 1 else "x"
        raise ConfigError(f"{path} line {linenos[i]} column {k + 1}: {name} must be finite, got {float(data[i, k])!r}")
    return data[:, :-1], data[:, -1]


def _read_lines(path: str, what: str) -> list[str]:
    """The lines of the UTF-8 text file ``path``; one that cannot be read raises :class:`ConfigError` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


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

    Gaussian kernel rows are computed ``_CHUNK`` samples at a time (see
    :func:`_chunk_rows`), each row bit-identical to the one :func:`step`
    computes, and every row goes through :func:`step`'s body, so the record
    is that of stepping each sample. Writes ``run.csv``, ``spectral.csv``
    and the serialized dictionary to ``cfg.out`` when set. A learner that
    diverges (a non-finite prediction or row norm) raises ``NumericalError``
    naming the step, and nothing is written.
    """
    xs, ys = _resolve_data(cfg)
    kernel = cfg.kernel
    dictionary = Dictionary(kernel, cfg.criterion)
    state = ModelState.empty()
    record = RunRecord()
    n = xs.shape[0]
    # every figure the loop keeps is checked with isfinite, so numpy's
    # overflow warnings from a diverging model would only repeat the error;
    # one errstate for the whole loop, since entering it costs microseconds
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, n, _CHUNK):
            c1 = min(c0 + _CHUNK, n)
            rows = _chunk_rows(dictionary, xs[c0:c1], ys[c0:c1])
            for t in range(c0, c1):
                try:
                    if rows is None:
                        state, outcome = step(state, dictionary, xs[t], float(ys[t]), cfg.learner)
                    else:
                        m = dictionary.m
                        # a Gaussian kernel's kappa(x, x) is 1
                        state, outcome = _update(state, dictionary, xs[t], rows[t - c0, :m], 1.0,
                                                 float(ys[t]), cfg.learner)
                        if outcome.admitted and t + 1 < c1:
                            # the new atom's entries of the chunk's later rows, from one contiguous row
                            rows[t + 1 - c0 :, m] = kernel._rows(xs[t + 1 : c1], xs[t : t + 1])[0]
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
    # verify's own report and spectral.csv writer, so that verify of the
    # saved dictionary rewrites this spectral.csv
    _, record.report = verify_dictionary(dictionary, cfg.out)
    if cfg.out is not None:
        _write(cfg.out, RUN_CSV, record.run_csv())
        dictionary.save(os.path.join(cfg.out, DICTIONARY_FILE))
    return record


def _chunk_rows(dictionary: Dictionary, xs: np.ndarray, ys: np.ndarray) -> np.ndarray | None:
    """Gaussian rows of the chunk ``xs`` against the atoms, left in a buffer with room for a column per sample.

    None, so that the chunk goes through :func:`step`, unless the kernel is
    Gaussian, the dictionary has atoms and every sample is finite: a
    non-finite one must raise at its own step, after the steps before it.
    """
    m = dictionary.m
    if not (dictionary.kernel.family == "gaussian" and m and _all_finite(xs) and _all_finite(ys)):
        return None
    rows = np.empty((xs.shape[0], m + xs.shape[0]))
    dictionary.kernel._rows(dictionary.atoms, xs, out=rows[:, :m])
    return rows


def _write(out: str, name: str, text: str) -> None:
    """Write ``text`` to the file ``name`` in the directory ``out``, made if missing."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="ascii") as fh:
        fh.write(text)


def verification_exit_code(report: SpectralReport) -> int:
    """3 when a sound containment guarantee is violated beyond slack, else 0."""
    return 3 if any(v.hard for v in report.violations) else 0


def verify_dictionary(dictionary: Dictionary, out: str | None = None) -> tuple[int, SpectralReport]:
    """Recompute all measures and guarantees for a finished dictionary; write ``spectral.csv`` to ``out`` when given."""
    report = spectral_report(dictionary)
    if out is not None:
        _write(out, SPECTRAL_CSV, report.to_csv())
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

# the learner's and the data's numeric keys, read as a dictionary file's fields
_NUMBER_FIELDS = {"eta": float, "eps": float, "seed": integral, "length": integral, "noise": float}

# every config key, in the order `run` lists its flags: its default (None: unset) and its help text
CONFIG_TABLE = {
    "data": ("sinc1d", f"data source: {', '.join(GENERATORS)} or csv:PATH"),
    "kernel": ("gaussian", f"kernel family: {', '.join(FAMILIES)}"),
    "sigma": ("1.0", "gaussian bandwidth"),
    "degree": ("2", "polynomial degree"),
    "offset": ("1.0", "polynomial offset"),
    "criterion": ("coherence", f"sparsity criterion: {', '.join(CRITERION_KINDS)}"),
    "threshold": ("0.5", "criterion threshold (delta or gamma)"),
    "max_atoms": (None, "dictionary size cap"),
    "algo": ("nlms", f"update rule: {', '.join(_ALGO_ALIASES)}"),
    "eta": ("0.5", "step size"),
    "eps": ("1e-6", "regularization / stabilizer"),
    "seed": ("0", "random seed"),
    "length": ("1000", "number of samples"),
    "noise": (None, "generator noise level"),
    "out": (None, "output directory"),
}


def parse_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_lines(path, "config"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_TABLE:
            raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Materialize an :class:`ExperimentConfig` from string key=value pairs, keys from ``CONFIG_TABLE``."""
    if unknown := [key for key in mapping if key not in CONFIG_TABLE]:
        raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
    merged = {key: default for key, (default, _) in CONFIG_TABLE.items()}
    merged.update({k: v for k, v in mapping.items() if v is not None})

    def words(keys):
        return [f"{key}={merged[key]}" for key in keys if merged[key] is not None]

    try:
        # each kernel parameter must parse, whichever family reads it
        kernel = Kernel.from_fields(merged["kernel"], words(KERNEL_FIELDS))
        criterion = CriterionConfig.from_fields(merged["criterion"], words(CRITERION_FIELDS))
        algo = merged["algo"]
        if algo not in _ALGO_ALIASES:
            raise ConfigError(f"field algo={algo!r}: expected one of {sorted(set(_ALGO_ALIASES))}")
        numbers = parse_fields(words(_NUMBER_FIELDS), _NUMBER_FIELDS)
        learner = LearnerConfig(_ALGO_ALIASES[algo], numbers["eta"], numbers["eps"])
        return ExperimentConfig(
            kernel=kernel,
            criterion=criterion,
            learner=learner,
            data=merged["data"],
            seed=numbers["seed"],
            length=numbers["length"],
            noise=numbers.get("noise"),
            out=merged["out"],
        )
    except ValueError as exc:  # a ConfigError too, with its message kept
        raise ConfigError(str(exc)) from None
