"""Command-line interface.

Subcommands: ``run`` (online learning experiment), ``verify`` (recompute
measures and check every spectral guarantee of a dictionary), ``synthesize``
(write a synthetic dataset) and ``measure`` (print the four sparsity
measures of a dictionary file). Each takes only the options it reads. Flags
are strings merged over the ``--config`` file's values, and
``harness.build_config`` converts and checks both alike.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure,
3 bound violation (from ``verify``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .dictionary import CRITERION_KINDS, Dictionary
from .errors import NumericalError
from .harness import (
    _ALGO_ALIASES,
    CONFIG_KEYS,
    ConfigError,
    GENERATORS,
    build_config,
    parse_config_file,
    run_online,
    synthesize_finite,
    verify_dictionary,
)
from .kernels import FAMILIES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

_HELP = {
    "config": "key=value config file; flags override it",
    "dict": "serialized dictionary file",
    "data": f"data source: {', '.join(GENERATORS)} or csv:PATH",
    "kernel": f"kernel family: {', '.join(FAMILIES)}",
    "sigma": "gaussian bandwidth",
    "degree": "polynomial degree",
    "offset": "polynomial offset",
    "criterion": f"sparsity criterion: {', '.join(CRITERION_KINDS)}",
    "threshold": "criterion threshold (delta or gamma)",
    "max_atoms": "dictionary size cap",
    "algo": f"update rule: {', '.join(_ALGO_ALIASES)}",
    "eta": "step size",
    "eps": "regularization / stabilizer",
    "seed": "random seed",
    "length": "number of samples",
    "noise": "generator noise level",
    "out": "output directory",
}


class _Parser(argparse.ArgumentParser):
    # argparse uses status 2 for usage errors; this tool reserves 2 for
    # numerical failures
    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise SystemExit(EXIT_USAGE if status != 0 else 0)


def _config_from_args(args):
    mapping = parse_config_file(args.config) if args.config else {}
    mapping.update({key: value for key, value in vars(args).items() if key in CONFIG_KEYS and value is not None})
    return build_config(mapping)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    if cfg.out is None:
        cfg.out = "."
    record = run_online(cfg)
    print(f"processed {len(record.rows)} samples, dictionary size {record.dictionary.m}")
    print(f"wrote {os.path.join(cfg.out, 'run.csv')} and {os.path.join(cfg.out, 'spectral.csv')}")
    _print_violations(record.report)
    return EXIT_OK


def _print_violations(report) -> None:
    for v in report.violations:
        label = "VIOLATION" if v.hard else "flag (informational)"
        print(f"{label}: {v.name} margin {v.margin:.3e}")


def _load_dictionary(args):
    """(dictionary, config): ``--dict``, or else ``dictionary.txt`` in the configured ``out``.

    The config is built either way, so a bad ``--config`` fails loudly.
    """
    cfg = _config_from_args(args)
    if args.dict:
        return Dictionary.load(args.dict), cfg
    candidate = os.path.join(cfg.out or ".", "dictionary.txt")
    if not os.path.exists(candidate):
        raise ConfigError(f"no dictionary file: pass --dict PATH or --out DIR containing {candidate}")
    return Dictionary.load(candidate), cfg


def _cmd_verify(args) -> int:
    dictionary, cfg = _load_dictionary(args)
    code, report = verify_dictionary(dictionary, out=cfg.out)
    for bs in report.per_measure:
        note = "" if bs.lin_indep_condition_holds else " (vacuous lower bound)"
        print(
            f"{bs.measure_kind}: measure={bs.measure_value!r} bounds=({bs.lower!r}, {bs.upper!r})"
            f" nu={bs.isometry_nu!r}{note}"
        )
    _print_violations(report)
    print("verification " + ("FAILED" if code else "passed"))
    return code


def _cmd_synthesize(args) -> int:
    cfg = _config_from_args(args)
    xs, ys = synthesize_finite(cfg.data, cfg.seed, cfg.length, cfg.noise)
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "data.csv")
    with open(path, "w", encoding="ascii") as fh:
        header = [f"x{i}" for i in range(xs.shape[1])] + ["y"]
        fh.write(",".join(header) + "\n")
        for row, target in zip(xs, ys):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(target)!r}\n")
    print(f"wrote {path} ({cfg.length} samples)")
    return EXIT_OK


def _cmd_measure(args) -> int:
    dictionary, _ = _load_dictionary(args)
    for kind in CRITERION_KINDS:
        try:
            value = dictionary.measure(kind)
            print(f"{kind} {value!r}")
        except (ValueError, NumericalError) as exc:
            print(f"{kind} nan  # {exc}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparsekaf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, summary, keys in (
        ("run", _cmd_run, "run an online learning experiment", ("config", *CONFIG_KEYS)),
        ("verify", _cmd_verify, "check the spectral guarantees of a dictionary", ("config", "dict", "out")),
        ("synthesize", _cmd_synthesize, "write a synthetic dataset to data.csv",
         ("config", "data", "seed", "length", "noise", "out")),
        ("measure", _cmd_measure, "print the four sparsity measures of a dictionary", ("config", "dict", "out")),
    ):
        p = sub.add_parser(name, help=summary)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP[key])
        if name == "verify":
            # perfbench/workloads.py passes --seed to verify; drop it once the
            # benchmark stops (ROADMAP item 1)
            p.add_argument("--seed", dest="ignored_seed", metavar="SEED", help="ignored")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
