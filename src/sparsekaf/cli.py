"""Command-line interface.

Subcommands: ``run`` (online learning experiment), ``verify`` (recompute
measures and check every spectral guarantee of a dictionary), ``synthesize``
(write a synthetic dataset) and ``measure`` (print the four sparsity
measures of a dictionary file).

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
    CONFIG_KEYS,
    ConfigError,
    GENERATORS,
    build_config,
    is_hard_violation,
    parse_config_file,
    run_online,
    synthesize,
    verify_dictionary,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse uses status 2 for usage errors; this tool reserves 2 for
    # numerical failures
    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise SystemExit(EXIT_USAGE if status != 0 else 0)


def _add_common_options(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", help="key=value config file; flags override it")
    p.add_argument("--data", help=f"data source: {'|'.join(GENERATORS)} or csv:PATH")
    p.add_argument("--kernel", choices=["linear", "polynomial", "gaussian"])
    p.add_argument("--sigma", type=float, help="gaussian bandwidth")
    p.add_argument("--degree", type=int, help="polynomial degree")
    p.add_argument("--offset", type=float, help="polynomial offset")
    p.add_argument("--criterion", choices=list(CRITERION_KINDS))
    p.add_argument("--threshold", type=float, help="criterion threshold (delta or gamma)")
    p.add_argument("--max-atoms", type=int, dest="max_atoms")
    p.add_argument("--algo", choices=["lms", "lms-gram", "nlms", "functional"])
    p.add_argument("--eta", type=float, help="step size")
    p.add_argument("--eps", type=float, help="regularization / stabilizer")
    p.add_argument("--seed", type=int)
    p.add_argument("--length", type=int, help="number of samples")
    p.add_argument("--noise", type=float, help="generator noise level")
    p.add_argument("--out", metavar="DIR", help="output directory")


def _config_from_args(args):
    mapping = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = str(value)
    return build_config(mapping)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    if cfg.out is None:
        cfg.out = "."
    record = run_online(cfg)
    print(f"processed {len(record.rows)} samples, dictionary size {record.dictionary.m}")
    print(f"wrote {os.path.join(cfg.out, 'run.csv')} and {os.path.join(cfg.out, 'spectral.csv')}")
    for name, margin in record.report.violations:
        label = "VIOLATION" if is_hard_violation(name) else "flag (informational)"
        print(f"{label}: {name} margin {margin:.3e}")
    return EXIT_OK


def _load_dictionary(args) -> Dictionary:
    if args.dict:
        return Dictionary.load(args.dict)
    cfg = _config_from_args(args)
    candidate = os.path.join(cfg.out or ".", "dictionary.txt")
    if not os.path.exists(candidate):
        raise ConfigError(f"no dictionary file: pass --dict PATH or --out DIR containing {candidate}")
    return Dictionary.load(candidate)


def _cmd_verify(args) -> int:
    dictionary = _load_dictionary(args)
    code, report = verify_dictionary(dictionary, out=args.out)
    for bs in report.per_measure:
        note = " (vacuous lower bound)" if bs.vacuous_lower else ""
        print(
            f"{bs.measure_kind}: measure={bs.measure_value!r} bounds=({bs.lower!r}, {bs.upper!r})"
            f" nu={bs.isometry_nu!r}{note}"
        )
    for name, margin in report.violations:
        label = "VIOLATION" if is_hard_violation(name) else "flag (informational)"
        print(f"{label}: {name} margin {margin:.3e}")
    print("verification " + ("FAILED" if code else "passed"))
    return code


def _cmd_synthesize(args) -> int:
    name = args.data or "sinc1d"
    seed = args.seed if args.seed is not None else 0
    length = args.length if args.length is not None else 1000
    try:
        xs, ys = synthesize(name, seed, length, args.noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "data.csv")
    with open(path, "w", encoding="ascii") as fh:
        header = [f"x{i}" for i in range(xs.shape[1])] + ["y"]
        fh.write(",".join(header) + "\n")
        for row, target in zip(xs, ys):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(target)!r}\n")
    print(f"wrote {path} ({length} samples)")
    return EXIT_OK


def _cmd_measure(args) -> int:
    dictionary = _load_dictionary(args)
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
    for name, fn, extra in (
        ("run", _cmd_run, "run an online learning experiment"),
        ("verify", _cmd_verify, "check the spectral guarantees of a dictionary"),
        ("synthesize", _cmd_synthesize, "write a synthetic dataset to data.csv"),
        ("measure", _cmd_measure, "print the four sparsity measures of a dictionary"),
    ):
        p = sub.add_parser(name, help=extra)
        _add_common_options(p)
        if name in ("verify", "measure"):
            p.add_argument("--dict", metavar="PATH", help="serialized dictionary file")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
