"""Command-line front end.

    povmlab run <file> [--out report.json] [--csv summary.csv]
                       [--workers N] [--tol X] [--seed S]
    povmlab gen <kind> --dim D --seed S
    povmlab version

Exit codes: 0 when no scenario FAILs, 1 on any FAIL, 2 on refused input, with nothing run.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from typing import Any

from . import KINDS, __version__

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2


def _cmd_run(args: argparse.Namespace) -> int:
    # imported here, so --help, gen and version load none of the check modules
    from .reporting import CheckReport
    from .scenarios import parse_scenarios, run_scenarios
    from .serialization import SchemaError

    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        print(f"error: no such file: {args.file}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # a directory, not UTF-8, too deep
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        scenarios = parse_scenarios(data, tol=args.tol, seed=args.seed)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for flag, path in (("--out", args.out), ("--csv", args.csv)):  # before anything runs
        if not path:
            continue
        if os.path.isdir(path):
            print(f"error: {flag}: is a directory: {path}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if not os.path.isdir(os.path.dirname(path) or "."):
            print(f"error: {flag}: no such directory: {os.path.dirname(path)}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    reports = run_scenarios(scenarios, workers=args.workers)
    rows = [r.summary_row() for r in reports]
    for r, row in zip(reports, rows):
        worst = "no asserted item" if row["item"] is None else (
            f"worst {row['item']}: residual {row['residual']:.3e}, tol {row['tol']:.1e}, "
            f"margin {row['margin']:.3e}")
        print(f"{r.verdict:4s} {r.name} ({worst}, {r.wall_time:.3f}s)")
        for note in r.notes:
            print(f"     note: {note}")
    if args.out:  # the full structure, witness matrices included, one report per line
        # a compact json.dumps runs json's C encoder; indent= would run its Python one
        body = ",\n".join(json.dumps(r.to_dict()) for r in reports)
        with open(args.out, "w") as fh:
            fh.write('{"reports": [\n' + (body + "\n" if body else "") + "]}\n")
    if args.csv:  # one summary row per scenario; an empty batch still gets the header
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(CheckReport(name="").summary_row()))
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_FAIL if any(r.verdict == "FAIL" for r in reports) else EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import generate_instance
    from .scenarios import DIM, check_seed

    try:  # read as run reads a scenario's dim and seed
        dim, seed = DIM.read(args.dim, "--dim"), check_seed(args.seed, "--seed")
        payload: dict[str, Any] = generate_instance(args.kind, dim, seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="povmlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("file", help="scenario JSON file")
    run_p.add_argument("--out", help="write full JSON report here")
    run_p.add_argument("--csv", help="write CSV summary here")
    run_p.add_argument("--workers", type=int, default=1,
                       help="parallel scenario workers (default 1)")
    run_p.add_argument("--tol", type=float, default=None,
                       help="override every scenario tolerance")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override every scenario seed (an integer in 0..2**64 - 1)")
    run_p.set_defaults(func=_cmd_run)

    gen_p = sub.add_parser("gen", help="generate a serialized random instance")
    gen_p.add_argument("kind", choices=KINDS)
    gen_p.add_argument("--dim", type=int, required=True,
                       help="matrix dimension in 1..128")
    gen_p.add_argument("--seed", type=int, required=True,
                       help="an integer in 0..2**64 - 1")
    gen_p.set_defaults(func=_cmd_gen)

    ver_p = sub.add_parser("version", help="print the toolkit version")
    ver_p.set_defaults(func=lambda args: (print(__version__), EXIT_OK)[1])

    return parser


# built on the first ``main`` call and shared by every later one: parse_args
# fills a fresh namespace each call, so no call sees another's flags
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
