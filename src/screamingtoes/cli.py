"""Command-line interface.

Subcommands:

* ``exact``     -- exact columns of any table (no simulation).
* ``simulate``  -- exact plus simulated columns for one table.
* ``tables``    -- reproduce the reference tables (1, 2, 3, cycles, core).
* ``validate``  -- brute-force enumeration vs. closed forms, exact equality.

argparse checks every flag.  ``--config file.json`` holds flag values keyed by
flag name; they are parsed as flags placed before the command line's own, so
explicit flags win.  Any bad input, argparse's own errors included, exits
with status 1 and one ``screamingtoes:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The package makes no BLAS call, so numpy's OpenBLAS needs no thread pool.
# Set before the import below brings in numpy, this keeps the CLI from
# spending CPU on idle BLAS threads, and it forks its worker pool from a
# single-threaded process.  A caller's own setting is left as it is.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import harness, samplers

_RUN = harness.ExperimentConfig  # holds the run defaults, which the flags take


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are one line, also when they quote an argument
    that holds a newline, and exit status 1, not a usage dump and status 2;
    ``add_subparsers`` builds subparsers of the same class."""

    def error(self, message: str):
        raise SystemExit(f"screamingtoes: {message}".replace("\n", "\\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="screamingtoes",
        description="Exact and simulated statistics of mappings where nobody "
                    "looks at their own feet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact law/moment tables, no simulation")
    p_exact.add_argument("--table", required=True, help=f"one of {sorted(set(harness.TABLE_ALIASES))}")
    p_exact.add_argument("--model", choices=harness.REPORT_MODELS, default=_RUN.model,
                         help="the models whose laws are built (default %(default)s)")
    # exact draws nothing: no --workers, --batch-size or --seed, and the
    # metadata's batch size and seed are the defaults
    p_exact.set_defaults(reps=0, method=None, workers=None, batch_size=_RUN.batch_size,
                         seed=_RUN.seed)

    p_sim = sub.add_parser("simulate", help="exact and simulated columns for one table")
    p_sim.add_argument("--table", required=True)

    p_tab = sub.add_parser("tables", help="reproduce the reference tables")
    p_tab.add_argument("--tables", default="1,2,3,cycles,core",
                       help="comma-separated ids (default %(default)s)")

    p_val = sub.add_parser("validate", help="enumeration oracle vs closed forms "
                           f"(n <= {samplers.ENUMERATION_MAX_N})")
    p_val.add_argument("--n", type=int, default=5, choices=range(2, samplers.ENUMERATION_MAX_N + 1))
    p_val.add_argument("--model", choices=("toes", "standard"), default="toes")
    p_val.add_argument("--seed", type=int,
                       help="accepted and unused: the enumeration draws no random numbers")

    for p in (p_sim, p_tab):
        p.add_argument("--reps", type=int, default=_RUN.replicates,
                       help="replicates (default %(default)s)")
        p.add_argument("--method", choices=harness.METHODS,
                       help="simulation route (default depends on the table)")
        p.set_defaults(model=_RUN.model)
        p.add_argument("--workers", type=int,
                       help="parallel workers (default: cpu count)")
        p.add_argument("--batch-size", type=int, default=_RUN.batch_size,
                       help="replicates per batch/stream (default %(default)s)")
        p.add_argument("--seed", type=int, default=_RUN.seed, help="master seed (default %(default)s)")
    for p in (p_exact, p_sim, p_tab):
        p.add_argument("--n", type=int)
        p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    for p in (p_exact, p_sim, p_tab, p_val):
        p.add_argument("--config", help="JSON file of flag values; flags given here win")
        p.add_argument("--out", help="write output to this path instead of stdout")

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; with ``--config``, parse it again with the file's values
    as ``--key=value`` flags put right after the subcommand, so that argparse
    checks them and the command line's own flags win."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
        raise SystemExit(f"screamingtoes: cannot read --config {args.config}: {exc}") from None
    if not isinstance(values, dict):
        raise SystemExit(f"screamingtoes: --config {args.config} must hold one JSON object")
    at = argv.index(args.command) + 1
    tokens = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    try:
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    except SystemExit as exc:  # argv alone parsed, so the file is at fault
        raise SystemExit(f"{exc.code} (in --config {args.config})") from None
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr not in args:  # an abbreviation, such as "rep" for --reps
            raise SystemExit(f"screamingtoes: config file key {key!r} is not a flag of {args.command}")
        wanted = type(getattr(args, attr))  # "n": "6" parses as an integer, "table": true as "True"
        if type(value) is not wanted:
            expected = "an integer" if wanted is int else "a string"
            raise SystemExit(f"screamingtoes: config file key {key!r} must be {expected}, not {value!r}")
    return args


def _write(text: str, out: str | None) -> None:
    """Write to ``--out``, or write and flush stdout.  Any error from opening,
    writing or closing the output (a closed stdout under ``| head``, a full
    device) exits 1 with one line.  A failed stdout is pointed at devnull
    first, because the interpreter flushes it again at exit and would print
    a traceback."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"screamingtoes: cannot write --out {out}: {exc.strerror or exc}") from None
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise SystemExit("screamingtoes: stdout closed before all output was written") from None
        raise SystemExit(f"screamingtoes: cannot write stdout: {exc.strerror or exc}") from None


def _report(args: argparse.Namespace) -> harness.ExperimentReport:
    """Run the configuration of ``exact``, ``simulate`` or ``tables``; an
    invalid one (say, a method that cannot fill a table, ``exact --model
    standard`` on a toes-only table, or ``simulate`` of an exact-only table)
    exits with one line before any law is built."""
    if "table" in args:
        tables = (args.table,)
    else:
        tables = tuple(t.strip() for t in args.tables.split(",") if t.strip())
        if not tables:
            raise SystemExit("screamingtoes: --tables names no table")
    try:
        config = _RUN(n=args.n, replicates=args.reps, seed=args.seed, method=args.method,
                      tables=tables, workers=args.workers, batch_size=args.batch_size,
                      model=args.model)
    except ValueError as exc:
        raise SystemExit(f"screamingtoes: {exc}") from None
    if args.command == "simulate" and config.method_for(config.tables[0]) is None:
        table = config.tables[0]  # simulate reports both models, so the table is exact-only
        raise SystemExit(f"screamingtoes: the {table!r} table has no simulated column; "
                         f"use exact --table {table}")
    return harness.run_table(config)


def main(argv: list[str] | None = None) -> int:
    args = _parse(build_parser(), list(sys.argv[1:] if argv is None else argv))
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise SystemExit(f"screamingtoes: --out {args.out} is not a file in an existing directory")

    if args.command == "validate":
        checks = harness.validate(args.n, args.model)
        width = max(len(name) for name, _ in checks)
        lines = (f"{name:<{width}}  {'PASS' if ok else 'FAIL'}\n" for name, ok in checks)
        _write("".join(lines), args.out)
        return 0 if all(ok for _, ok in checks) else 1

    _write(harness.emit(_report(args), args.format), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
