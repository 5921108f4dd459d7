"""Command-line interface.

Subcommands:

* ``exact``     -- exact columns of any table (no simulation).
* ``simulate``  -- exact plus simulated columns for one table.
* ``tables``    -- reproduce the reference tables (1, 2, 3, cycles, core).
* ``validate``  -- brute-force enumeration vs. closed forms, exact equality.

Flags can also be supplied via ``--config file.json`` (keys matching the
flag names); explicit flags win over the file.  ``SCREAMINGTOES_WORKERS``
sets the default worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness


#: Flags that ``validate`` parses (unlisted in its help), so that a mistaken
#: one gets a one-line error rather than a usage dump, and then rejects.
_NOT_FOR_VALIDATE = ("format", "workers", "batch_size")


def _add_common(parser: argparse.ArgumentParser, validate: bool = False) -> None:
    hidden = argparse.SUPPRESS if validate else None
    parser.add_argument("--config", help="JSON file with default values for these flags")
    parser.add_argument("--format", choices=("pretty", "csv", "json"), default=None, help=hidden)
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--workers", type=int, default=None, help=hidden or
                        "parallel workers (default: SCREAMINGTOES_WORKERS or cpu count)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help=hidden or "replicates per batch/stream (default 125000)")
    parser.add_argument("--seed", type=int, default=None, help=(
        "accepted and unused: the enumeration draws no random numbers" if validate
        else "master seed (default 20260808)"
    ))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screamingtoes",
        description="Exact and simulated statistics of mappings where nobody "
                    "looks at their own feet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact law/moment tables, no simulation")
    p_exact.add_argument("--table", required=True, help=f"one of {sorted(set(harness.TABLE_ALIASES))}")
    p_exact.add_argument("--n", type=int, default=None)
    p_exact.add_argument("--model", choices=("toes", "standard", "both"), default=None)
    _add_common(p_exact)

    p_sim = sub.add_parser("simulate", help="exact and simulated columns for one table")
    p_sim.add_argument("--table", required=True)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--reps", type=int, default=None, help="replicates (default 1000000)")
    p_sim.add_argument("--method", choices=harness.METHODS, default=None,
                       help="simulation route (default depends on the table)")
    _add_common(p_sim)

    p_tab = sub.add_parser("tables", help="reproduce the reference tables")
    p_tab.add_argument("--tables", default=None,
                       help="comma-separated ids (default 1,2,3,cycles,core)")
    p_tab.add_argument("--n", type=int, default=None)
    p_tab.add_argument("--reps", type=int, default=None)
    p_tab.add_argument("--method", choices=harness.METHODS, default=None)
    _add_common(p_tab)

    p_val = sub.add_parser("validate", help="enumeration oracle vs closed forms (n <= 7)")
    p_val.add_argument("--n", type=int, default=None)
    p_val.add_argument("--model", choices=("toes", "standard"), default=None)
    _add_common(p_val, validate=True)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill unset flags from ``--config``; each value must have the type and
    be one of the choices that the subcommand's own flag takes."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
        raise SystemExit(f"screamingtoes: cannot read --config {args.config}: {exc}") from None
    if not isinstance(values, dict):
        raise SystemExit(f"screamingtoes: --config {args.config} must hold one JSON object")
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    flags = {a.dest: a for a in command._actions if a.default is not argparse.SUPPRESS}
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            raise SystemExit(f"screamingtoes: config file key {key!r} is not a recognised flag")
        wanted = flags[attr].type or str
        choices = list(flags[attr].choices or ())
        if type(value) is not wanted or (choices and value not in choices):  # a bool is not an int here
            expected = f"one of {choices}" if choices else "an integer" if wanted is int else "a string"
            raise SystemExit(f"screamingtoes: config file key {key!r} must be {expected}, not {value!r}")
        if getattr(args, attr) is None:  # flags override the file
            setattr(args, attr, value)


def _setdefaults(args: argparse.Namespace, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _write_stdout(text: str) -> None:
    """Write and flush stdout.  A reader that has gone away (``| head``) ends the
    run with exit 1 and one line; stdout is pointed at devnull first, because
    the interpreter flushes it again at exit and would print a traceback."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit("screamingtoes: stdout closed before all output was written") from None


def _emit(report, args) -> None:
    text = harness.emit(report, args.format, args.out)
    if not args.out:
        _write_stdout(text)


def _config(**fields) -> harness.ExperimentConfig:
    """The run's configuration; an invalid one, including a method that
    cannot produce a requested table or a malformed worker count in the
    environment, exits with a one-line message."""
    try:
        config = harness.ExperimentConfig(**fields)
        config.resolved_workers()
    except ValueError as exc:
        raise SystemExit(f"screamingtoes: {exc}") from None
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config_file(parser, args)
    if args.command == "validate":
        for flag in _NOT_FOR_VALIDATE:
            if getattr(args, flag) is not None:
                raise SystemExit(
                    f"screamingtoes: validate takes no --{flag.replace('_', '-')}; "
                    "it prints PASS/FAIL lines from one enumeration"
                )
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise SystemExit(f"screamingtoes: --out {args.out} is not a file in an existing directory")
    _setdefaults(args, format="pretty", seed=20260808, batch_size=125_000)

    if args.command == "exact":
        _setdefaults(args, model="both")
        config = _config(
            n=args.n, replicates=0, seed=args.seed, tables=(args.table,),
            workers=args.workers, batch_size=args.batch_size,
        )
        report = harness.run_table(config)
        if args.model != "both":
            keep_std = args.model == "standard"
            report.records = [r for r in report.records if ("_std[" in r.name) == keep_std]
            if not report.records:
                raise SystemExit(
                    f"screamingtoes: the {config.tables[0]!r} table has no standard-model cells"
                )
        _emit(report, args)
        return 0

    if args.command == "simulate":
        _setdefaults(args, reps=1_000_000)
        config = _config(
            n=args.n, replicates=args.reps, seed=args.seed, method=args.method,
            tables=(args.table,), workers=args.workers, batch_size=args.batch_size,
        )
        _emit(harness.run_table(config), args)
        return 0

    if args.command == "tables":
        _setdefaults(args, tables="1,2,3,cycles,core", reps=1_000_000)
        ids = tuple(t.strip() for t in str(args.tables).split(",") if t.strip())
        if not ids:
            raise SystemExit("screamingtoes: --tables names no table")
        config = _config(
            n=args.n, replicates=args.reps, seed=args.seed, method=args.method,
            tables=ids, workers=args.workers, batch_size=args.batch_size,
        )
        _emit(harness.run_table(config), args)
        return 0

    if args.command == "validate":
        _setdefaults(args, n=5, model="toes")
        if not 2 <= args.n <= 7:
            raise SystemExit("screamingtoes: validate needs 2 <= n <= 7 (enumeration bound)")
        checks = harness.validate(args.n, args.model)
        width = max(len(name) for name, _ in checks)
        text = "".join(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}\n" for name, ok in checks)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            _write_stdout(text)
        return 0 if all(ok for _, ok in checks) else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
