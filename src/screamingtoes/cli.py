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
import sys

from . import harness


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with default values for these flags")
    parser.add_argument("--format", choices=("pretty", "csv", "json"), default=None)
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: SCREAMINGTOES_WORKERS or cpu count)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="replicates per batch/stream (default 125000)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 20260808)")


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
    _add_common(p_val)

    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        values = json.load(fh)
    for key, value in values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise SystemExit(f"config file key {key!r} is not a recognised flag")
        if getattr(args, attr) is None:  # flags override the file
            setattr(args, attr, value)


def _setdefaults(args: argparse.Namespace, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _emit(report, args) -> None:
    text = harness.emit(report, args.format, args.out)
    if not args.out:
        sys.stdout.write(text)


def _config(**fields) -> harness.ExperimentConfig:
    """The run's configuration; an invalid one, or a method that cannot
    produce a requested table, exits with a one-line message."""
    try:
        config = harness.ExperimentConfig(**fields)
        for table in config.tables:
            config.method_for(table)
    except ValueError as exc:
        raise SystemExit(f"screamingtoes: {exc}") from None
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_config_file(args)
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
            report.records = [
                r for r in report.records if ("_std[" in r.name) == keep_std
            ] or report.records
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
        config = _config(
            n=args.n, replicates=args.reps, seed=args.seed, method=args.method,
            tables=ids, workers=args.workers, batch_size=args.batch_size,
        )
        _emit(harness.run_table(config), args)
        return 0

    if args.command == "validate":
        _setdefaults(args, n=5, model="toes")
        if not 2 <= args.n <= 7:
            raise SystemExit("validate needs 2 <= n <= 7 (enumeration bound)")
        checks = harness.validate(args.n, args.model)
        width = max(len(name) for name, _ in checks)
        failed = False
        for name, ok in checks:
            print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
            failed = failed or not ok
        return 1 if failed else 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
