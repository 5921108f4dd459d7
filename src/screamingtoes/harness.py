"""Experiment runner: reproduce the reference tables and validate the laws.

A table run pairs the exact column (from :mod:`laws`) with a simulated
column (from :mod:`samplers`) and reports, per cell, the estimate, its
standard error, and the z-score against the exact value.  Replicates are
split into fixed-size batches.  Batch k of simulation kind K (direct = 1,
rejection = 2, core-joint = 3) runs on ``np.random.default_rng`` (PCG64) of
``SeedSequence(seed % 2**64, spawn_key=(K, k))``, so no two batches of a run,
and no two master seeds below 2**64, share a stream.  Batch tallies are
exact integer counts, so merged results are identical for any worker count
and reports are bit-for-bit reproducible for a given seed and
configuration.

Standard errors: probability cells use the binomial error sqrt(p(1-p)/R)
evaluated at the exact p (stable even for cells the simulation never
hits); mean cells use the empirical replicate variance.

``brute_force_law`` enumerates every admissible mapping for small n and
tallies the same statistics as exact rationals; ``validate`` compares that
enumeration against the closed forms with exact equality.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__, laws, samplers
from .exact import format_fixed, format_significant
from .laws import NoRepeatProbs

REPORT_SCHEMA = "screamingtoes-report/1"

#: Digits of the int<->str conversions that emit and parse_report allow
#: themselves: exact rationals at n = 10**4 have tens of thousands of
#: digits, past the interpreter's default guard.
INT_STR_DIGITS = 1_000_000

#: The n values of the reference probability-of-a-scream table.
Q_TABLE_NS = (5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100, 1000, 10000)

METHODS = ("direct", "rejection", "core-joint", "brute-force")

#: The first spawn-key word of each simulation kind's batch streams.
_KIND_KEY = {"direct": 1, "rejection": 2, "core-joint": 3}

#: The bit generator of ``np.random.default_rng``, behind every batch stream;
#: the report metadata names it.  (Touching ``np.random`` here would import
#: it with the package, a visible share of the CLI's start-up.)
_BIT_GENERATOR = "PCG64"


def canonical_table(name: str) -> str:
    key = str(name).strip().lower()
    if key not in TABLE_ALIASES:
        raise ValueError(f"unknown table {name!r}; known: {sorted(set(TABLE_ALIASES))}")
    return TABLE_ALIASES[key]


def default_workers() -> int:
    return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    """What to run: model size, replicate budget, seed, route and targets."""

    n: int | None = None
    replicates: int = 1_000_000
    seed: int = 20260808
    method: str | None = None
    tables: tuple[str, ...] = ("components",)
    workers: int | None = None
    batch_size: int = 125_000

    def __post_init__(self) -> None:
        # a table named twice, by any of its aliases, runs and reports once
        self.tables = tuple(dict.fromkeys(canonical_table(t) for t in self.tables))
        if self.n is not None and self.n < 2:
            raise ValueError(f"n must be >= 2 (got {self.n})")
        if self.method is not None and self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; known: {METHODS}")
        if self.replicates < 0:
            raise ValueError("replicates must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")
        for table in self.tables:
            methods = _SPECS[table].methods
            if self.method is not None and methods and self.method not in methods:
                supported = sorted(s.name for s in _SPECS.values() if self.method in s.methods)
                raise ValueError(
                    f"the {self.method!r} method cannot produce the {table!r} table; "
                    f"it supports {supported}"
                )
        if self.method == "brute-force" and self.size > samplers.ENUMERATION_MAX_N:
            raise ValueError(f"brute-force enumeration is limited to n <= {samplers.ENUMERATION_MAX_N}")
        if "repeats" in self.tables and self.size > laws.REPEATS_MAX_N:
            raise ValueError(
                f"the repeats table is limited to n <= {laws.REPEATS_MAX_N} "
                "(the cost of its exact joint law grows exponentially with n)"
            )
        if "acceptance" in self.tables and self.size > samplers.ACCEPTANCE_MAX_N:
            raise ValueError(
                f"the acceptance table is limited to n <= {samplers.ACCEPTANCE_MAX_N} "
                "(its exact recurrence is O(n**2))"
            )

    @property
    def size(self) -> int:
        """The n of every table of the run (10 when n is unset)."""
        return self.n if self.n is not None else 10

    def method_for(self, table: str) -> str | None:
        """The method that fills the table's simulated column; None for an
        exact-only table."""
        methods = _SPECS[table].methods
        if not methods:
            return None
        return self.method or methods[0]

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else default_workers()


@dataclass
class StatRecord:
    """One report cell: a named statistic with exact and simulated values."""

    table: str
    name: str
    exact: Fraction | float | None = None
    simulated: float | None = None
    std_error: float | None = None
    z: float | None = None


@dataclass
class ExperimentReport:
    records: list[StatRecord]
    metadata: dict
    wall_time: float = field(default=0.0, compare=False)  # never serialised

    def by_table(self) -> dict[str, list[StatRecord]]:
        grouped: dict[str, list[StatRecord]] = {}
        for rec in self.records:
            grouped.setdefault(rec.table, []).append(rec)
        return grouped


# ---------------------------------------------------------------------------
# Table specs

#: One report cell before its simulated column is filled:
#: (name, exact, kind, tally key, index).  ``kind`` says how the simulated
#: column is estimated: "mean" (tally ``key_sum``/``key_sumsq`` at the index),
#: "pmf" (histogram ``key`` at the index), "ratio" (replicates over the
#: ``key`` count) or None (no simulated column).
Cell = tuple[str, Fraction | float | None, str | None, str | None, int | None]


@dataclass(frozen=True)
class TableSpec:
    """One report table.  The first of ``methods`` fills it when no method
    is forced; an exact-only table has none."""

    name: str
    aliases: tuple[str, ...]
    title: str
    methods: tuple[str, ...]
    cells: Callable[[ExperimentConfig], Iterator[Cell]]


def _q_cells(config: ExperimentConfig) -> Iterator[Cell]:
    for n in (config.n,) if config.n is not None else Q_TABLE_NS:
        yield f"q[n={n}]", laws.prob_someone_screams(n), None, None, None


def _paired_cells(
    stat: str, var: str, toes: dict, standard: dict, kind: str, key: str
) -> Iterator[Cell]:
    """The toes cells of a statistic, then its standard-model column."""
    for i, exact in toes.items():
        yield f"{stat}[{var}={i}]", exact, kind, key, i
    for i, exact in standard.items():
        yield f"{stat}_std[{var}={i}]", exact, None, None, None


def _component_cells(config: ExperimentConfig) -> Iterator[Cell]:
    n = config.size
    toes = {j: None if j == 1 else laws.mean_component_count(n, j, "toes") for j in range(1, n + 1)}
    standard = {j: laws.mean_component_count(n, j, "standard") for j in range(1, n + 1)}
    return _paired_cells("mean_components", "j", toes, standard, "mean", "comp")


def _scream_cells(config: ExperimentConfig) -> Iterator[Cell]:
    n = config.size
    for k in range(0, n // 2 + 1):
        yield f"scream_pmf[k={k}]", laws.scream_pmf(n, k), "pmf", "scream_hist", k


def _cycle_cells(config: ExperimentConfig) -> Iterator[Cell]:
    n = config.size
    return _paired_cells(
        "mean_cycles", "j", laws.cycle_mean_table(n, "toes"),
        laws.cycle_mean_table(n, "standard"), "mean", "cyc",
    )


def _core_cells(config: ExperimentConfig) -> Iterator[Cell]:
    n = config.size
    return _paired_cells(
        "core_size", "r", laws.core_size_table(n, "toes"),
        laws.core_size_table(n, "standard"), "pmf", "core_hist",
    )


def _repeat_cells(config: ExperimentConfig) -> Iterator[Cell]:
    exact = laws.prob_no_repeated_sizes(config.size)
    for idx, name in enumerate(("no_repeat_components", "no_repeat_cycles", "no_repeat_either")):
        yield name, exact[idx], "pmf", "no_repeat", idx


def _acceptance_cells(config: ExperimentConfig) -> Iterator[Cell]:
    exact = samplers.exact_acceptance_probability(config.size)
    yield "acceptance_rate", exact, "ratio", "attempts", None


#: Every report table, by canonical name.
_SPECS = {
    spec.name: spec
    for spec in (
        TableSpec("q", ("1",), "Probability that at least one pair screams", (), _q_cells),
        TableSpec(
            "components", ("2", "component-means"), "Mean number of components by size",
            ("rejection", "direct", "brute-force"), _component_cells,
        ),
        TableSpec(
            "scream", ("3", "scream-pmf"), "Distribution of the number of screaming pairs",
            ("core-joint", "direct", "brute-force"), _scream_cells,
        ),
        TableSpec(
            "cycles", ("cycle-means",), "Mean number of core cycles by length",
            ("core-joint", "direct", "brute-force"), _cycle_cells,
        ),
        TableSpec(
            "core", ("core-size",), "Distribution of the core size",
            ("core-joint", "direct", "brute-force"), _core_cells,
        ),
        TableSpec(
            "repeats", ("repeated-sizes",), "Probability of no repeated sizes",
            ("direct", "brute-force"), _repeat_cells,
        ),
        TableSpec(
            "acceptance", ("acceptance-rate",), "Rejection-sampler acceptance rate",
            ("rejection",), _acceptance_cells,
        ),
    )
}

TABLE_ALIASES = {
    alias: spec.name for spec in _SPECS.values() for alias in (spec.name, *spec.aliases)
}


# ---------------------------------------------------------------------------
# Batch simulation plumbing


def _simulate_batch(task: tuple) -> dict:
    """One batch of one simulation kind, drawn from ``default_rng`` of the
    task's seed (an int or a ``SeedSequence``); returns integer tallies only
    (keys as in :func:`samplers.zero_tally`)."""
    kind, n, seed, size = task
    rng = np.random.default_rng(seed)
    if kind == "direct":
        return {"replicates": size, **samplers.toes_mapping_counts_batch(n, size, rng)}
    if kind == "rejection":
        tally, attempts = samplers.toes_component_counts_batch(n, size, rng)
        return {"replicates": size, "attempts": attempts, **tally}
    if kind == "core-joint":
        return {"replicates": size, **samplers.toes_core_cycle_counts_batch(n, size, rng)}
    raise ValueError(f"unknown simulation kind {kind!r}")


def _merge_tallies(parts: Iterable[dict]) -> dict:
    """Sum the tallies as they arrive, so that only the running total and
    one batch's tally are held at a time."""
    merged: dict = {}
    for part in parts:
        for key, value in part.items():
            if key in merged:
                merged[key] = merged[key] + value
            else:
                merged[key] = value
    return merged


def _run_simulation(kind: str, config: ExperimentConfig) -> dict:
    """All batches of one simulation kind at ``config.size``, merged.  Batch
    k of this kind is seeded with ``SeedSequence(seed % 2**64,
    spawn_key=(kind key, k))``, independent of worker count and of which
    other kinds run."""
    total = config.replicates
    root = config.seed % 2**64
    tasks = []
    for k, done in enumerate(range(0, total, config.batch_size)):
        seed = np.random.SeedSequence(root, spawn_key=(_KIND_KEY[kind], k))
        tasks.append((kind, config.size, seed, min(config.batch_size, total - done)))
    workers = config.resolved_workers()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            return _merge_tallies(pool.map(_simulate_batch, tasks))
    return _merge_tallies(map(_simulate_batch, tasks))


# ---------------------------------------------------------------------------
# Table records

def _simulated_cell(tally: dict, kind: str, key: str, idx, exact) -> tuple[float, float, float]:
    """Estimate, standard error and z-score of one cell from merged tallies.
    The exact value is rounded to a float once."""
    exact_f = float(exact)
    reps = tally["replicates"]
    if kind == "mean":
        total, total_sq = tally[f"{key}_sum"][idx], tally[f"{key}_sumsq"][idx]
        simulated = float(total / reps)
        var = (total_sq - total**2 / reps) / max(reps - 1, 1)
        se = float(math.sqrt(max(var, 0.0) / reps))
    elif kind == "pmf":
        hist = tally[key]
        simulated = float(hist[idx] / reps) if idx < len(hist) else 0.0
        se = math.sqrt(exact_f * (1.0 - exact_f) / reps)
    else:  # ratio: accepted replicates per proposal
        attempts = int(tally[key])
        simulated = reps / attempts
        se = math.sqrt(exact_f * (1.0 - exact_f) / attempts)
    if se == 0.0:
        z = 0.0 if simulated == exact_f else math.inf
    else:
        z = (simulated - exact_f) / se
    return simulated, se, z


def _table_records(
    spec: TableSpec, config: ExperimentConfig, source: dict | None, exhaustive: bool
) -> list[StatRecord]:
    """The table's cells with their simulated columns filled from ``source``,
    a merged tally or None.  An exhaustive tally (the brute-force oracle's)
    gives exact frequencies, so its cells have no standard error or z."""
    records = []
    for name, exact, kind, key, idx in spec.cells(config):
        simulated = se = z = None
        if kind is not None and exact is not None and source is not None:
            simulated, se, z = _simulated_cell(source, kind, key, idx, exact)
            if exhaustive:
                se = z = None
        records.append(StatRecord(spec.name, name, exact, simulated, se, z))
    return records


def run_table(config: ExperimentConfig) -> ExperimentReport:
    """Produce every requested table in one report.

    Exact columns always appear; simulated columns appear when
    ``config.replicates > 0``, produced by the table's method (or
    ``config.method`` if forced).  The same simulation kind is shared by
    all tables that need it, so e.g. the scream and core tables of one run
    come from the same core-joint replicates.
    """
    started = time.perf_counter()
    sources: dict[str, dict] = {}
    for table in config.tables:
        method = config.method_for(table)
        if method is None or config.replicates == 0 or method in sources:
            continue
        if method == "brute-force":
            sources[method] = samplers.every_mapping_counts(config.size, "toes")[0]
        else:
            sources[method] = _run_simulation(method, config)

    records: list[StatRecord] = []
    for table in config.tables:
        method = config.method_for(table)
        records.extend(
            _table_records(_SPECS[table], config, sources.get(method), method == "brute-force")
        )

    metadata = {
        "schema": REPORT_SCHEMA,
        "n": config.n,
        "replicates": config.replicates,
        "seed": config.seed,
        "method": config.method,
        "tables": list(config.tables),
        "batch_size": config.batch_size,
        "seed_splitting": (
            "batch k of kind K (direct=1, rejection=2, core-joint=3) uses "
            "SeedSequence(seed % 2**64, spawn_key=(K, k))"
        ),
        "bit_generator": _BIT_GENERATOR,
        "version": __version__,
    }
    return ExperimentReport(records, metadata, wall_time=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Exhaustive enumeration (the oracle for small n)


@dataclass
class BruteForceLaw:
    """Exact frequencies over every admissible mapping of size n.

    All probabilities are Fractions with denominator (n-1)**n for the toes
    model (n**n for the standard model), so agreement with the closed-form
    laws is exact equality, not a tolerance.
    """

    n: int
    model: str
    total: int
    component_pmf: dict[tuple[int, ...], Fraction]
    cycle_pmf: dict[tuple[int, ...], Fraction]
    joint_pmf: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]
    core_pmf: dict[int, Fraction]
    scream_pmf: dict[int, Fraction]
    component_means: dict[int, Fraction]
    cycle_means: dict[int, Fraction]
    mean_components: Fraction
    no_repeat: NoRepeatProbs


def brute_force_law(n: int, model: str = "toes") -> BruteForceLaw:
    """Decompose every mapping (with or without the f(i) != i constraint)."""
    tally, joint_tally = samplers.every_mapping_counts(n, model)
    total = tally["replicates"]
    comp_tally, cyc_tally = Counter(), Counter()
    for (comp, cyc), count in joint_tally.items():
        comp_tally[comp] += count
        cyc_tally[cyc] += count

    def as_prob(counts) -> dict:
        return {k: Fraction(v, total) for k, v in sorted(dict(counts).items()) if v}

    comp_sum, cyc_sum = tally["comp_sum"].tolist(), tally["cyc_sum"].tolist()
    return BruteForceLaw(
        n=n,
        model=model,
        total=total,
        component_pmf=as_prob(comp_tally),
        cycle_pmf=as_prob(cyc_tally),
        joint_pmf=as_prob(joint_tally),
        core_pmf=as_prob(enumerate(tally["core_hist"].tolist())),
        scream_pmf=as_prob(enumerate(tally["scream_hist"].tolist())),
        component_means={j: Fraction(comp_sum[j], total) for j in range(1, n + 1)},
        cycle_means={j: Fraction(cyc_sum[j], total) for j in range(1, n + 1)},
        mean_components=Fraction(sum(comp_sum), total),
        no_repeat=NoRepeatProbs(*(Fraction(v, total) for v in tally["no_repeat"].tolist())),
    )


def validate(n: int, model: str = "toes") -> list[tuple[str, bool]]:
    """Exact-equality checks of the enumeration against every closed form."""
    brute = brute_force_law(n, model)
    checks: list[tuple[str, bool]] = []

    pmf_table = laws.component_pmf_table(n, model)
    checks.append(("component_pmf", pmf_table == brute.component_pmf))

    lo = laws._shortest_cycle(model)
    core_counts = tuple(brute.core_pmf.get(r, 0) * brute.total for r in range(n + 1))
    core_ok = laws.core_size_counts(n, model) == core_counts and all(
        laws.core_size_pmf(n, r, model) == brute.core_pmf.get(r, Fraction(0))
        for r in range(lo, n + 1)
    )
    checks.append(("core_size_pmf", core_ok))

    mean_ok = all(
        laws.mean_component_count(n, j, model) == brute.component_means[j]
        for j in range(lo, n + 1)
    ) and (Fraction(0) == brute.component_means.get(1, Fraction(0)) or model == "standard")
    checks.append(("mean_component_count", mean_ok))

    cyc_ok = all(
        laws.mean_cycle_count(n, j, model) == brute.cycle_means[j]
        for j in range(lo, n + 1)
    )
    checks.append(("mean_cycle_count", cyc_ok))

    checks.append(
        ("expected_num_components", laws.expected_num_components(n, model) == brute.mean_components)
    )

    if model == "toes":
        scream_ok = all(
            laws.scream_pmf(n, k) == brute.scream_pmf.get(k, Fraction(0))
            for k in range(0, n // 2 + 1)
        )
        checks.append(("scream_pmf", scream_ok))
        checks.append(("prob_someone_screams",
                       laws.prob_someone_screams(n) == 1 - brute.scream_pmf.get(0, Fraction(0))))
        checks.append(("no_repeated_sizes", laws.prob_no_repeated_sizes(n) == brute.no_repeat))
    return checks


# ---------------------------------------------------------------------------
# Serialisation


@contextlib.contextmanager
def _long_int_strings():
    """Allow int<->str conversions of up to INT_STR_DIGITS digits inside the
    block, and restore the interpreter's own limit after it (0 is none)."""
    old = sys.get_int_max_str_digits()
    raise_limit = 0 < old < INT_STR_DIGITS
    if raise_limit:
        sys.set_int_max_str_digits(INT_STR_DIGITS)
    try:
        yield
    finally:
        if raise_limit:
            sys.set_int_max_str_digits(old)


def _exact_fields(value) -> dict:
    if value is None:
        return {"exact": None, "exact_rational": None, "exact_float": None}
    if isinstance(value, Fraction):
        return {
            "exact": format_significant(value),
            "exact_rational": f"{value.numerator}/{value.denominator}",
            "exact_float": None,
        }
    return {"exact": repr(float(value)), "exact_rational": None, "exact_float": float(value)}


def emit(report: ExperimentReport, format: str = "pretty") -> str:
    """Serialise a report; deterministic byte-for-byte for a given report.

    pretty and csv round decimals to 4 places; json carries full precision
    (rationals verbatim).  Wall time is carried on the object only and is
    never serialised, keeping equal-config runs byte-identical.
    """
    with _long_int_strings():
        return _serialise(report, format)


def _serialise(report: ExperimentReport, format: str) -> str:
    if format == "json":
        payload = {
            "schema": REPORT_SCHEMA,
            "metadata": report.metadata,
            "records": [
                {
                    "table": r.table,
                    "name": r.name,
                    **_exact_fields(r.exact),
                    "simulated": r.simulated,
                    "std_error": r.std_error,
                    "z": None if r.z is None else (r.z if math.isfinite(r.z) else repr(r.z)),
                }
                for r in report.records
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif format == "csv":
        lines = ["statistic,exact,simulated,std_error,z"]
        for r in report.records:
            lines.append(
                ",".join(
                    [
                        r.name,
                        _fmt4(r.exact),
                        _fmt4(r.simulated),
                        _fmt4(r.std_error),
                        _fmt4(r.z),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    elif format == "pretty":
        text = _pretty(report)
    else:
        raise ValueError(f"unknown format {format!r}; use pretty, csv or json")
    return text


def _fmt4(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return format_fixed(value, 4)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return f"{value:.4f}"


def _pretty(report: ExperimentReport) -> str:
    lines: list[str] = []
    for table, records in report.by_table().items():
        lines.append(_SPECS[table].title if table in _SPECS else table)
        if table == "q":
            lines.append(f"{'n':>8}  {'q_n':>8}")
            for r in records:
                n = r.name.split("=")[1].rstrip("]")
                lines.append(f"{n:>8}  {_fmt4(r.exact):>8}")
        else:
            lines.append(f"{'statistic':<28}{'exact':>10}{'simulated':>12}{'std_error':>12}{'z':>9}")
            for r in records:
                lines.append(
                    f"{r.name:<28}{_fmt4(r.exact):>10}{_fmt4(r.simulated):>12}"
                    f"{_fmt4(r.std_error):>12}{_fmt4(r.z):>9}"
                )
        lines.append("")
    return "\n".join(lines)


def parse_report(text: str) -> ExperimentReport:
    """Inverse of ``emit(report, "json")``; parse(emit(r)) == r."""
    payload = json.loads(text)
    records = []
    for r in payload["records"]:
        if r["exact_rational"] is not None:
            num, den = r["exact_rational"].split("/")
            with _long_int_strings():
                exact = Fraction(int(num), int(den))
        elif r["exact_float"] is not None:
            exact = float(r["exact_float"])
        else:
            exact = None
        z = r["z"]
        if isinstance(z, str):
            z = float(z)
        records.append(
            StatRecord(r["table"], r["name"], exact, r["simulated"], r["std_error"], z)
        )
    return ExperimentReport(records, payload["metadata"])


__all__ = [
    "BruteForceLaw",
    "ExperimentConfig",
    "ExperimentReport",
    "Q_TABLE_NS",
    "StatRecord",
    "brute_force_law",
    "canonical_table",
    "default_workers",
    "emit",
    "parse_report",
    "run_table",
    "validate",
]
