"""Experiment runner: reproduce the reference tables and validate the laws.

A table run pairs the exact column (from :mod:`laws`) with a simulated
column (from :mod:`samplers`) and reports, per cell, the estimate, its
standard error, and the z-score against the exact value.  Replicates are
split into fixed-size batches; batch k of a simulation kind runs on the
stream seeded with ``kind_seed XOR k``, and batch tallies are exact integer
counts, so merged results are identical for any worker count and reports
are bit-for-bit reproducible for a given seed and configuration.

Standard errors: probability cells use the binomial error sqrt(p(1-p)/R)
evaluated at the exact p (stable even for cells the simulation never
hits); mean cells use the empirical replicate variance.

``brute_force_law`` enumerates every admissible mapping for small n and
tallies the same statistics as exact rationals; ``validate`` compares that
enumeration against the closed forms with exact equality.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import laws, samplers
from .exact import format_fixed, to_mpf
from .laws import NoRepeatProbs
from .samplers import RngStream

REPORT_SCHEMA = "screamingtoes-report/1"

#: Digits of the int<->str conversions that emit and parse_report allow
#: themselves: exact rationals at n = 10**4 have tens of thousands of
#: digits, past the interpreter's default guard.
INT_STR_DIGITS = 1_000_000

#: The n values of the reference probability-of-a-scream table.
Q_TABLE_NS = (5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100, 1000, 10000)

TABLES = ("q", "components", "scream", "cycles", "core", "repeats", "acceptance")

TABLE_ALIASES = {
    "1": "q",
    "q": "q",
    "2": "components",
    "components": "components",
    "component-means": "components",
    "3": "scream",
    "scream": "scream",
    "scream-pmf": "scream",
    "cycles": "cycles",
    "cycle-means": "cycles",
    "core": "core",
    "core-size": "core",
    "repeats": "repeats",
    "repeated-sizes": "repeats",
    "acceptance": "acceptance",
    "acceptance-rate": "acceptance",
}

METHODS = ("direct", "rejection", "core-joint", "brute-force")

#: Which simulation route feeds which table when no method is forced.
DEFAULT_METHOD = {
    "components": "rejection",
    "acceptance": "rejection",
    "scream": "core-joint",
    "cycles": "core-joint",
    "core": "core-joint",
    "repeats": "direct",
}

#: Tables each method can honestly produce.
METHOD_TABLES = {
    "direct": {"components", "scream", "cycles", "core", "repeats"},
    "rejection": {"components", "acceptance"},
    "core-joint": {"scream", "cycles", "core"},
    "brute-force": {"components", "scream", "cycles", "core", "repeats"},
}

_KIND_OFFSET = {"direct": 1, "rejection": 2, "core-joint": 3}

ENV_WORKERS = "SCREAMINGTOES_WORKERS"


def canonical_table(name: str) -> str:
    key = str(name).strip().lower()
    if key not in TABLE_ALIASES:
        raise ValueError(f"unknown table {name!r}; known: {sorted(set(TABLE_ALIASES))}")
    return TABLE_ALIASES[key]


def default_workers() -> int:
    env = os.environ.get(ENV_WORKERS)
    if env:
        return max(1, int(env))
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
        self.tables = tuple(canonical_table(t) for t in self.tables)
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
        if self.method == "brute-force":
            n = self.size_for(self.tables[0]) if self.tables else (self.n or 0)
            if n > 7:
                raise ValueError("brute-force enumeration is limited to n <= 7")
        if "repeats" in self.tables and self.size_for("repeats") > laws.REPEATS_MAX_N:
            raise ValueError(
                f"the repeats table is limited to n <= {laws.REPEATS_MAX_N} "
                "(the cost of its exact joint law grows exponentially with n)"
            )

    def size_for(self, table: str) -> int:
        if self.n is not None:
            return self.n
        return 10

    def method_for(self, table: str) -> str | None:
        if table == "q":
            return None
        if self.method is not None:
            if table not in METHOD_TABLES[self.method]:
                raise ValueError(
                    f"the {self.method!r} method cannot produce the {table!r} table; "
                    f"it supports {sorted(METHOD_TABLES[self.method])}"
                )
            return self.method
        return DEFAULT_METHOD[table]

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
# Batch simulation plumbing


def _simulate_batch(task: tuple) -> dict:
    """One batch of one simulation kind; returns integer tallies only
    (keys as in :func:`samplers.zero_tally`).  The direct route draws and
    decomposes the batch in chunks of ``samplers.chunk_rows(n)`` rows; the
    chunks' draws are the batch's draws, so the tallies do not depend on the
    chunk size."""
    kind, n, seed, size = task
    rng = RngStream(seed)
    if kind == "direct":
        tally = samplers.zero_tally(
            n, "comp_sum", "comp_sumsq", "cyc_sum", "cyc_sumsq",
            "scream_hist", "core_hist", "no_repeat",
        )
        step = samplers.chunk_rows(n)
        for done in range(0, size, step):
            images = samplers.sample_mappings_batch(n, min(step, size - done), rng)
            dec = samplers.decompose_batch(images)
            comp, cyc = dec.component_counts, dec.cycle_counts
            samplers.tally_moments(tally, "comp", comp)
            samplers.tally_cycles(tally, cyc)
            tally["core_hist"] += np.bincount(dec.core_sizes, minlength=n + 1)
            no_comp = (comp <= 1).all(axis=1)
            no_cyc = (cyc <= 1).all(axis=1)
            tally["no_repeat"] += [no_comp.sum(), no_cyc.sum(), (no_comp & no_cyc).sum()]
        return {"replicates": size, **tally}
    if kind == "rejection":
        comp, attempts = samplers.toes_component_counts_batch(n, size, rng)
        tally = samplers.zero_tally(n, "comp_sum", "comp_sumsq")
        samplers.tally_moments(tally, "comp", comp)
        return {"replicates": size, "attempts": attempts, **tally}
    if kind == "core-joint":
        return {"replicates": size, **samplers.toes_core_cycle_counts_batch(n, size, rng)}
    raise ValueError(f"unknown simulation kind {kind!r}")


def _merge_tallies(parts: list[dict]) -> dict:
    merged: dict = {}
    for part in parts:
        for key, value in part.items():
            if key in merged:
                merged[key] = merged[key] + value
            else:
                merged[key] = value
    return merged


def _run_simulation(kind: str, n: int, config: ExperimentConfig) -> dict:
    """All batches of one simulation kind, merged.  Batch k of this kind is
    seeded with (master XOR kind_offset<<32) XOR k, independent of worker
    count and of which other kinds run."""
    total = config.replicates
    kind_seed = config.seed ^ (_KIND_OFFSET[kind] << 32)
    tasks = []
    done = 0
    k = 0
    while done < total:
        size = min(config.batch_size, total - done)
        tasks.append((kind, n, kind_seed ^ k, size))
        done += size
        k += 1
    workers = config.resolved_workers()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            parts = list(pool.map(_simulate_batch, tasks))
    else:
        parts = [_simulate_batch(t) for t in tasks]
    return _merge_tallies(parts)


def _mean_cell(tally_sum, tally_sumsq, reps: int, j: int) -> tuple[float, float]:
    mean = tally_sum[j] / reps
    var = (tally_sumsq[j] - tally_sum[j] ** 2 / reps) / max(reps - 1, 1)
    return float(mean), float(math.sqrt(max(var, 0.0) / reps))


def _pmf_cell(hist, reps: int, idx: int, exact: Fraction) -> tuple[float, float]:
    p_hat = float(hist[idx] / reps) if idx < len(hist) else 0.0
    p = float(to_mpf(exact))
    return p_hat, math.sqrt(p * (1.0 - p) / reps)


def _zscore(simulated: float, exact: Fraction | float, se: float) -> float:
    exact_f = float(to_mpf(exact)) if isinstance(exact, Fraction) else float(exact)
    if se == 0.0:
        return 0.0 if simulated == exact_f else math.inf
    return (simulated - exact_f) / se


def _record(table, name, exact, simulated=None, se=None) -> StatRecord:
    z = None
    if simulated is not None and exact is not None and se is not None:
        z = _zscore(simulated, exact, se)
    return StatRecord(table, name, exact, simulated, se, z)


# ---------------------------------------------------------------------------
# Table builders


def _table_q(config: ExperimentConfig) -> list[StatRecord]:
    ns = (config.n,) if config.n is not None else Q_TABLE_NS
    return [_record("q", f"q[n={n}]", laws.prob_someone_screams(n)) for n in ns]


def _brute_columns(n: int) -> "BruteForceLaw":
    return brute_force_law(n, "toes")


def _table_components(config: ExperimentConfig, tally: dict | None, brute) -> list[StatRecord]:
    n = config.size_for("components")
    records = []
    for j in range(1, n + 1):
        exact = None if j == 1 else laws.mean_component_count(n, j, "toes")
        sim = se = None
        if tally is not None and exact is not None:
            sim, se = _mean_cell(tally["comp_sum"], tally["comp_sumsq"], tally["replicates"], j)
        elif brute is not None and exact is not None:
            sim = float(to_mpf(brute.component_means.get(j, Fraction(0))))
        records.append(_record("components", f"mean_components[j={j}]", exact, sim, se))
    for j in range(1, n + 1):
        records.append(
            _record(
                "components",
                f"mean_components_std[j={j}]",
                laws.mean_component_count(n, j, "standard"),
            )
        )
    return records


def _table_scream(config: ExperimentConfig, tally: dict | None, brute) -> list[StatRecord]:
    n = config.size_for("scream")
    records = []
    for k in range(0, n // 2 + 1):
        exact = laws.scream_pmf(n, k)
        sim = se = None
        if tally is not None:
            sim, se = _pmf_cell(tally["scream_hist"], tally["replicates"], k, exact)
        elif brute is not None:
            sim = float(to_mpf(brute.scream_pmf.get(k, Fraction(0))))
        records.append(_record("scream", f"scream_pmf[k={k}]", exact, sim, se))
    return records


def _table_cycles(config: ExperimentConfig, tally: dict | None, brute) -> list[StatRecord]:
    n = config.size_for("cycles")
    toes = laws.cycle_mean_table(n, "toes")
    records = []
    for j in range(2, n + 1):
        exact = toes[j]
        sim = se = None
        if tally is not None:
            sim, se = _mean_cell(tally["cyc_sum"], tally["cyc_sumsq"], tally["replicates"], j)
        elif brute is not None:
            sim = float(to_mpf(brute.cycle_means.get(j, Fraction(0))))
        records.append(_record("cycles", f"mean_cycles[j={j}]", exact, sim, se))
    standard = laws.cycle_mean_table(n, "standard")
    for j in range(1, n + 1):
        records.append(_record("cycles", f"mean_cycles_std[j={j}]", standard[j]))
    return records


def _table_core(config: ExperimentConfig, tally: dict | None, brute) -> list[StatRecord]:
    n = config.size_for("core")
    toes = laws.core_size_table(n, "toes")
    records = []
    for r in range(2, n + 1):
        exact = toes[r]
        sim = se = None
        if tally is not None:
            sim, se = _pmf_cell(tally["core_hist"], tally["replicates"], r, exact)
        elif brute is not None:
            sim = float(to_mpf(brute.core_pmf.get(r, Fraction(0))))
        records.append(_record("core", f"core_size[r={r}]", exact, sim, se))
    standard = laws.core_size_table(n, "standard")
    for r in range(1, n + 1):
        records.append(_record("core", f"core_size_std[r={r}]", standard[r]))
    return records


def _table_repeats(config: ExperimentConfig, tally: dict | None, brute) -> list[StatRecord]:
    n = config.size_for("repeats")
    exact = laws.prob_no_repeated_sizes(n)
    names = ("no_repeat_components", "no_repeat_cycles", "no_repeat_either")
    records = []
    for idx, name in enumerate(names):
        sim = se = None
        if tally is not None:
            sim, se = _pmf_cell(tally["no_repeat"], tally["replicates"], idx, exact[idx])
        elif brute is not None:
            sim = float(to_mpf(brute.no_repeat[idx]))
        records.append(_record("repeats", name, exact[idx], sim, se))
    return records


def _table_acceptance(config: ExperimentConfig, tally: dict | None) -> list[StatRecord]:
    n = config.size_for("acceptance")
    exact = samplers.exact_acceptance_probability(n)
    sim = se = None
    if tally is not None and tally.get("attempts"):
        attempts = int(tally["attempts"])
        sim = tally["replicates"] / attempts
        se = math.sqrt(exact * (1.0 - exact) / attempts)
    return [_record("acceptance", "acceptance_rate", exact, sim, se)]


def run_table(config: ExperimentConfig) -> ExperimentReport:
    """Produce every requested table in one report.

    Exact columns always appear; simulated columns appear when
    ``config.replicates > 0``, produced by the table's method (or
    ``config.method`` if forced).  The same simulation kind is shared by
    all tables that need it, so e.g. the scream and core tables of one run
    come from the same core-joint replicates.
    """
    started = time.perf_counter()
    needed_kinds: dict[str, int] = {}
    brute_needed = False
    for table in config.tables:
        method = config.method_for(table)
        if method is None or config.replicates == 0:
            continue
        if method == "brute-force":
            brute_needed = True
        else:
            n = config.size_for(table)
            needed_kinds["%s:%d" % (method, n)] = n

    tallies: dict[str, dict] = {}
    for key, n in needed_kinds.items():
        kind = key.split(":")[0]
        tallies[key] = _run_simulation(kind, n, config)
    brute = _brute_columns(config.size_for(config.tables[0])) if brute_needed else None

    def tally_for(table: str) -> dict | None:
        method = config.method_for(table)
        if method is None or method == "brute-force" or config.replicates == 0:
            return None
        return tallies.get("%s:%d" % (method, config.size_for(table)))

    def brute_for(table: str):
        method = config.method_for(table)
        if method == "brute-force" and config.replicates > 0:
            return brute
        return None

    records: list[StatRecord] = []
    for table in config.tables:
        if table == "q":
            records.extend(_table_q(config))
        elif table == "components":
            records.extend(_table_components(config, tally_for(table), brute_for(table)))
        elif table == "scream":
            records.extend(_table_scream(config, tally_for(table), brute_for(table)))
        elif table == "cycles":
            records.extend(_table_cycles(config, tally_for(table), brute_for(table)))
        elif table == "core":
            records.extend(_table_core(config, tally_for(table), brute_for(table)))
        elif table == "repeats":
            records.extend(_table_repeats(config, tally_for(table), brute_for(table)))
        elif table == "acceptance":
            records.extend(_table_acceptance(config, tally_for(table)))

    metadata = {
        "schema": REPORT_SCHEMA,
        "n": config.n,
        "replicates": config.replicates,
        "seed": config.seed,
        "method": config.method,
        "tables": list(config.tables),
        "batch_size": config.batch_size,
        "seed_splitting": "kind_seed = seed XOR kind_offset<<32; batch k uses kind_seed XOR k",
    }
    return ExperimentReport(records, metadata, wall_time=time.perf_counter() - started)


def repeated_size_stats(
    n: int,
    replicates: int,
    seed: int,
    workers: int | None = None,
    batch_size: int = 125_000,
) -> tuple[float, float, float]:
    """Monte Carlo (no repeated component size, no repeated cycle length,
    neither) probabilities by direct simulation of `replicates` mappings.
    No exact column is built, so n is not bounded by REPEATS_MAX_N."""
    if n < 2:
        raise ValueError("need n >= 2")
    config = ExperimentConfig(
        n=n,
        replicates=replicates,
        seed=seed,
        tables=(),
        workers=workers,
        batch_size=batch_size,
    )
    tally = _run_simulation("direct", n, config)
    reps = tally["replicates"]
    return tuple(float(c / reps) for c in tally["no_repeat"])  # type: ignore[return-value]


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
    if model not in ("standard", "toes"):
        raise ValueError("model must be 'standard' or 'toes'")
    if not 2 <= n <= 7:
        raise ValueError("brute-force enumeration is limited to 2 <= n <= 7")
    if model == "toes":
        choices = [[j for j in range(n) if j != i] for i in range(n)]
        total = (n - 1) ** n
    else:
        choices = [list(range(n)) for _ in range(n)]
        total = n**n

    comp_tally: dict[tuple[int, ...], int] = {}
    cyc_tally: dict[tuple[int, ...], int] = {}
    joint_tally: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    core_tally: dict[int, int] = {}
    scream_tally: dict[int, int] = {}
    comp_sum = [0] * (n + 1)
    cyc_sum = [0] * (n + 1)
    components_total = 0
    no_rep = [0, 0, 0]

    count = 0
    for image in itertools.product(*choices):
        count += 1
        comp_sizes, cycle_lens, _ = samplers._decompose_image(image)
        comp_key = tuple(sorted(comp_sizes))
        cyc_key = tuple(sorted(cycle_lens))
        comp_tally[comp_key] = comp_tally.get(comp_key, 0) + 1
        cyc_tally[cyc_key] = cyc_tally.get(cyc_key, 0) + 1
        joint_tally[(comp_key, cyc_key)] = joint_tally.get((comp_key, cyc_key), 0) + 1
        core = sum(cycle_lens)
        core_tally[core] = core_tally.get(core, 0) + 1
        twos = sum(1 for c in cycle_lens if c == 2)
        scream_tally[twos] = scream_tally.get(twos, 0) + 1
        for s in comp_sizes:
            comp_sum[s] += 1
        for c in cycle_lens:
            cyc_sum[c] += 1
        components_total += len(comp_sizes)
        nc = len(set(comp_sizes)) == len(comp_sizes)
        ny = len(set(cycle_lens)) == len(cycle_lens)
        no_rep[0] += nc
        no_rep[1] += ny
        no_rep[2] += nc and ny
    assert count == total

    as_prob = lambda tally: {k: Fraction(v, total) for k, v in sorted(tally.items())}
    return BruteForceLaw(
        n=n,
        model=model,
        total=total,
        component_pmf=as_prob(comp_tally),
        cycle_pmf=as_prob(cyc_tally),
        joint_pmf=as_prob(joint_tally),
        core_pmf=as_prob(core_tally),
        scream_pmf=as_prob(scream_tally),
        component_means={j: Fraction(comp_sum[j], total) for j in range(1, n + 1)},
        cycle_means={j: Fraction(cyc_sum[j], total) for j in range(1, n + 1)},
        mean_components=Fraction(components_total, total),
        no_repeat=NoRepeatProbs(*(Fraction(v, total) for v in no_rep)),
    )


def validate(n: int, model: str = "toes") -> list[tuple[str, bool]]:
    """Exact-equality checks of the enumeration against every closed form."""
    brute = brute_force_law(n, model)
    checks: list[tuple[str, bool]] = []

    pmf_table = laws.component_pmf_table(n, model)
    checks.append(("component_pmf", pmf_table.entries == brute.component_pmf))

    lo = 2 if model == "toes" else 1
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
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
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
        import mpmath

        return {
            "exact": mpmath.nstr(to_mpf(value), 20),
            "exact_rational": f"{value.numerator}/{value.denominator}",
            "exact_float": None,
        }
    return {"exact": repr(float(value)), "exact_rational": None, "exact_float": float(value)}


def emit(report: ExperimentReport, format: str = "pretty", out: str | None = None) -> str:
    """Serialise a report; deterministic byte-for-byte for a given report.

    pretty and csv round decimals to 4 places; json carries full precision
    (rationals verbatim).  Wall time is carried on the object only and is
    never serialised, keeping equal-config runs byte-identical.
    """
    with _long_int_strings():
        text = _serialise(report, format)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    return text


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


_TABLE_TITLES = {
    "q": "Probability that at least one pair screams",
    "components": "Mean number of components by size",
    "scream": "Distribution of the number of screaming pairs",
    "cycles": "Mean number of core cycles by length",
    "core": "Distribution of the core size",
    "repeats": "Probability of no repeated sizes",
    "acceptance": "Rejection-sampler acceptance rate",
}


def _pretty(report: ExperimentReport) -> str:
    lines: list[str] = []
    for table, records in report.by_table().items():
        lines.append(_TABLE_TITLES.get(table, table))
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
    "TABLES",
    "brute_force_law",
    "canonical_table",
    "default_workers",
    "emit",
    "parse_report",
    "repeated_size_stats",
    "run_table",
    "validate",
]
