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

A run draws every batch of every simulation kind in one process pool,
submitted up front.  While the workers draw, the main thread builds the
exact columns of every table, and one helper thread, started after the last
submission (so no worker is forked from a process made multi-threaded
here), merges the tallies as they arrive.  The simulated columns are filled
once both are done.  With one worker or one batch the same function draws
the batches in turn with a plain ``map``, then builds the exact columns.

Standard errors: probability cells use the binomial error sqrt(p(1-p)/R)
evaluated at the exact p (stable even for cells the simulation never
hits); mean cells use the empirical replicate variance.

``brute_force_law`` enumerates every admissible mapping for small n and
tallies the same statistics as exact rationals, each per-size law under the
name and in the tuple shape of its :mod:`laws` function (``core_size_counts``,
``core_size_law``, ``component_means``, ``cycle_means``, ``scream_law``);
``validate`` compares each closed form whole with the enumeration, with
exact equality.
"""

from __future__ import annotations

import decimal
import json
import math
import multiprocessing
import os
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import TypeVar

import numpy as np

from . import __version__, laws, samplers
from .exact import format_fixed, format_significant
from .laws import NoRepeatProbs

REPORT_SCHEMA = "screamingtoes-report/1"

_T = TypeVar("_T")

#: The n values of the reference probability-of-a-scream table.
Q_TABLE_NS = (5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100, 1000, 10000)

#: Each sampling route's first spawn-key word and the name of its batch
#: kernel in :mod:`samplers`, looked up per batch so that module wrappers see it.
_ROUTES = {
    "direct": (1, "toes_mapping_counts_batch"),
    "rejection": (2, "toes_component_counts_batch"),
    "core-joint": (3, "toes_core_cycle_counts_batch"),
}
METHODS = (*_ROUTES, "brute-force")

#: The models a run can report: either one alone, or both side by side.
REPORT_MODELS = ("toes", "standard", "both")

#: Most batches of one simulation kind that a run draws.  A run builds every
#: batch's task, its seed included, and submits them all to the pool at
#: once, which holds each until the run ends: about 2.5 KB a batch (measured
#: at n = 10), so the bound keeps that to about 25 MB.
MAX_BATCHES = 10_000

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
    """What to run: model size, replicate budget, seed, route, targets and
    the models they report (``model``: toes, standard or both)."""

    n: int | None = None
    replicates: int = 1_000_000
    seed: int = 20260808
    method: str | None = None
    tables: tuple[str, ...] = ("components",)
    workers: int | None = None
    batch_size: int = 125_000
    model: str = "both"

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
        batches = -(-self.replicates // self.batch_size)
        if batches > MAX_BATCHES:
            raise ValueError(
                f"{self.replicates} replicates in batches of {self.batch_size} make {batches} "
                f"batches, above the bound of {MAX_BATCHES}; raise --batch-size"
            )
        most_workers = 4 * default_workers()  # a pool forks every worker at its first task
        if self.workers is not None and not 1 <= self.workers <= most_workers:
            raise ValueError(f"workers must be between 1 and {most_workers} (4 per CPU)")
        if self.model not in REPORT_MODELS:
            raise ValueError(f"unknown model {self.model!r}; known: {REPORT_MODELS}")
        for table in self.tables:
            spec = _SPECS[table]
            if self.method is not None and spec.methods and self.method not in spec.methods:
                supported = sorted(s.name for s in _SPECS.values() if self.method in s.methods)
                raise ValueError(
                    f"the {self.method!r} method cannot produce the {table!r} table; "
                    f"it supports {supported}"
                )
            if self.size > spec.max_n:
                raise ValueError(
                    f"the {table} table is limited to n <= {spec.max_n} "
                    "(the cost of its exact column grows fast with n)"
                )
            if self.model == "standard" and not spec.standard:
                raise ValueError(f"the {table!r} table has no standard-model cells")
        if self.method == "brute-force" and self.size > samplers.ENUMERATION_MAX_N:
            raise ValueError(f"brute-force enumeration is limited to n <= {samplers.ENUMERATION_MAX_N}")

    @property
    def size(self) -> int:
        """The n of every table of the run (10 when n is unset)."""
        return self.n if self.n is not None else 10

    def method_for(self, table: str) -> str | None:
        """The method that fills the table's simulated column; None for an
        exact-only table, or when the run reports the standard model alone,
        which no method draws."""
        methods = _SPECS[table].methods
        if not methods or self.model == "standard":
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

#: One report cell before its simulated column is filled: (name, exact,
#: index read by its table's statistic, or None for no simulated column).
Cell = tuple[str, Fraction | float | None, int | None]


@dataclass(frozen=True)
class TableSpec:
    """One report table.  The first of ``methods`` fills it when no method
    is forced; an exact-only table has none.  ``statistic``, (kind, key),
    estimates its simulated column from a tally: "mean" (``key_sum`` and
    ``key_sumsq`` at a cell's index), "pmf" (histogram ``key`` at the index)
    or "ratio" (replicates over the ``key`` count).  ``max_n`` bounds the n
    of a run; ``standard`` says whether it has standard-model cells."""

    name: str
    aliases: tuple[str, ...]
    title: str
    methods: tuple[str, ...]
    statistic: tuple[str, str] | None
    cells: Callable[[ExperimentConfig], Iterator[Cell]]
    max_n: int
    standard: bool = False

    @property
    def reads(self) -> tuple[str, ...]:
        """The tally keys the statistic reads, which its method's batches fill."""
        if self.statistic is None:
            return ()
        kind, key = self.statistic
        return (f"{key}_sum", f"{key}_sumsq") if kind == "mean" else (key,)


def _q_cells(config: ExperimentConfig) -> Iterator[Cell]:
    for n in (config.n,) if config.n is not None else Q_TABLE_NS:
        yield f"q[n={n}]", laws.prob_someone_screams(n), None


def _law_cells(
    stat: str, var: str, law: str, config: ExperimentConfig, first: int | None = None,
    paired: bool = True,
) -> Iterator[Cell]:
    """The rows of one per-size exact law, its tuple ``laws.<law>(n, model)``
    read whole.  The law is looked up on :mod:`laws` per call, so that a
    patched or traced law is the one called.  The toes rows come first, and
    only they index the simulated column; the standard-model rows, named
    ``<stat>_std``, follow.  Each model's rows are built only when the run
    reports it.  A model's rows start at index ``first``, or else at its
    shortest cycle, and a row below that cycle has no exact value.  An
    unpaired law, ``laws.<law>(n)``, is the toes model's alone, with a row
    at every index from 0."""
    build = getattr(laws, law)
    for model in ("toes", "standard") if paired else ("toes",):
        if config.model not in (model, "both"):
            continue
        values = build(config.size, model) if paired else build(config.size)
        lo = laws._shortest_cycle(model) if paired else 0
        toes = model == "toes"
        name = stat if toes else f"{stat}_std"
        for i in range(lo if first is None else first, len(values)):
            yield f"{name}[{var}={i}]", values[i] if i >= lo else None, i if toes else None


def _repeat_cells(config: ExperimentConfig) -> Iterator[Cell]:
    exact = laws.prob_no_repeated_sizes(config.size)
    for idx, name in enumerate(("no_repeat_components", "no_repeat_cycles", "no_repeat_either")):
        yield name, exact[idx], idx


def _acceptance_cells(config: ExperimentConfig) -> Iterator[Cell]:
    exact = samplers.exact_acceptance_probability(config.size)
    yield "acceptance_rate", exact, 0


#: Every report table, by canonical name.  Each ``max_n`` is chosen from the
#: time ``exact --format json`` takes there (single runs, 2-vCPU host, Python
#: 3.11, every model of the table): q 2.2 s at n = 60 000 and 2.8 s at
#: 70 000; components 2.0-2.2 s at n = 1000 (1.1 s for one model) and
#: 7.3 s at 1500, most of it the mean tables; cycles 2.5 s at n = 2000 and
#: 7.4 s at 3000, core 2.0 s at n = 1500 and 4.3 s at 2000, and scream
#: 2.9-3.2 s at n = 3000 and 9 s at 4000, most of these three the emit of
#: their rationals.  The scream, repeats and acceptance bounds are constants
#: of their laws.
_SPECS = {
    spec.name: spec
    for spec in (
        TableSpec(
            "q", ("1",), "Probability that at least one pair screams", (), None, _q_cells,
            max_n=60_000,
        ),
        TableSpec(
            "components", ("2", "component-means"), "Mean number of components by size",
            ("rejection", "direct", "brute-force"), ("mean", "comp"),
            partial(_law_cells, "mean_components", "j", "component_means", first=1),
            max_n=1000, standard=True,
        ),
        TableSpec(
            "scream", ("3", "scream-pmf"), "Distribution of the number of screaming pairs",
            ("core-joint", "direct", "brute-force"), ("pmf", "scream_hist"),
            partial(_law_cells, "scream_pmf", "k", "scream_law", paired=False),
            max_n=laws.SCREAM_MAX_N,
        ),
        TableSpec(
            "cycles", ("cycle-means",), "Mean number of core cycles by length",
            ("core-joint", "direct", "brute-force"), ("mean", "cyc"),
            partial(_law_cells, "mean_cycles", "j", "cycle_means"),
            max_n=2000, standard=True,
        ),
        TableSpec(
            "core", ("core-size",), "Distribution of the core size",
            ("core-joint", "direct", "brute-force"), ("pmf", "core_hist"),
            partial(_law_cells, "core_size", "r", "core_size_law"),
            max_n=1500, standard=True,
        ),
        TableSpec(
            "repeats", ("repeated-sizes",), "Probability of no repeated sizes",
            ("direct", "brute-force"), ("pmf", "no_repeat"), _repeat_cells, max_n=laws.REPEATS_MAX_N,
        ),
        TableSpec(
            "acceptance", ("acceptance-rate",), "Rejection-sampler acceptance rate",
            ("rejection",), ("ratio", "attempts"), _acceptance_cells, max_n=samplers.ACCEPTANCE_MAX_N,
        ),
    )
}

TABLE_ALIASES = {
    alias: spec.name for spec in _SPECS.values() for alias in (spec.name, *spec.aliases)
}


# ---------------------------------------------------------------------------
# Batch simulation plumbing


def _simulate_batch(task: tuple) -> dict:
    """One batch's integer tally, by its route's kernel from ``default_rng``
    of the task's seed (an int or a ``SeedSequence``) and with the tally
    keys the run reads (the task's last entry), which only direct heeds."""
    kind, n, seed, size, reads = task
    kernel = getattr(samplers, _ROUTES[kind][1])
    return kernel(n, size, np.random.default_rng(seed), reads)


def _merge_tallies(parts: Iterable[tuple[str, dict]]) -> dict[str, dict]:
    """Sum each kind's (kind, tally) pairs as they arrive, so that only the
    running totals and one batch's tally are held at a time."""
    merged: dict[str, dict] = {}
    for kind, part in parts:
        total = merged.setdefault(kind, {})
        for key, value in part.items():
            total[key] = total[key] + value if key in total else value
    return merged


def _batch_tasks(config: ExperimentConfig, reads: dict[str, Iterable[str]]) -> list[tuple]:
    """Every batch of each simulation kind of ``reads`` at ``config.size``,
    kind by kind, each with the tally keys that ``reads`` names for its kind.
    Batch k of a kind is seeded with ``SeedSequence(seed % 2**64,
    spawn_key=(kind key, k))``, independent of worker count, of which other
    kinds run and of the keys read."""
    total = config.replicates
    root = config.seed % 2**64
    tasks = []
    for kind, keys in reads.items():
        keys = tuple(sorted(keys))
        for k, done in enumerate(range(0, total, config.batch_size)):
            seed = np.random.SeedSequence(root, spawn_key=(_ROUTES[kind][0], k))
            tasks.append((kind, config.size, seed, min(config.batch_size, total - done), keys))
    return tasks


def _simulate(
    tasks: list[tuple], workers: int, build: Callable[[], _T]
) -> tuple[dict[str, dict], _T]:
    """Every batch of ``tasks`` drawn and merged by kind, and ``build()``,
    which this thread calls while the batches are drawn.

    With more than one worker and batch, one process pool takes every batch
    up front: ``pool.map`` submits them all before it returns (its workers
    are all forked at the first submission), then yields the results in
    submission order, dropping each future as it goes.  Only after that
    does one helper thread start, to merge the tallies as they arrive, so
    no worker is forked from a process this function made multi-threaded,
    and no tally waits for ``build`` to finish.  Otherwise the batches are
    drawn one by one here, then ``build`` runs.

    On Linux the workers are forked whatever the platform's default start
    method (forkserver from Python 3.14), so they start without importing
    the package again; elsewhere they start the platform's way.
    """
    kinds = [task[0] for task in tasks]
    workers = min(workers, len(tasks))
    if workers <= 1:
        return _merge_tallies(zip(kinds, map(_simulate_batch, tasks))), build()
    context = multiprocessing.get_context("fork") if sys.platform.startswith("linux") else None
    with (
        ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool,
        ThreadPoolExecutor(1) as helper,
    ):
        results = pool.map(_simulate_batch, tasks)
        merged = helper.submit(_merge_tallies, zip(kinds, results))
        try:
            built = build()
            return merged.result(), built
        except BaseException:
            # a failed build or batch leaves no batch queued to run
            pool.shutdown(wait=False, cancel_futures=True)
            raise


# ---------------------------------------------------------------------------
# Table records

def _simulated_cell(tally: dict, kind: str, key: str, idx, exact) -> tuple[float, float, float]:
    """Estimate, standard error and z-score of one cell from merged tallies.
    The exact value is rounded to a float once.  A mean cell's sums are read
    as Python ints, whose square cannot wrap as an int64 one does past about
    3.04e9.  With no standard error, z is 0 at the exact value and otherwise
    infinite, with the sign of the deviation."""
    exact_f = float(exact)
    reps = tally["replicates"]
    if kind == "mean":
        total, total_sq = int(tally[f"{key}_sum"][idx]), int(tally[f"{key}_sumsq"][idx])
        simulated = float(total / reps)
        var = (total_sq - total**2 / reps) / max(reps - 1, 1)
        se = float(math.sqrt(max(var, 0.0) / reps))
    elif kind == "pmf":
        hist = tally[key]
        simulated = float(hist[idx] / reps)
        se = math.sqrt(exact_f * (1.0 - exact_f) / reps)
    else:  # ratio: accepted replicates per proposal
        attempts = int(tally[key])
        simulated = reps / attempts
        se = math.sqrt(exact_f * (1.0 - exact_f) / attempts)
    if se == 0.0:
        z = 0.0 if simulated == exact_f else math.copysign(math.inf, simulated - exact_f)
    else:
        z = (simulated - exact_f) / se
    return simulated, se, z


def _table_records(
    table: str, cells: list[Cell], source: dict | None, exhaustive: bool
) -> list[StatRecord]:
    """The table's cells with their simulated columns filled from ``source``,
    a merged tally or None.  An exhaustive tally (the brute-force oracle's)
    gives exact frequencies, so its cells have no standard error or z."""
    records = []
    for name, exact, idx in cells:
        simulated = se = z = None
        if idx is not None and exact is not None and source is not None:
            simulated, se, z = _simulated_cell(source, *_SPECS[table].statistic, idx, exact)
            if exhaustive:
                se = z = None
        records.append(StatRecord(table, name, exact, simulated, se, z))
    return records


def run_table(config: ExperimentConfig) -> ExperimentReport:
    """Produce every requested table in one report.

    Exact columns always appear; simulated columns appear when
    ``config.replicates > 0``, produced by the table's method (or
    ``config.method`` if forced).  The same simulation kind is shared by
    all tables that need it, so e.g. the scream and core tables of one run
    come from the same core-joint replicates, and a kind's batches fill the
    tally keys its tables read (``TableSpec.reads``).  Every batch of every
    kind goes to one worker pool, and the exact columns are built while it
    draws (:func:`_simulate`).
    """
    started = time.perf_counter()
    methods = [config.method_for(t) for t in config.tables] if config.replicates else []
    reads: dict[str, set[str]] = {}  # by kind, in the order the tables first use it
    for table, method in zip(config.tables, methods):
        if method in _ROUTES:
            reads.setdefault(method, set()).update(_SPECS[table].reads)
    sources, cells = _simulate(
        _batch_tasks(config, reads),
        config.resolved_workers(),
        lambda: {table: list(_SPECS[table].cells(config)) for table in config.tables},
    )
    if "brute-force" in methods:
        sources["brute-force"] = samplers.every_mapping_counts(config.size, "toes")[0]

    records: list[StatRecord] = []
    for table in config.tables:
        method = config.method_for(table)
        records.extend(
            _table_records(table, cells[table], sources.get(method), method == "brute-force")
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
    laws is exact equality, not a tolerance.  Each per-size law has the
    name and the shape of the :mod:`laws` function that it checks: a tuple
    indexed from 0, 0 where a size does not occur.  ``scream_law`` counts
    the core's 2-cycles in either model; :mod:`laws` has it for toes only.
    """

    n: int
    model: str
    total: int
    component_pmf: dict[tuple[int, ...], Fraction]
    joint_pmf: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]
    core_size_counts: tuple[int, ...]
    core_size_law: tuple[Fraction, ...]
    component_means: tuple[Fraction, ...]
    cycle_means: tuple[Fraction, ...]
    scream_law: tuple[Fraction, ...]
    no_repeat: NoRepeatProbs


def brute_force_law(n: int, model: str = "toes") -> BruteForceLaw:
    """Decompose every mapping (with or without the f(i) != i constraint)."""
    tally, joint_tally = samplers.every_mapping_counts(n, model)
    total = tally["replicates"]
    comp_tally = Counter()
    for (comp, _), count in joint_tally.items():
        comp_tally[comp] += count

    def law(key: str) -> tuple[Fraction, ...]:
        return tuple(Fraction(count, total) for count in tally[key].tolist())

    return BruteForceLaw(
        n=n,
        model=model,
        total=total,
        component_pmf={k: Fraction(v, total) for k, v in sorted(comp_tally.items())},
        joint_pmf={k: Fraction(v, total) for k, v in sorted(joint_tally.items())},
        core_size_counts=tuple(tally["core_hist"].tolist()),
        core_size_law=law("core_hist"),
        component_means=law("comp_sum"),
        cycle_means=law("cyc_sum"),
        scream_law=law("scream_hist"),
        no_repeat=NoRepeatProbs(*law("no_repeat")),
    )


def validate(n: int, model: str = "toes") -> list[tuple[str, bool]]:
    """Exact-equality checks of the enumeration against every closed form,
    each per-size law compared whole with the oracle's tuple of its name."""
    brute = brute_force_law(n, model)
    checks = [
        ("component_pmf", laws.component_pmf_table(n, model) == brute.component_pmf),
        ("core_size_pmf", laws.core_size_counts(n, model) == brute.core_size_counts
         and laws.core_size_law(n, model) == brute.core_size_law),
        ("mean_component_count", laws.component_means(n, model) == brute.component_means),
        ("mean_cycle_count", laws.cycle_means(n, model) == brute.cycle_means),
        ("expected_num_components",
         laws.expected_num_components(n, model) == sum(brute.component_means)),
    ]
    if model == "toes":
        checks += [
            ("scream_pmf", laws.scream_law(n) == brute.scream_law),
            ("prob_someone_screams", laws.prob_someone_screams(n) == 1 - brute.scream_law[0]),
            ("no_repeated_sizes", laws.prob_no_repeated_sizes(n) == brute.no_repeat),
        ]
    return checks


# ---------------------------------------------------------------------------
# Serialisation


# Exact values of more than 4300 digits, the interpreter's default limit on
# int<->str conversions (q_n at n = 10**4 has 38 185), are converted by
# divide and conquer, which leaves that interpreter-wide limit alone and is
# faster: CPython's own conversions are quadratic in the digits.

def _plain_digits() -> int:
    """Digits that ``str()`` and ``int()`` convert here: the interpreter's
    default limit, or a lower one that the caller has set."""
    limit = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    return min(limit, default) if limit else default


#: Exact arithmetic on decimal integers of any size, in libmpdec, whose
#: multiplication is subquadratic.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)

#: Bits of the pieces that :func:`_int_to_text` converts on their own, and
#: digits of those that :func:`_text_to_int` does; both below 640, the least
#: limit the interpreter takes.  Tuned on the n bounds of the cycles, core
#: and scream tables.
_PIECE_BITS = 2048
_PIECE_DIGITS = 600


@lru_cache(maxsize=None)  # one entry per doubling, up to the widest value converted
def _decimal_power_of_two(i: int) -> decimal.Decimal:
    """2**(_PIECE_BITS * 2**i) as a Decimal, squared up from i = 0."""
    if i == 0:
        return decimal.Decimal(1 << _PIECE_BITS)
    half = _decimal_power_of_two(i - 1)
    return _EXACT_DECIMAL.multiply(half, half)


def _as_decimal(value: int) -> decimal.Decimal:
    """``value`` >= 0 as a Decimal: split at the widest bit position
    ``_PIECE_BITS * 2**i`` below its top bit, each part converted the same
    way and the high one shifted by a cached power of two."""
    bits = value.bit_length()
    if bits <= _PIECE_BITS:
        return decimal.Decimal(value)
    i = ((bits - 1) // _PIECE_BITS).bit_length() - 1
    low = _PIECE_BITS << i
    high = _EXACT_DECIMAL.multiply(_as_decimal(value >> low), _decimal_power_of_two(i))
    return _EXACT_DECIMAL.add(high, _as_decimal(value & ((1 << low) - 1)))


def _int_to_text(value: int) -> str:
    """``str(value)``, also for more digits than :func:`_plain_digits`."""
    if value.bit_length() * math.log10(2) < _plain_digits():
        return str(value)
    return ("-" if value < 0 else "") + str(_as_decimal(abs(value)))


@lru_cache(maxsize=None)  # one entry per doubling, up to the widest value converted
def _power_of_ten(i: int) -> int:
    """10**(_PIECE_DIGITS * 2**i), squared up from i = 0."""
    return 10**_PIECE_DIGITS if i == 0 else _power_of_ten(i - 1) ** 2


def _digits_to_int(text: str) -> int:
    """The value of a string of decimal digits, split at the widest place
    ``_PIECE_DIGITS * 2**i`` below its first digit like :func:`_as_decimal`."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    i = ((len(text) - 1) // _PIECE_DIGITS).bit_length() - 1
    low = _PIECE_DIGITS << i
    return _digits_to_int(text[:-low]) * _power_of_ten(i) + _digits_to_int(text[-low:])


def _text_to_int(text: str) -> int:
    """``int(text)`` for the output of :func:`_int_to_text`, also for more
    digits than :func:`_plain_digits`."""
    if len(text) <= _plain_digits():
        return int(text)
    return -_digits_to_int(text[1:]) if text.startswith("-") else _digits_to_int(text)


#: Denominator strings that one ``emit`` call keeps.  A table's cells share
#: a few denominators (10 over the 501 scream cells at n = 1000, 19 over the
#: 999 toes core cells), and CPython's int-to-str is quadratic in the digits.
_DENOMINATOR_TEXTS = 16


def _exact_fields(value, denominator_text: Callable[[int], str]) -> dict:
    if value is None:
        return {"exact": None, "exact_rational": None, "exact_float": None}
    if isinstance(value, Fraction):
        return {
            "exact": format_significant(value),
            "exact_rational": f"{_int_to_text(value.numerator)}/{denominator_text(value.denominator)}",
            "exact_float": None,
        }
    return {"exact": repr(float(value)), "exact_rational": None, "exact_float": float(value)}


def emit(report: ExperimentReport, format: str = "pretty") -> str:
    """Serialise a report; deterministic byte-for-byte for a given report.

    pretty and csv round decimals to 4 places; json carries full precision
    (rationals verbatim).  Wall time is carried on the object only and is
    never serialised, keeping equal-config runs byte-identical.
    """
    if format == "json":
        denominator_text = lru_cache(maxsize=_DENOMINATOR_TEXTS)(_int_to_text)
        payload = {
            "schema": REPORT_SCHEMA,
            "metadata": report.metadata,
            "records": [
                {
                    "table": r.table,
                    "name": r.name,
                    **_exact_fields(r.exact, denominator_text),
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
    """Inverse of ``emit(report, "json")``; parse(emit(r)) == r.

    Each distinct denominator text is converted once, since a table's cells
    share a few; ``Fraction`` still reduces every value, as the text comes
    from outside the program."""
    payload = json.loads(text)
    denominator = lru_cache(maxsize=None)(_text_to_int)
    records = []
    for r in payload["records"]:
        if r["exact_rational"] is not None:
            num, den = r["exact_rational"].split("/")
            exact = Fraction(_text_to_int(num), denominator(den))
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
