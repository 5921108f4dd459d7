"""Correctness checks on the CLI's output, applied to every benchmark run.

* Exact cells: every rational cell equals the golden value stored in
  ``golden.json`` (compared as a SHA-256 over each table's names and
  rationals, written by ``make_golden.py`` when the benchmark was added);
  float-valued exact cells (the acceptance rate) agree to a relative 1e-12,
  because an exact recurrence may legitimately change their last bits.
* Simulated cells: the acceptance-suite gate per table -- no |z| above 5 and
  only a few cells with |z| above 2 -- on every cell whose expected count is
  large enough for a z-score to mean something.  Sparser cells get an exact
  Poisson tail test instead.  Simulated values are never golden-checked.
* ``validate``: every line reads PASS.

The |z| > 2 allowance is the count a correct sampler exceeds with
probability below ``FALSE_ALARM`` per table (binomial with the normal
two-sided 2-sigma rate), not the suite's fixed ``max(1, cells // 20)``: the
benchmark draws a fresh seed for every run, and with the fixed allowance a
correct sampler fails on a sizeable share of seeds (at n = 10, seeds 16 to 23
fail it; at n = 1000 every seed does, on cells a few replicates reach).
"""

from __future__ import annotations

import hashlib
import json
import math
import re

from scipy.special import gammainc, gammaincc

Z_MAX = 5.0
Z_WARN = 2.0
#: Expected count from which a cell's z-score is taken at face value.
DENSE_COUNT = 50.0
#: Chance that a correct table exceeds the |z| > 2 allowance.
FALSE_ALARM = 1e-6
#: Two-sided Poisson tail below which a sparse cell fails (about 6 sigma).
SPARSE_TAIL = 1e-9
FLOAT_RTOL = 1e-12

_PASS_LINE = re.compile(r"^\S+\s+PASS$")


def records_digest(report: dict) -> str:
    """Digest of a report's records; metadata is left out on purpose."""
    blob = json.dumps(report["records"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def exact_summary(report: dict) -> dict:
    """Per table: cell count, SHA-256 over (name, exact rational) in order,
    and the float-valued exact cells."""
    tables: dict[str, dict] = {}
    hashes: dict = {}
    for rec in report["records"]:
        entry = tables.setdefault(rec["table"], {"cells": 0, "floats": {}})
        entry["cells"] += 1
        if rec["exact_float"] is not None:
            entry["floats"][rec["name"]] = rec["exact_float"]
        line = f"{rec['name']}\t{rec['exact_rational'] or ''}\n"
        hashes.setdefault(rec["table"], hashlib.sha256()).update(line.encode())
    for table, entry in tables.items():
        entry["sha256"] = hashes[table].hexdigest()
    return tables


def check_exact(report: dict, golden: dict) -> list[str]:
    problems = []
    seen = exact_summary(report)
    if sorted(seen) != sorted(golden):
        return [f"tables {sorted(seen)} differ from the golden {sorted(golden)}"]
    for table, want in golden.items():
        got = seen[table]
        if got["cells"] != want["cells"] or got["sha256"] != want["sha256"]:
            problems.append(f"{table}: exact rational cells differ from the golden values")
        for name, value in want["floats"].items():
            actual = got["floats"].get(name)
            if actual is None or abs(actual - value) > FLOAT_RTOL * abs(value):
                problems.append(f"{name}: exact {actual!r} differs from golden {value!r}")
    return problems


def _exact_value(rec: dict) -> float:
    if rec["exact_rational"] is not None:
        num, den = rec["exact_rational"].split("/")
        return int(num) / int(den)
    return float(rec["exact_float"])


def warn_allowance(cells: int) -> int:
    """The |z| > 2 count that a correct table of `cells` dense cells exceeds
    with probability at most FALSE_ALARM (cells taken as independent)."""
    p = math.erfc(Z_WARN / math.sqrt(2.0))
    tail = 1.0
    for k in range(cells + 1):
        tail -= math.comb(cells, k) * p**k * (1.0 - p) ** (cells - k)
        if tail <= FALSE_ALARM:
            return k
    return cells


def _sparse_tail(observed: int, expected: float) -> float:
    """One-sided Poisson tail in the direction of the deviation."""
    if observed > expected:
        return float(gammainc(observed, expected))  # P(X >= observed)
    if observed < expected:
        return float(gammaincc(observed + 1, expected))  # P(X <= observed)
    return 1.0


def check_simulated(report: dict) -> tuple[list[str], int]:
    """Gate problems, and the number of cells whose reported z is not finite
    (a degenerate standard error, reported but not a failure on its own)."""
    reps = report["metadata"]["replicates"]
    by_table: dict[str, list[dict]] = {}
    for rec in report["records"]:
        if rec["z"] is not None and rec["simulated"] is not None:
            by_table.setdefault(rec["table"], []).append(rec)
    problems = []
    nonfinite = 0
    for table, recs in by_table.items():
        dense_z = []
        for rec in recs:
            z = float(rec["z"])
            nonfinite += not math.isfinite(z)
            expected = _exact_value(rec) * reps
            if expected >= DENSE_COUNT:
                dense_z.append(z)
                if not abs(z) <= Z_MAX:
                    problems.append(f"{rec['name']}: |z| = {abs(z):.2f} > {Z_MAX}")
                continue
            observed = round(rec["simulated"] * reps)
            tail = _sparse_tail(observed, expected)
            if tail < SPARSE_TAIL:
                problems.append(
                    f"{rec['name']}: count {observed} against expected {expected:.3g}, "
                    f"Poisson tail {tail:.2g}"
                )
        over = sum(abs(z) > Z_WARN for z in dense_z)
        allowed = warn_allowance(len(dense_z))
        if over > allowed:
            problems.append(f"{table}: {over} of {len(dense_z)} cells with |z| > {Z_WARN}, "
                            f"allowed {allowed}")
    return problems, nonfinite


def check_validate(stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return ["validate printed nothing"]
    return [f"validate: {line!r}" for line in lines if not _PASS_LINE.match(line)]


def check_report_text(text: str, golden: dict) -> tuple[list[str], str | None, int]:
    """All checks on one JSON report: (problems, records digest, non-finite z)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"], None, 0
    problems = check_exact(report, golden)
    gate, nonfinite = check_simulated(report)
    return problems + gate, records_digest(report), nonfinite
