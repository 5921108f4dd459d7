"""Acceptance suite.

Each test enforces one exit criterion at its stated tolerance and prints a
PASS line when it holds (run with ``pytest -s`` to see the lines; a failed
criterion fails its test).  The million-replicate experiments are run once
per session and shared.

Reference-table comparisons use a tolerance of one unit in the fourth
decimal place: the frozen strings are the published 4 d.p. table values,
and the exact values here are additionally pinned to the closed forms and
to exhaustive enumeration, so the tolerance only absorbs the formatting of
the reference tables, not model error.
"""

import math
import time
from fractions import Fraction as F

import pytest

from oracles import core_identity_sides
from screamingtoes import harness, laws
from screamingtoes.exact import format_fixed
from screamingtoes.harness import ExperimentConfig, run_table

SEED = 20260808
REPLICATES = 1_000_000
N = 10

Q_VALUES = {
    5: "0.5664", 10: "0.4654", 15: "0.4386", 20: "0.4264", 30: "0.4148",
    40: "0.4093", 50: "0.4060", 60: "0.4039", 70: "0.4023", 80: "0.4012",
    90: "0.4003", 100: "0.3996", 1000: "0.3941", 10000: "0.3935",
}
SCREAM_10 = {0: "0.5346", 1: "0.3809", 2: "0.0789", 3: "0.0055", 4: "0.0001", 5: "0.0000"}
COMPONENT_MEANS_TOES_10 = {
    2: "0.0744", 3: "0.0771", 4: "0.0734", 5: "0.0699", 6: "0.0673",
    7: "0.0654", 8: "0.0608", 9: "0.0000", 10: "0.7629",
}
COMPONENT_MEANS_STD_10 = {
    1: "0.3874", 2: "0.2265", 3: "0.1680", 4: "0.1391", 5: "0.1235",
    6: "0.1160", 7: "0.1150", 8: "0.1225", 9: "0.1489", 10: "0.3660",
}
CYCLE_MEANS_TOES_10 = {
    2: "0.5555", 3: "0.3292", 4: "0.1920", 5: "0.1024", 6: "0.0474",
    7: "0.0181", 8: "0.0053", 9: "0.0010", 10: "0.0001",
}
CYCLE_MEANS_STD_10 = {
    1: "1.0000", 2: "0.4500", 3: "0.2400", 4: "0.1260", 5: "0.0605",
    6: "0.0252", 7: "0.0086", 8: "0.0023", 9: "0.0004", 10: "0.0000",
}
CORE_PMF_TOES_10 = {
    2: "0.2581", 3: "0.2065", 4: "0.2168", 5: "0.1590", 6: "0.0958",
    7: "0.0447", 8: "0.0153", 9: "0.0034", 10: "0.0004",
}
CORE_PMF_STD_10 = {
    1: "0.1000", 2: "0.1800", 3: "0.2160", 4: "0.2016", 5: "0.1512",
    6: "0.0907", 7: "0.0423", 8: "0.0145", 9: "0.0033", 10: "0.0004",
}
NO_REPEAT_REFERENCE = (0.959, 0.898, 0.879)
ACCEPTANCE_RATE_REFERENCE = 0.247


def _passed(cid: str, detail: str) -> None:
    print(f"\nacceptance {cid}: PASS ({detail})")


def _within_one_ulp4(exact, printed: str) -> bool:
    return abs(float(exact) - float(printed)) <= 1e-4 + 1e-12


@pytest.fixture(scope="module")
def rejection_report():
    return run_table(ExperimentConfig(
        n=N, replicates=REPLICATES, seed=SEED,
        tables=("components", "acceptance"), workers=1,
    ))


@pytest.fixture(scope="module")
def corejoint_report():
    return run_table(ExperimentConfig(
        n=N, replicates=REPLICATES, seed=SEED,
        tables=("scream", "cycles", "core"), workers=1,
    ))


@pytest.fixture(scope="module")
def direct_report():
    return run_table(ExperimentConfig(
        n=N, replicates=REPLICATES, seed=SEED, method="direct",
        tables=("components", "cycles", "repeats"), workers=1,
    ))


def _cells(report, table):
    return {r.name: r for r in report.records if r.table == table}


def _gate(records):
    """No |z| above 5; at most 1 in 20 cells (and never more than 1 cell
    for tables of up to 20 cells) above 2."""
    zs = [r.z for r in records if r.z is not None]
    assert zs, "no simulated cells found"
    assert all(abs(z) <= 5 for z in zs), [f"{r.name}: z={r.z:.2f}" for r in records if r.z]
    over = [z for z in zs if abs(z) > 2]
    assert len(over) <= max(1, len(zs) // 20)
    return max(abs(z) for z in zs)


def test_c1_exact_q_table():
    started = time.perf_counter()
    report = run_table(ExperimentConfig(replicates=0, tables=("q",)))
    elapsed = time.perf_counter() - started
    cells = {r.name: r.exact for r in report.records}
    for n, printed in Q_VALUES.items():
        assert format_fixed(cells[f"q[n={n}]"]) == printed, n
    assert elapsed < 5.0
    _passed("C1", f"14 q values exact to 4 d.p. in {elapsed:.2f}s")


def test_c2_exact_scream_table():
    for k, printed in SCREAM_10.items():
        assert format_fixed(laws.scream_pmf(10, k)) == printed, k
    _passed("C2", "screaming-pair pmf at n=10 exact to 4 d.p.")


def test_c3_exact_columns_n10():
    for j, printed in COMPONENT_MEANS_TOES_10.items():
        assert _within_one_ulp4(laws.mean_component_count(10, j, "toes"), printed), j
    for j, printed in COMPONENT_MEANS_STD_10.items():
        assert _within_one_ulp4(laws.mean_component_count(10, j, "standard"), printed), j
    for j, printed in CYCLE_MEANS_TOES_10.items():
        assert _within_one_ulp4(laws.mean_cycle_count(10, j, "toes"), printed), j
    for j, printed in CYCLE_MEANS_STD_10.items():
        assert _within_one_ulp4(laws.mean_cycle_count(10, j, "standard"), printed), j
    for r, printed in CORE_PMF_TOES_10.items():
        assert _within_one_ulp4(laws.core_size_pmf(10, r, "toes"), printed), r
    for r, printed in CORE_PMF_STD_10.items():
        assert _within_one_ulp4(laws.core_size_pmf(10, r, "standard"), printed), r

    # cells named by the criterion, at their printed values
    assert laws.mean_component_count(10, 9, "toes") == 0
    assert format_fixed(laws.mean_component_count(10, 10, "toes")) == "0.7629"
    assert laws.mean_cycle_count(10, 2, "toes") == F(5, 9)
    assert _within_one_ulp4(F(5, 9), "0.5555")
    assert format_fixed(laws.core_size_pmf(10, 2, "toes")) == "0.2581"
    assert format_fixed(laws.mean_component_count(10, 1, "standard")) == "0.3874"
    assert format_fixed(laws.mean_cycle_count(10, 1, "standard")) == "1.0000"
    assert format_fixed(laws.core_size_pmf(10, 4, "standard")) == "0.2016"
    _passed("C3", "all exact n=10 columns within one unit of the 4th decimal")


def test_c4_identity_suite():
    for n in range(2, 51):
        for m in range(1, n + 1):
            lhs, rhs = core_identity_sides(n, m)
            assert lhs == rhs, (n, m)
    for n in range(2, 51):
        laws.expected_num_components(n, "toes")  # raises if the two routes differ
    assert format_fixed(laws.expected_num_components(10, "toes"), 3) == "1.251"
    assert format_fixed(laws.expected_num_components(10, "standard"), 3) == "1.913"
    _passed("C4", "summation identity and component/cycle count duality exact to n=50")


def test_c5_oracle_equivalence():
    started = time.perf_counter()
    for n in (3, 4, 5, 6):
        checks = harness.validate(n, "toes")
        failed = [name for name, ok in checks if not ok]
        assert not failed, f"n={n}: {failed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed("C5", f"enumeration equals closed forms exactly for n=3..6 in {elapsed:.1f}s")


def test_c6a_rejection_component_means(rejection_report):
    records = [r for r in _cells(rejection_report, "components").values() if r.z is not None]
    assert len(records) == 9  # j = 2..10
    worst = _gate(records)
    assert rejection_report.wall_time < 60.0
    _passed("C6a", f"rejection means match the component table, max|z|={worst:.2f}, "
                   f"{rejection_report.wall_time:.1f}s")


def test_c6b_corejoint_tables(corejoint_report):
    worst = 0.0
    for table in ("scream", "cycles", "core"):
        records = [r for r in _cells(corejoint_report, table).values() if r.z is not None]
        worst = max(worst, _gate(records))
    assert corejoint_report.wall_time < 60.0
    _passed("C6b", f"core-joint reproduces scream/cycle/core tables, max|z|={worst:.2f}, "
                   f"{corejoint_report.wall_time:.1f}s")


def test_c6c_acceptance_rate(rejection_report):
    rec = _cells(rejection_report, "acceptance")["acceptance_rate"]
    assert abs(rec.simulated - ACCEPTANCE_RATE_REFERENCE) <= 0.002
    assert abs(rec.z) <= 4  # and consistent with the exact enumeration value
    _passed("C6c", f"acceptance rate {rec.simulated:.4f} within 0.247 +- 0.002 "
                   f"(exact {rec.exact:.4f})")


def test_c6d_repeated_size_probabilities(direct_report):
    records = _cells(direct_report, "repeats")
    names = ("no_repeat_components", "no_repeat_cycles", "no_repeat_either")
    for name, ref in zip(names, NO_REPEAT_REFERENCE):
        rec = records[name]
        assert abs(rec.simulated - ref) <= 4 * rec.std_error, name
        assert abs(rec.z) <= 4, name  # also within 4 s.e. of the exact value
        # the exact joint law rounds to the published 3 d.p. values
        assert abs(float(rec.exact) - ref) <= 5.1e-4, name
    assert direct_report.wall_time < 60.0
    _passed("C6d", f"no-repeat probabilities within 4 s.e. of (0.959, 0.898, 0.879), "
                   f"{direct_report.wall_time:.1f}s")


def test_c6_routes_agree(rejection_report, corejoint_report, direct_report):
    rej = _cells(rejection_report, "components")
    dirc = _cells(direct_report, "components")
    for j in range(2, N + 1):
        a, b = rej[f"mean_components[j={j}]"], dirc[f"mean_components[j={j}]"]
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.simulated - b.simulated) <= 4 * max(se, 1e-12), j
    joint = _cells(corejoint_report, "cycles")
    dir_cycles = _cells(direct_report, "cycles")
    for j in range(2, N + 1):
        a, b = joint[f"mean_cycles[j={j}]"], dir_cycles[f"mean_cycles[j={j}]"]
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.simulated - b.simulated) <= 4 * max(se, 1e-12), j
    _passed("C6", "rejection, core-joint and direct routes agree pairwise at 4 s.e.")


def test_c7_limit_checks():
    partial = laws.spitzer_partial_sum(10**6)
    target = 0.5 * (1 + math.log(2))
    assert abs(partial - target) <= 2e-3
    limit_rate = math.exp(-0.5) * math.exp(-partial)
    assert abs(limit_rate - math.exp(-1) / math.sqrt(2)) <= 1e-3
    q_limit = 1 - math.exp(-0.5)
    prev = 1.0
    for n in harness.Q_TABLE_NS:
        q = float(laws.prob_someone_screams(n))
        assert q_limit < q < prev, n
        prev = q
    assert abs(prev - q_limit) < 1e-4
    _passed("C7", f"series sum {partial:.4f} ~ (1+log2)/2, rate limit {limit_rate:.4f} ~ 0.2601, "
                  f"q decreasing to {prev:.4f}")


def test_c8_out_of_scope_note():
    # Asymptotic laws of the largest components/cycles (and the scaled
    # core-size limit density) have no finite-n procedure and are excluded
    # from this artifact; nothing to verify at desk scale.
    _passed("C8", "asymptotic-only results excluded by scope")
