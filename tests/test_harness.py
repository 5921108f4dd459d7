"""Harness tests: enumeration golden values, table plumbing, serialisation
determinism, and the CLI."""

import errno
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screamingtoes
from screamingtoes import cli, harness, laws, samplers
from screamingtoes.harness import ExperimentConfig, brute_force_law, emit, parse_report, run_table


#: sha256 of repr(brute_force_law(n, model)) for n = 2..7, computed by an
#: enumeration that decomposed each mapping with the scalar walk
#: oracles.decompose_image, independently of decompose_batch.
BRUTE_FORCE_SHA256 = {
    "toes": (
        "f151e6ecc39d76cc015926b1bcd899d6fa24f946f169326512042875e825300a",
        "76d2cfd5277c4fef6b1b35cee70d38667c458b07eed3f93e368c1718c52264f8",
        "9099009a0ad387cce7f74bcd015eb72ce2eb70518cf19af9951ed850274f027b",
        "77588e1edb4ecdae5cb7b2a222b87fd162796d9808d2fd286551a4ff3e49410c",
        "ee49dfd3cc31dafdf001525c26118a87fe8a5966ec2bd317a1b9a7c10bb640a8",
        "a88d1e517725f5110e7f62357550063a17d06af8c22e8c0376c09934b3e61de1",
    ),
    "standard": (
        "d58042512fe2d6ac18649557e19fe1437e473f439bf4c2786507d4bccf22fd33",
        "c738acb6dc996eeb048ac0e65d2892445993eff748dbfc9625b3008f10886cb1",
        "948f22ac40002f4aefb871b357bb8d8ac4a663fafbaa5de33df61ce4936fb48c",
        "d2bc564e93866a544233e666f70fa4a622ec66b945fa555b4c3f240136270423",
        "551b9f7e78015513ab7649c4b5dd78d3e581af9fda3a3309f7a4b0c26d6445d1",
        "4d57045833ad2793dc90dff9985a5fe7847ab1965d3b350c0881e6b8b99e7f0a",
    ),
}


#: The checks of ``validate``, in the order it prints them, and the law that
#: each one reads; the core check reads the integer counts too.
VALIDATE_CHECKS = {
    "component_pmf": "component_pmf_table",
    "core_size_pmf": "core_size_law",
    "mean_component_count": "component_means",
    "mean_cycle_count": "cycle_means",
    "expected_num_components": "expected_num_components",
    "scream_pmf": "scream_law",
    "prob_someone_screams": "prob_someone_screams",
    "no_repeated_sizes": "prob_no_repeated_sizes",
}
#: The checks of the standard model, which has no screaming-pair laws.
STANDARD_CHECKS = list(VALIDATE_CHECKS)[:5]


def _one_count_off(value, one):
    """``value`` with one entry moved by ``one``: a dict's first, a tuple's
    last, or a number itself."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: value[key] + one}
    if isinstance(value, tuple):
        return value[:-1] + (value[-1] + one,)
    return value + one


class TestBruteForce:
    def test_n3_golden(self):
        law = brute_force_law(3, "toes")
        assert law.total == 8
        assert law.component_pmf == {(3,): F(1)}
        assert law.core_size_counts == (0, 0, 6, 2)
        assert law.core_size_law == (0, 0, F(3, 4), F(1, 4))
        assert law.component_means == (0, 0, 0, 1)
        assert law.cycle_means == (0, 0, F(3, 4), F(1, 4))
        assert law.scream_law == (F(1, 4), F(3, 4))
        assert law.no_repeat == (1, 1, 1)
        assert law.joint_pmf == {((3,), (2,)): F(3, 4), ((3,), (3,)): F(1, 4)}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_validate_toes(self, n):
        assert all(ok for _, ok in harness.validate(n, "toes"))

    def test_validate_standard(self):
        for n in range(2, 7):
            assert all(ok for _, ok in harness.validate(n, "standard")), n

    @pytest.mark.parametrize("model", ["toes", "standard"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_per_size_laws_have_the_laws_names(self, n, model):
        # each per-size field is the tuple that the laws function of its
        # name returns; laws has the scream law of the toes model only
        brute = brute_force_law(n, model)
        for name in ("core_size_counts", "core_size_law", "component_means", "cycle_means"):
            assert getattr(brute, name) == getattr(laws, name)(n, model), name
        if model == "toes":
            assert brute.scream_law == laws.scream_law(n)

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_validate_at_the_enumeration_bound(self, model):
        checks = harness.validate(7, model)
        assert all(ok for _, ok in checks), checks

    @pytest.mark.parametrize("model, check, law", [
        *(("toes", check, law) for check, law in VALIDATE_CHECKS.items()),
        ("toes", "core_size_pmf", "core_size_counts"),
        *(("standard", check, VALIDATE_CHECKS[check]) for check in STANDARD_CHECKS),
        ("standard", "core_size_pmf", "core_size_counts"),
    ])
    def test_validate_fails_on_one_count_off(self, model, check, law, monkeypatch, capsys):
        n = 5
        checks = harness.validate(n, model)  # also caches every law at n
        assert checks == [(name, True) for name in (VALIDATE_CHECKS if model == "toes"
                                                    else STANDARD_CHECKS)]
        total = brute_force_law(n, model).total
        one = 1 if law == "core_size_counts" else F(1, total)  # one mapping
        expected = laws.expected_num_components(n, model)
        built = getattr(laws, law)
        monkeypatch.setattr(laws, law, lambda *args: _one_count_off(built(*args), one))
        if law != "expected_num_components":
            # it sums the component and cycle means, so it stays at its value
            # for a moved mean to fail alone
            monkeypatch.setattr(laws, "expected_num_components", lambda n, model: expected)
        assert [name for name, ok in harness.validate(n, model) if not ok] == [check]
        assert cli.main(["validate", "--n", str(n), "--model", model]) == 1
        failed = [line.split() for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert failed == [[check, "FAIL"]]

    @pytest.mark.parametrize("model", ["toes", "standard"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_law_is_pinned(self, n, model):
        """Every field of the law, values and dict order, through its repr."""
        digest = hashlib.sha256(repr(brute_force_law(n, model)).encode()).hexdigest()
        assert digest == BRUTE_FORCE_SHA256[model][n - 2]

    def test_bounds(self):
        with pytest.raises(ValueError):
            brute_force_law(8)
        with pytest.raises(ValueError):
            brute_force_law(1)


class TestConfig:
    def test_table_aliases(self):
        assert harness.canonical_table("1") == "q"
        assert harness.canonical_table("SCREAM-PMF") == "scream"
        assert harness.canonical_table("core-size") == "core"
        with pytest.raises(ValueError):
            harness.canonical_table("nope")

    def test_repeated_table_runs_once(self):
        # "2" and "1" are aliases of "components" and "q"
        cfg = ExperimentConfig(n=4, replicates=0, tables=("cycles", "2", "components", "1", "q"))
        assert cfg.tables == ("cycles", "components", "q")
        once = run_table(ExperimentConfig(n=4, replicates=0, tables=("components",)))
        twice = run_table(ExperimentConfig(n=4, replicates=0, tables=("2", "components")))
        assert twice.records == once.records
        assert twice.metadata["tables"] == ["components"]

    def test_method_compatibility(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=6, method="rejection", tables=("scream",))
        cfg = ExperimentConfig(n=6, method="core-joint", tables=("cycles",))
        assert cfg.method_for("cycles") == "core-joint"
        cfg = ExperimentConfig(n=6, tables=("repeats",))
        assert cfg.method_for("repeats") == "direct"

    def test_brute_force_bound(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=8, method="brute-force", tables=("scream",))

    @pytest.mark.parametrize("table", sorted(harness._SPECS))
    def test_table_bound(self, table):
        bound = harness._SPECS[table].max_n
        ExperimentConfig(n=bound, tables=(table,))
        with pytest.raises(ValueError, match=f"the {table} table is limited to n <= {bound} "):
            ExperimentConfig(n=bound + 1, tables=(table,))

    @pytest.mark.parametrize("table", sorted(harness._SPECS))
    def test_reads_names_the_keys_of_the_simulated_column(self, table):
        # the keys derived from the table's statistic, which are passed to
        # the workers before any cell is built, are in the tally of a
        # one-replicate batch of every route the table lists
        spec = harness._SPECS[table]
        every = samplers.every_mapping_counts(5, "toes")[0]
        for method in spec.methods:
            if method == "brute-force":
                tally = every
            else:
                tally = harness._simulate_batch((method, 6, 0, 1, spec.reads))
            assert {"replicates", *spec.reads} <= set(tally), method
        # a table has a statistic exactly when its cells have simulated
        # columns, and over every mapping that statistic is the exact column
        cells = list(spec.cells(ExperimentConfig(n=5, replicates=0, tables=(table,))))
        assert (spec.statistic is None) == all(idx is None for _, _, idx in cells)
        if "brute-force" in spec.methods:
            records = harness._table_records(table, cells, every, exhaustive=True)
            filled = [r for r in records if r.simulated is not None]
            assert filled
            for record in filled:
                assert record.simulated == float(record.exact), record.name

    def test_batch_bound(self):
        # checked on the config, before any task is built: 10**12 batches
        # would need petabytes, so a test at that size allocates nothing
        ExperimentConfig(replicates=harness.MAX_BATCHES, batch_size=1)
        ExperimentConfig(replicates=10**12, batch_size=10**12 // harness.MAX_BATCHES)
        for reps, size in ((harness.MAX_BATCHES + 1, 1), (10**12, 1), (10**12, 10**8 - 1)):
            with pytest.raises(ValueError, match="raise --batch-size"):
                ExperimentConfig(replicates=reps, batch_size=size)

    @pytest.mark.parametrize("table", sorted(harness._SPECS))
    def test_standard_flag_matches_the_cells(self, table):
        report = run_table(ExperimentConfig(n=4, replicates=0, tables=(table,)))
        has_standard = any("_std[" in r.name for r in report.records)
        assert has_standard == harness._SPECS[table].standard
        if has_standard:
            ExperimentConfig(n=4, tables=(table,), model="standard")
        else:
            with pytest.raises(ValueError, match=f"the {table!r} table has no standard-model cells"):
                ExperimentConfig(n=4, tables=(table,), model="standard")

    def test_workers_bound(self):
        # a pool forks all of its workers at its first task, so the bound is
        # a few per CPU, whatever the number of batches
        most = 4 * harness.default_workers()
        assert ExperimentConfig(workers=most).resolved_workers() == most
        with pytest.raises(ValueError, match=f"workers must be between 1 and {most} "):
            ExperimentConfig(workers=most + 1)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(method="magic")
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model="both-models")
        for n in (1, 0, -3):
            with pytest.raises(ValueError):
                ExperimentConfig(n=n)


class TestRunTable:
    def test_q_exact_only(self):
        report = run_table(ExperimentConfig(replicates=0, tables=("q",)))
        assert [r.name for r in report.records][:2] == ["q[n=5]", "q[n=10]"]
        assert len(report.records) == len(harness.Q_TABLE_NS)
        values = {r.name: r.exact for r in report.records}
        assert values["q[n=10]"] == laws.prob_someone_screams(10)
        assert all(r.simulated is None for r in report.records)

    def test_q_single_n(self):
        report = run_table(ExperimentConfig(n=17, replicates=0, tables=("q",)))
        assert [r.name for r in report.records] == ["q[n=17]"]

    def test_exact_columns_match_laws(self):
        report = run_table(ExperimentConfig(n=7, replicates=0, tables=("components", "cycles")))
        cells = {r.name: r.exact for r in report.records}
        assert cells["mean_components[j=1]"] is None
        assert cells["mean_components[j=3]"] == laws.mean_component_count(7, 3, "toes")
        assert cells["mean_components_std[j=1]"] == laws.mean_component_count(7, 1, "standard")
        assert cells["mean_cycles[j=2]"] == laws.mean_cycle_count(7, 2, "toes")
        assert cells["mean_cycles_std[j=1]"] == 1

    @pytest.mark.parametrize("count, sign", [(1, -1), (3, 1)])
    def test_z_without_a_standard_error_has_the_deviation_s_sign(self, count, sign):
        # every replicate has `count` 2-cycles, so the s.e. is 0
        tally = {"replicates": 4, "cyc_sum": np.array([0, 0, 4 * count]),
                 "cyc_sumsq": np.array([0, 0, 4 * count**2])}
        assert harness._simulated_cell(tally, "mean", "cyc", 2, F(2)) == (count, 0.0, sign * math.inf)

    def test_cells_below_their_exact_value_with_no_error_read_minus_inf(self):
        # cells that no replicate reaches: simulated 0, below the exact value
        report = run_table(ExperimentConfig(n=30, replicates=2000, batch_size=1000, workers=1,
                                            tables=("cycles", "components"), method="direct"))
        infinite = [r for r in report.records if r.z is not None and math.isinf(r.z)]
        assert infinite and all(r.z == -math.inf and r.simulated == 0 < r.exact for r in infinite)
        assert parse_report(emit(report, "json")) == report
        rows = {row.split(",")[0]: row for row in emit(report, "csv").splitlines()}
        assert all(rows[r.name].endswith(",-inf") for r in infinite)

    def test_mean_cell_sums_square_past_int64(self):
        # a sum of 5e9 squares to 2.5e19, past the int64 range
        reps, total = 10**10, 5 * 10**9
        tally = {"replicates": reps, "cyc_sum": np.array([0, 0, total]),
                 "cyc_sumsq": np.array([0, 0, total])}
        simulated, se, _ = harness._simulated_cell(tally, "mean", "cyc", 2, F(1, 2))
        assert simulated == 0.5
        assert se == pytest.approx(5e-6, rel=1e-9)

    def test_simulated_columns_have_errors_and_z(self):
        report = run_table(
            ExperimentConfig(n=6, replicates=20_000, seed=5, tables=("scream",), workers=1)
        )
        for rec in report.records:
            assert rec.simulated is not None
            assert rec.std_error is not None and rec.std_error >= 0
            assert rec.z is not None and abs(rec.z) < 6

    def test_brute_force_method_fills_simulated(self):
        report = run_table(
            ExperimentConfig(n=5, replicates=1, method="brute-force", tables=("scream",))
        )
        for rec in report.records:
            assert rec.simulated == pytest.approx(float(rec.exact), abs=1e-15)
            assert rec.z is None

    def test_degenerate_n2(self):
        report = run_table(ExperimentConfig(n=2, replicates=500, seed=1, tables=("scream",), workers=1))
        cells = {r.name: r for r in report.records}
        assert cells["scream_pmf[k=1]"].exact == 1
        assert cells["scream_pmf[k=1]"].simulated == 1.0
        assert cells["scream_pmf[k=1]"].z == 0.0

    @pytest.mark.parametrize("table", ["components", "cycles", "core"])
    def test_one_model_at_a_time_reports_the_same_records(self, table):
        # the toes run draws as the two-model run does; a standard-only run
        # has no simulated column to draw for
        def records(model):
            config = ExperimentConfig(n=6, replicates=2000, batch_size=1000, seed=3,
                                      tables=(table,), workers=1, model=model)
            return run_table(config).records

        assert records("toes") + records("standard") == records("both")

    def test_core_table_n2_single_row(self):
        report = run_table(ExperimentConfig(n=2, replicates=0, tables=("core",)))
        toes = [r for r in report.records if not r.name.startswith("core_size_std")]
        assert len(toes) == 1
        assert toes[0].name == "core_size[r=2]" and toes[0].exact == 1

    def test_many_batches_hold_one_tally_at_a_time(self):
        _assert_tallies_merged_on_arrival(workers=1)

    def test_many_batches_hold_one_tally_at_a_time_in_a_pool(self):
        _assert_tallies_merged_on_arrival(workers=2)


def _assert_tallies_merged_on_arrival(workers):
    """2000 one-replicate core-joint batches at n = 1000, each tally about
    27 KB: kept until the end they would trace over 50 MB, merged on arrival
    a few MB.  The batches are drawn through the path that ``run_table``
    takes, while this process spins through a second of CPU-bound work in
    place of the exact columns; with a pool, the tallies that arrive meanwhile
    must be merged, not queued behind it."""
    config = ExperimentConfig(n=1000, replicates=2000, batch_size=1, tables=(), workers=workers)
    tasks = harness._batch_tasks(config, {"core-joint": harness._SPECS["core"].reads})
    samplers._core_size_cdf(1000)  # the cached exact CDF is set-up, not tally memory

    def build():
        spins = 0
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            spins += 1
        return spins

    tracemalloc.start()
    try:
        tallies, spins = harness._simulate(tasks, workers, build)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally = tallies["core-joint"]
    assert spins > 0 and tally["replicates"] == 2000 and tally["core_hist"].sum() == 2000
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB traced"


#: A run with 16 batches of each of the rejection and core-joint kinds.
_SEED_RUN = dict(n=10, replicates=16_000, batch_size=1_000, tables=("components", "scream"))


class TestDeterminism:
    def test_bytes_identical_across_runs(self):
        cfg = dict(n=8, replicates=30_000, seed=77, tables=("scream", "core"), batch_size=10_000)
        a = emit(run_table(ExperimentConfig(**cfg, workers=1)), "json")
        b = emit(run_table(ExperimentConfig(**cfg, workers=1)), "json")
        assert a == b

    def test_records_identical_across_worker_counts(self):
        cfg = dict(n=8, replicates=30_000, seed=77, tables=("components",), batch_size=10_000)
        r1 = run_table(ExperimentConfig(**cfg, workers=1))
        r2 = run_table(ExperimentConfig(**cfg, workers=3))
        assert r1.records == r2.records

    def test_json_bytes_identical_across_worker_counts(self):
        # the tables' default methods: every simulation kind runs
        cfg = dict(n=8, replicates=30_000, seed=77, tables=("components", "scream", "repeats"),
                   batch_size=10_000)
        a = emit(run_table(ExperimentConfig(**cfg, workers=1)), "json")
        b = emit(run_table(ExperimentConfig(**cfg, workers=2)), "json")
        assert a == b

    def test_nearby_seeds_draw_different_streams(self):
        # 16 batches a kind: seeds that differ below the batch count once
        # shared their batch streams and gave one report between them
        reports = {
            seed: emit(run_table(ExperimentConfig(**_SEED_RUN, seed=seed, workers=1)), "csv")
            for seed in range(16, 24)
        }
        assert len(set(reports.values())) == len(reports)

    def test_seed_is_taken_modulo_2_to_the_64(self):
        def csv(seed):
            return emit(run_table(ExperimentConfig(**_SEED_RUN, seed=seed, workers=1)), "csv")

        assert csv(5) == csv(5 + 2**64)
        assert csv(-1) == csv(2**64 - 1)

    @pytest.mark.parametrize("start_method", ["fork", "forkserver", "spawn"])
    def test_json_bytes_identical_across_start_methods(self, start_method, monkeypatch):
        context = multiprocessing.get_context(start_method)
        pools = []

        def pool(*args, **kwargs):
            kwargs.pop("mp_context")  # the harness's own choice, replaced by this case's
            pools.append(ProcessPoolExecutor(*args, mp_context=context, **kwargs))
            return pools[-1]

        serial = emit(run_table(ExperimentConfig(**_SEED_RUN, workers=1)), "json")
        monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
        pooled = emit(run_table(ExperimentConfig(**_SEED_RUN, workers=2)), "json")
        assert len(pools) == 1 and pooled == serial

    def test_pool_forks_its_workers_on_linux(self, monkeypatch):
        # Python 3.14 makes forkserver Linux's default; the harness keeps fork
        contexts = []

        def pool(*args, mp_context, **kwargs):
            contexts.append(mp_context)
            return ProcessPoolExecutor(*args, mp_context=mp_context, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
        run_table(ExperimentConfig(**_SEED_RUN, workers=2))
        if sys.platform.startswith("linux"):
            assert [context.get_start_method() for context in contexts] == ["fork"]
        else:
            assert contexts == [None]

    def test_acceptance_attempts_deterministic(self):
        cfg = dict(n=10, replicates=20_000, seed=3, tables=("acceptance",), batch_size=5_000)
        r1 = run_table(ExperimentConfig(**cfg, workers=1))
        r2 = run_table(ExperimentConfig(**cfg, workers=2))
        assert r1.records == r2.records


class TestEmit:
    @pytest.fixture()
    def report(self):
        return run_table(
            ExperimentConfig(n=6, replicates=10_000, seed=9, tables=("scream", "repeats"), workers=1)
        )

    def test_csv_header_and_shape(self, report):
        text = emit(report, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "statistic,exact,simulated,std_error,z"
        assert all(line.count(",") == 4 for line in lines)

    def test_csv_renders_4dp(self, report):
        row = emit(report, "csv").splitlines()[1]
        name, exact, sim, se, z = row.split(",")
        assert name == "scream_pmf[k=0]"
        assert len(exact.split(".")[1]) == 4

    def test_json_roundtrip(self, report):
        # the acceptance rate is the one exact cell held as a float
        accept = run_table(ExperimentConfig(n=6, replicates=0, tables=("acceptance",)))
        assert isinstance(accept.records[0].exact, float)
        for r in (report, accept):
            text = emit(r, "json")
            again = parse_report(text)
            assert again == r
            assert emit(again, "json") == text

    def test_json_is_sorted_and_schema_tagged(self, report):
        payload = json.loads(emit(report, "json"))
        assert payload["schema"] == "screamingtoes-report/1"
        assert "wall_time" not in json.dumps(payload)
        # provenance, with nothing that depends on the environment
        bit_generator = type(np.random.default_rng(0).bit_generator).__name__
        assert payload["metadata"]["bit_generator"] == bit_generator == "PCG64"
        assert payload["metadata"]["version"] == screamingtoes.__version__

    def test_pretty_contains_titles(self, report):
        text = emit(report, "pretty")
        assert "screaming pairs" in text
        assert "scream_pmf[k=0]" in text

    def test_unknown_format(self, report):
        with pytest.raises(ValueError):
            emit(report, "xml")

    def test_big_rationals_serialise(self):
        report = run_table(ExperimentConfig(n=10_000, replicates=0, tables=("q",)))
        again = parse_report(emit(report, "json"))
        assert again.records[0].exact == report.records[0].exact

    def test_import_leaves_the_int_str_limit_alone(self):
        src = os.path.dirname(os.path.dirname(harness.__file__))
        code = (
            "import sys; before = sys.get_int_max_str_digits(); "
            "import screamingtoes.harness; "
            "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_emit_and_parse_restore_the_int_str_limit(self):
        report = run_table(ExperimentConfig(n=10_000, replicates=0, tables=("q",)))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            text = emit(report, "json")
            assert sys.get_int_max_str_digits() == 4300
            again = parse_report(text)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)
        assert again.records[0].name == "q[n=10000]"
        assert again.records[0].exact == report.records[0].exact
        # more digits than the default limit lets through
        assert report.records[0].exact.denominator.bit_length() > 4300 * math.log2(10)

    @pytest.mark.parametrize("limit", [0, 640, sys.int_info.default_max_str_digits])
    def test_emit_and_parse_never_set_the_int_str_limit(self, limit, monkeypatch):
        # under the interpreter's default limit, the least it takes and none
        # (0), values of up to 38 185 digits (the reference q table) are
        # written and read without touching it
        report = run_table(ExperimentConfig(replicates=0, tables=("q",)))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "set_int_max_str_digits", None)
                again = parse_report(emit(report, "json"))
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(old)
        assert again == report

    def test_parse_converts_each_denominator_once(self, monkeypatch):
        # the n = 1000 scream table: 501 rationals over a few shared
        # denominators, each of about 3000 digits
        text = emit(run_table(ExperimentConfig(n=1000, replicates=0, tables=("scream",))), "json")
        rationals = [r["exact_rational"] for r in json.loads(text)["records"]]
        denominators = {r.split("/")[1] for r in rationals}
        assert len(denominators) < len(rationals) == 501
        calls = []

        def counted(digits):
            calls.append(digits)
            return text_to_int(digits)

        text_to_int = harness._text_to_int
        monkeypatch.setattr(harness, "_text_to_int", counted)
        again = parse_report(text)
        assert len(calls) <= len(rationals) + len(denominators)
        assert emit(again, "json") == text

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(1, 700), st.integers(4250, 4350), st.just(10**5)),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_long_integers_convert_like_str_and_int(self, digits, negative, rng):
        # short values, values around the interpreter's default limit, where
        # the splits take over, and values far past it
        value = rng.randrange(10 ** (digits - 1), 10**digits) * (-1 if negative else 1)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str(value)
        finally:
            sys.set_int_max_str_digits(old)
        text = harness._int_to_text(value)
        assert text == want
        assert harness._text_to_int(text) == value


def _no_repeat_shares(n, reps, seed, **config):
    """The direct route's (no repeated component size, no repeated cycle
    length, neither) shares, from batches that fill the repeats table's
    tally; a config with no table builds no exact column, and takes any n."""
    config = ExperimentConfig(n=n, replicates=reps, seed=seed, tables=(), **config)
    tasks = harness._batch_tasks(config, {"direct": harness._SPECS["repeats"].reads})
    tally = harness._simulate(tasks, config.resolved_workers(), lambda: None)[0]["direct"]
    assert tally["replicates"] == reps
    return tuple(float(c / reps) for c in tally["no_repeat"])


class TestRepeatedSizeStats:
    def test_degenerate_n2(self):
        assert _no_repeat_shares(2, 200, seed=1) == (1.0, 1.0, 1.0)

    def test_not_bounded_by_the_exact_table(self):
        n = laws.REPEATS_MAX_N + 10
        probs = _no_repeat_shares(n, 50, seed=3, workers=1)
        assert all(0.0 <= p <= 1.0 for p in probs) and probs[2] <= min(probs[:2])

    def test_n4_matches_enumeration(self):
        reps = 40_000
        sim = _no_repeat_shares(4, reps, seed=21, batch_size=10_000)
        exact = brute_force_law(4, "toes").no_repeat
        for s, e in zip(sim, exact):
            e = float(e)
            se = math.sqrt(e * (1 - e) / reps)
            assert abs(s - e) <= 4 * se


def _run_python(script: str, argv: list[str], **env: str | None) -> subprocess.CompletedProcess:
    """``python -c script argv...`` in a fresh interpreter that imports this
    package from the source tree; each keyword sets an environment variable,
    or with None removes it."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    environ = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={key: value for key, value in environ.items() if value is not None})


class TestCli:
    def test_exact_q_csv(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        rc = cli.main(["exact", "--table", "q", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "statistic,exact,simulated,std_error,z"
        assert lines[1].startswith("q[n=5],0.5664")

    def test_exact_model_filter(self, capsys):
        rc = cli.main(["exact", "--table", "components", "--n", "6", "--model", "toes", "--format", "csv"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "mean_components[j=2]" in text
        assert "_std[" not in text

    @pytest.mark.parametrize("model, other", [("toes", "standard"), ("standard", "toes")])
    @pytest.mark.parametrize("table, law", [
        ("components", "component_means"), ("cycles", "cycle_means"), ("core", "core_size_law"),
    ])
    def test_exact_builds_only_the_models_it_reports(self, table, law, model, other,
                                                    monkeypatch, capsys):
        # the other model's law raises if called, and the reported model's
        # law is called: a law bound before the patch would skip both
        built = getattr(laws, law)
        called = []

        def only_the_reported_model(n, m):
            if m == other:
                raise AssertionError(f"{law} built the {other} model")
            called.append(m)
            return built(n, m)

        monkeypatch.setattr(laws, law, only_the_reported_model)
        argv = ["exact", "--table", table, "--n", "6", "--model", model, "--format", "csv"]
        assert cli.main(argv) == 0
        assert ("_std[" in capsys.readouterr().out) == (model == "standard")
        assert called == [model]

    def test_simulate(self, capsys):
        rc = cli.main([
            "simulate", "--table", "scream", "--n", "6", "--reps", "5000",
            "--seed", "2", "--format", "csv", "--workers", "1",
        ])
        assert rc == 0
        assert "scream_pmf[k=0]" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, labelled", [
        (["simulate", "--table", "cycles", "--n", "300"], False),
        (["tables", "--tables", "cycles,core,scream", "--n", "300"], False),
        (["tables", "--tables", "cycles,components", "--n", "300"], True),
        (["tables", "--tables", "repeats", "--n", "60"], True),
    ], ids=["cycles", "cycles-core-scream", "with-components", "repeats"])
    def test_direct_route_labels_components_only_for_a_table_that_reads_them(
        self, argv, labelled, monkeypatch, capsys
    ):
        def no_labelling(*args):
            raise AssertionError("components labelled")

        monkeypatch.setattr(samplers, "_component_pairs", no_labelling)
        argv += ["--method", "direct", "--reps", "600", "--batch-size", "300", "--workers", "1",
                 "--format", "csv"]
        if labelled:
            with pytest.raises(AssertionError, match="components labelled"):
                cli.main(argv)
        else:
            assert cli.main(argv) == 0
            assert "mean_cycles[j=2]" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "--table", "q", "--method", "direct", "--n", "5", "--reps", "100"],
        ["simulate", "--table", "1", "--reps", "0"],
    ], ids=["q-direct", "alias-no-reps"])
    def test_simulate_of_an_exact_only_table_is_a_one_line_error(self, argv, monkeypatch, capsys):
        def no_law(n):
            raise AssertionError("q_n built")

        monkeypatch.setattr(laws, "prob_someone_screams", no_law)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("screamingtoes: ") and "exact --table q" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_tables_reports_q_exact_under_any_method(self, method, capsys):
        argv = ["tables", "--tables", "q", "--method", method, "--n", "5", "--reps", "100",
                "--workers", "1", "--format", "csv"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "statistic,exact,simulated,std_error,z\nq[n=5],0.5664,,,\n"

    def test_validate_cli(self, capsys):
        assert cli.main(["validate", "--n", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_writes_out_and_accepts_a_seed(self, tmp_path, capsys):
        assert cli.main(["validate", "--n", "3"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "v.txt"
        assert cli.main(["validate", "--n", "3", "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_tables_subcommand(self, capsys):
        rc = cli.main([
            "tables", "--tables", "1,3", "--n", "6", "--reps", "2000",
            "--seed", "4", "--workers", "1",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "q_n" in text and "scream_pmf[k=0]" in text

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "reps": 4000, "seed": 11, "format": "csv"}))
        rc = cli.main(["simulate", "--table", "scream", "--config", str(cfg), "--n", "5", "--workers", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        # --n 5 overrides the file's n=6: support of k ends at 2
        assert "scream_pmf[k=2]" in text and "scream_pmf[k=3]" not in text

    @pytest.mark.parametrize("argv", [
        ["exact", "--table", "q", "--n", "5"],
        ["simulate", "--table", "scream", "--n", "5", "--reps", "2000", "--workers", "1"],
    ], ids=["exact", "simulate"])
    def test_config_file_gives_the_table(self, argv, tmp_path, capsys):
        # --table is required, and the file alone may give it, with n
        command, _, table, _, n, *rest = argv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"table": table, "n": int(n)}))
        assert cli.main([*argv, "--format", "json"]) == 0
        expected = capsys.readouterr().out
        assert cli.main([command, *rest, "--format", "json", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("key", ["batch_size", "batch-size"])
    def test_config_file_accepts_batch_size_either_way(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 7}))
        rc = cli.main([
            "simulate", "--table", "scream", "--n", "4", "--reps", "20", "--workers", "1",
            "--format", "json", "--config", str(cfg),
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["batch_size"] == 7

    def test_validate_help_lists_only_its_own_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert all(flag in text for flag in ("--n", "--model", "--config", "--out", "--seed"))
        assert not any(flag in text for flag in ("--format", "--workers", "--batch-size"))

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            cli.main(["exact", "--table", "q", "--config", str(cfg)])

    @pytest.mark.parametrize("argv", [
        ["exact", "--table", "core", "--n", "0"],
        ["exact", "--table", "core", "--n", "-3"],
        ["exact", "--table", "components", "--n", "1"],
        ["exact", "--table", "q", "--n", "1"],
    ])
    def test_bad_n_is_a_one_line_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message and "n must be >= 2" in message
        assert capsys.readouterr().out == ""

    def test_method_without_the_table_is_a_one_line_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--table", "scream", "--method", "rejection", "--n", "5"])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message and "cannot produce" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["exact", "--table", "repeats", "--n", "80"],
        ["simulate", "--table", "repeats", "--n", "1000"],
    ])
    def test_repeats_above_the_bound_is_a_one_line_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert f"n <= {laws.REPEATS_MAX_N}" in message
        assert capsys.readouterr().out == ""

    def test_exact_scream_at_its_bound_is_within_budget(self, capsys):
        # the json emit, the costliest format: 2.9-3.2 s on a 2-vCPU host
        # (Python 3.11), most of it the emit of the 28 MB report and 0.4 s
        # the table itself; the budget allows a slower one
        laws.scream_law.cache_clear()
        started = time.perf_counter()
        argv = ["exact", "--table", "scream", "--n", str(laws.SCREAM_MAX_N), "--format", "json"]
        assert cli.main(argv) == 0
        assert time.perf_counter() - started < 10.0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 1 + laws.SCREAM_MAX_N // 2

    @pytest.mark.parametrize("table, records", [
        ("q", lambda n: 1), ("components", lambda n: 2 * n), ("cycles", lambda n: 2 * n - 1),
        ("core", lambda n: 2 * n - 1),
    ], ids=["q", "components", "cycles", "core"])
    def test_exact_at_its_bound_is_within_budget(self, table, records, capsys):
        # both models and the json emit, the costliest format: 1.8-3.9 s on
        # a 2-vCPU host (Python 3.11); the budget is that of the scream table
        for law in (laws.component_means, laws._checked_connected_count, laws.cycle_means,
                    laws.core_size_law, laws.core_size_counts):
            law.cache_clear()
        n = harness._SPECS[table].max_n
        started = time.perf_counter()
        assert cli.main(["exact", "--table", table, "--n", str(n), "--format", "json"]) == 0
        assert time.perf_counter() - started < 10.0
        assert len(json.loads(capsys.readouterr().out)["records"]) == records(n)

    def test_exact_acceptance_at_n60_is_quick(self, capsys):
        started = time.perf_counter()
        assert cli.main(["exact", "--table", "acceptance", "--n", "60", "--format", "csv"]) == 0
        assert time.perf_counter() - started < 2.0
        assert "acceptance_rate,0.2581" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, shows", [
        (["tables", "--reps", "2000", "--batch-size", "1000", "--workers", "1"],
         "Mean number of components by size"),
        (["tables", "--tables", "components,acceptance", "--method", "rejection", "--n", "150",
          "--reps", "200", "--workers", "1"], "acceptance_rate"),
    ], ids=["default-tables", "rejection-n150"])
    def test_cli_runs_with_scipy_blocked(self, argv, shows):
        # scipy is a test dependency only.  The default tables run the
        # rejection route at n = 10; n = 150 reaches the w_j above the
        # exact-law switch, in the sampler and in the acceptance recurrence
        script = ("import sys\n"
                  "sys.modules['scipy'] = None  # every scipy import now raises\n"
                  "from screamingtoes import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        done = _run_python(script, argv)
        assert done.returncode == 0, done.stderr
        assert shows in done.stdout

    def test_cli_loads_no_scipy(self):
        script = ("import sys\n"
                  "from screamingtoes import cli\n"
                  "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                  "assert not loaded(), loaded()\n"
                  # nor numpy.random: the first simulation loads it, not the import
                  "assert 'numpy.random' not in sys.modules\n"
                  "cli.main(sys.argv[1:])\n"
                  "assert not loaded(), loaded()\n")
        done = _run_python(script, ["tables", "--reps", "2000", "--batch-size", "1000", "--workers", "1"])
        assert done.returncode == 0, done.stderr

    def test_validate_and_a_direct_batch_load_no_numpy_ma(self):
        # np.union1d goes through np.unique, which imports numpy.ma (about
        # 27 ms) on first use; the direct route counts its rows without it
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from screamingtoes import cli, samplers\n"
                  "assert cli.main(sys.argv[1:]) == 0\n"
                  "samplers.toes_mapping_counts_batch(10, 10, np.random.default_rng(7))\n"
                  "assert 'numpy.ma' not in sys.modules\n")
        done = _run_python(script, ["validate", "--n", "5"])
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc")
    def test_cli_import_starts_no_blas_threads(self):
        script = ("import os\n"
                  "import screamingtoes.cli\n"
                  "with open('/proc/self/status') as fh:\n"
                  "    print(next(line for line in fh if line.startswith('Threads:')).split()[1])\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
        done = _run_python(script, [], OPENBLAS_NUM_THREADS=None)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "1"]

    def test_cli_import_keeps_the_callers_blas_threads(self):
        script = ("import os\n"
                  "import screamingtoes.cli\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
        done = _run_python(script, [], OPENBLAS_NUM_THREADS="2")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2"]

    def test_cli_runs_without_mpmath(self, tmp_path):
        # mpmath is a test oracle only: with its import blocked, the exact,
        # rejection-route and enumeration paths still run
        script = ("import sys\n"
                  "sys.modules['mpmath'] = None\n"
                  "from screamingtoes import cli\n"
                  "out = sys.argv[1]\n"
                  "assert cli.main(['exact', '--table', 'q', '--format', 'json', '--out', out]) == 0\n"
                  "assert cli.main(['simulate', '--table', 'components', '--n', '6', '--reps', '2000',\n"
                  "                 '--workers', '1', '--format', 'json', '--out', out]) == 0\n"
                  "assert cli.main(['validate', '--n', '5']) == 0\n")
        done = _run_python(script, [str(tmp_path / "report.json")])
        assert done.returncode == 0, done.stderr
        assert "mean_components[j=2]" in (tmp_path / "report.json").read_text()

    @pytest.mark.parametrize("table", ["q", "scream", "repeats", "acceptance"])
    def test_standard_model_on_a_toes_only_table_is_a_one_line_error(self, table, monkeypatch, capsys):
        # the table's law raises if called: the error comes before any law is built
        module, law = {
            "q": (laws, "prob_someone_screams"),
            "scream": (laws, "scream_pmf"),
            "repeats": (laws, "prob_no_repeated_sizes"),
            "acceptance": (samplers, "exact_acceptance_probability"),
        }[table]

        def built(*args):
            raise AssertionError(f"{law} was called")

        monkeypatch.setattr(module, law, built)
        with pytest.raises(SystemExit) as exc:
            cli.main(["exact", "--table", table, "--n", "6", "--model", "standard"])
        assert exc.value.code == f"screamingtoes: the {table!r} table has no standard-model cells"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["validate", "--n", "3"],
        ["exact", "--table", "core", "--n", "5"],
    ], ids=["validate", "exact"])
    def test_closed_stdout_is_a_one_line_error(self, argv):
        # the read end of stdout's pipe is closed before the run writes to it,
        # as when ``| head`` has exited
        src = os.path.dirname(os.path.dirname(harness.__file__))
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "screamingtoes.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("screamingtoes:"), done.stderr

    @pytest.mark.parametrize("argv", [
        ["validate", "--n", "3"],
        ["exact", "--table", "q", "--n", "5"],
    ], ids=["validate", "exact"])
    def test_full_device_is_a_one_line_error(self, argv, tmp_path, capsys, monkeypatch):
        # an --out file whose close fails to flush, as on a full device
        class Full(io.StringIO):
            def close(self):
                if not self.closed:
                    super().close()
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Full(), raising=False)
        out = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == f"screamingtoes: cannot write --out {out}: No space left on device"
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["validate", "--n", "3"],
        ["exact", "--table", "q", "--n", "5"],
        ["validate", "--n", "3", "--out", "/dev/full"],
        ["exact", "--table", "q", "--n", "5", "--out", "/dev/full"],
    ], ids=["validate", "exact", "validate-out", "exact-out"])
    def test_dev_full_is_a_one_line_error(self, argv):
        src = os.path.dirname(os.path.dirname(harness.__file__))
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "screamingtoes.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src},
            )
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("screamingtoes: cannot write"), done.stderr

    @pytest.mark.parametrize("argv, config", [
        (["tables", "--tables", ","], None),
        (["exact", "--table", "q", "--config", "{missing}"], None),
        (["exact", "--table", "q"], "{not json"),
        (["simulate", "--table", "scream"], '{"n": "ten"}'),
        (["simulate", "--table", "scream", "--n", "5"], '{"reps": 4000.5}'),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--workers", "abc"], None),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--workers", "0"], None),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--workers", "-3"], None),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--batch-size", "1",
          "--workers", "100000"], None),
        (["exact", "--table", "q", "--n", "5"], '{"format": "xml"}'),
        (["validate", "--n", "4"], '{"model": "foo"}'),
        (["exact", "--table", "q", "--n", "5"], '{"model": "foo"}'),
        (["exact", "--table", "core", "--n", "4", "--out", "{tmp}/no-such-dir/x.csv"], None),
        (["exact", "--table", "core", "--n", "4", "--out", "{tmp}"], None),
        (["exact", "--table", "q", "--n", "5", "--out", ""], None),
        (["exact", "--table", "q", "--n", "5"], '{"out": ""}'),
        (["validate", "--n", "8"], None),
        (["validate", "--n", "3", "--format", "json"], None),
        (["validate", "--n", "3", "--workers", "2"], None),
        (["validate", "--n", "3", "--batch-size", "100"], None),
        (["validate", "--n", "3"], '{"format": "csv"}'),
        (["validate", "--n", "3"], '{"workers": 2}'),
        (["validate", "--n", "3"], '{"batch-size": 100}'),
        (["exact", "--table", "q", "--n", "5", "--workers", "2"], None),
        (["exact", "--table", "q", "--n", "5", "--batch-size", "100"], None),
        (["exact", "--table", "q", "--n", "5"], '{"workers": 2}'),
        (["exact", "--table", "q", "--n", "5"], '{"batch_size": 100}'),
        (["exact", "--table", "q", "--n", "5", "--seed", "7"], None),
        (["exact", "--table", "q", "--n", "5"], '{"seed": 7}'),
        (["exact", "--table", "q", "--n", "5"], '[{"n": 6}]'),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--batch-size", "0"], None),
        (["exact", "--table", "q", "--n", "abc"], None),
        (["simulate", "--table", "q", "--bogus", "1"], None),
        (["exact", "--n", "3"], None),
        (["exact"], '{"n": 3}'),
        ([], None),
        (["exact", "--table", "q", "--n", "5", "--format", "xml"], None),
        (["simulate", "--table", "scream", "--n", "5", "--method", "foo"], None),
        (["validate", "--n", "3", "--model", "both"], None),
        (["exact", "--table", "q"], '{"n": "6"}'),
        (["exact", "--table", "q"], '{"n": true}'),
        (["exact", "--table", "q"], '{"help": true}'),
        (["simulate", "--table", "scream"], '{"rep": 100}'),
        (["exact", "--table", "q"], '{"bogus": "a\\nb"}'),
        (["exact", "--table", "acceptance", "--n", "3001"], None),
        (["tables", "--tables", "q,scream", "--n", "3001", "--reps", "0"], None),
        (["exact", "--table", "components", "--n", "1001"], None),
        (["simulate", "--table", "cycles", "--method", "direct", "--n", "2001"], None),
        (["tables", "--tables", "q,core", "--n", "1501", "--reps", "0"], None),
        (["exact", "--table", "q", "--n", "60001"], None),
        (["simulate", "--table", "cycles", "--n", "10", "--reps", "100000", "--batch-size", "1"], None),
    ], ids=["empty-tables", "missing-config", "config-not-json", "config-str-n",
            "config-float-reps", "workers-not-an-integer", "workers-0", "workers-negative",
            "workers-above-the-bound",
            "config-format-choice",
            "config-model-choice-validate", "config-model-choice-exact", "out-missing-dir",
            "out-is-a-dir", "out-empty", "config-out-empty", "validate-n8", "validate-format", "validate-workers",
            "validate-batch-size", "validate-config-format", "validate-config-workers",
            "validate-config-batch-size", "exact-workers", "exact-batch-size",
            "exact-config-workers", "exact-config-batch-size", "exact-seed", "exact-config-seed",
            "config-json-array", "batch-size-0", "n-not-an-integer", "unknown-flag",
            "exact-without-table", "config-without-table",
            "empty-argv", "format-choice", "method-choice", "validate-model-both",
            "config-numeric-str-n", "config-bool-n", "config-help", "config-abbreviated-key",
            "config-unknown-key-with-a-newline", "acceptance-above-the-bound",
            "scream-above-the-bound", "components-above-the-bound", "cycles-above-the-bound",
            "core-above-the-bound", "q-above-the-bound", "batches-above-the-bound"])
    def test_bad_input_is_a_one_line_error(self, argv, config, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            pytest.fail("bad input opened a worker pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        argv = [arg.format(missing=tmp_path / "missing.json", tmp=tmp_path) for arg in argv]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            argv += ["--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message and message.startswith("screamingtoes:")
        assert capsys.readouterr().out == ""


#: Small CLI runs whose stdout is pinned byte for byte, in every format: they
#: cover every table through every method that can fill it, the q table with
#: and without n, the exact model filter, n = 2, a direct run at n = 1000
#: whose batches span several chunks of ``samplers.CHUNK_CELLS``, a
#: core-joint batch of 40 000 replicates, three chunks of ``samplers.ROW_CHUNK``,
#: and both routes that draw whole cycle types from a table at small n, at
#: n = ``samplers.TYPE_TABLE_MAX_N`` + 1, where they draw one cycle at a time.
#: Every run but ``exact``, which takes no seed, is given ``--seed 4242``.
#: A change to any report byte must update these digests on purpose.
GOLDEN_RUNS = {
    "tables-default": ["tables", "--reps", "20000", "--batch-size", "5000", "--workers", "1"],
    "direct-n5": ["tables", "--tables", "components,scream,cycles,core,repeats",
                  "--method", "direct", "--n", "5", "--reps", "3000", "--batch-size", "1000", "--workers", "1"],
    "direct-n1000": ["simulate", "--table", "cycles", "--method", "direct", "--n", "1000",
                     "--reps", "2000", "--batch-size", "1000", "--workers", "1"],
    "rejection-n5": ["tables", "--tables", "components,acceptance",
                     "--method", "rejection", "--n", "5", "--reps", "3000", "--batch-size", "1000", "--workers", "1"],
    "core-joint-n5": ["simulate", "--table", "core", "--method", "core-joint", "--n", "5", "--reps", "3000", "--workers", "1"],
    "core-joint-n10-blocks": ["simulate", "--table", "scream", "--method", "core-joint", "--n", "10",
                              "--reps", "40000", "--workers", "1"],
    "core-joint-n5-all": ["tables", "--tables", "scream,cycles,core",
                          "--method", "core-joint", "--n", "5", "--reps", "3000", "--batch-size", "1000", "--workers", "1"],
    "brute-force-n5": ["tables", "--tables", "components,scream,cycles,core,repeats",
                       "--method", "brute-force", "--n", "5", "--reps", "1"],
    "q": ["exact", "--table", "q"],
    "q-n7": ["exact", "--table", "q", "--n", "7"],
    "exact-toes": ["exact", "--table", "components", "--n", "6", "--model", "toes"],
    "exact-standard": ["exact", "--table", "cycles", "--n", "6", "--model", "standard"],
    "n2": ["tables", "--tables", "q,components,scream,cycles,core,repeats,acceptance",
           "--n", "2", "--reps", "500", "--batch-size", "200", "--workers", "1"],
    "core-joint-n21": ["tables", "--tables", "scream,cycles,core", "--method", "core-joint", "--n", "21",
                       "--reps", "3000", "--batch-size", "1000", "--workers", "1"],
    "rejection-n21": ["tables", "--tables", "components,acceptance", "--method", "rejection", "--n", "21",
                      "--reps", "3000", "--batch-size", "1000", "--workers", "1"],
}

GOLDEN_SHA256 = {
    ("tables-default", "json"): "0a64c5410dfc2bd3183eb3c86c902c5b37bf457fe40501472ccc9dce66230fb5",
    ("tables-default", "csv"): "2dc3586181432a24b5dbb42b1534f0df4b7a31e7b2dd44ff3ba9d95224021621",
    ("tables-default", "pretty"): "b52880e560ed1a7ac63667719636c9e16fa283086b3f7e0f8ba83675edb46135",
    ("direct-n5", "json"): "e30cdd0b35b94cb7b879a2cc5f47dc19b79c24c1eebe16aaf2292b542de5b83b",
    ("direct-n5", "csv"): "8bac575f9d958742b0ebed799f5c4fa8f9ab003e064a02a8f1bc258ad49f8cad",
    ("direct-n5", "pretty"): "fa7478698f50d9841320c0f9af97b7d6cc559341c65afaf71463c6c353c1f3e5",
    ("direct-n1000", "json"): "48313b6626003e96a5a3ea72be189ba3e71b203f9b869e7adc1d7a4efe0566a5",
    ("direct-n1000", "csv"): "932c580f4f65c0ee1cda647e5b4e692063e87ede93b29e49c51ca9684c87439c",
    ("direct-n1000", "pretty"): "6ed2dd1bde7db5fb5cf6c6cccb03cb9a4cecbbb1b3c6790cfe4448e5376bbd37",
    ("rejection-n5", "json"): "7c4d25e10b194fedc3b5c8c27b181e81208ffc715cb8286779d5e1325cdc792a",
    ("rejection-n5", "csv"): "d4d074919ec509ef80547e1b422b7dadbd8b337729446c2a23da4ca8db35a258",
    ("rejection-n5", "pretty"): "c4a5e542675b5ca99a9d6c323c49ecb97c2188df8801a72b7a4d40b53d9612c4",
    ("core-joint-n5", "json"): "365f81bc9f9eaf6ab3ce667d34c1f69d6770b5dd00d4c340d82ec231347b463b",
    ("core-joint-n5", "csv"): "4aa8e25ae2c1fd87021f4045238736d154da609e7fbafa01ea9af6140c8cfc15",
    ("core-joint-n5", "pretty"): "3b8b9b90eb6de2683957eac0c5cb3dca3db56d39dbacdd1def989c73d009afc0",
    ("core-joint-n10-blocks", "json"): "65cafd742c67bbb334d33eab662b0ff1f11cf2b59b92fe3bb5659dfaa14d9bb1",
    ("core-joint-n10-blocks", "csv"): "5b556b41f5edc1c8f2534b79886966792b13ad8a2a1b78fab8e0074d174da3b7",
    ("core-joint-n10-blocks", "pretty"): "31ee859735ba0dd37ee36471cc08655a84bf5c66e312038871683ee8ec7b077e",
    ("core-joint-n5-all", "json"): "7786cfac661aeac6be6ca53214ea6127e9e42e22fd4faf2fad19a5d84d82e0bb",
    ("core-joint-n5-all", "csv"): "a278e503c9294bd964fc2edbc765d03479d3cff453122295a37bf841237dea44",
    ("core-joint-n5-all", "pretty"): "64bc7f825f282a1d0851a97aabb61e0769f32db04a98d88cce54564ccc582fd4",
    ("brute-force-n5", "json"): "cd575feea9fdd099428c48f2d02f04c42041ebb7b6f3ca6179361730355cc53f",
    ("brute-force-n5", "csv"): "284d8af1790bf0644d57a95364d801b150c6d181c1f85e914baa95971b9e9ca3",
    ("brute-force-n5", "pretty"): "ec4cd3374c0bb513bb1ea5e6cdf61a8294b9883d5f79b5162e9817ac2fc1cc8d",
    ("q", "json"): "9d2d629c8bfdb3b902320327b01d6f2652f17f34e0f3348762e5ed7a4802b197",
    ("q", "csv"): "178040b6edc27ee4b41e6ea65f802fc7156b841d8651c3c4132ba04dd36185af",
    ("q", "pretty"): "c364082adc80ddad4a6ec4cf4b12742988a98f87c4cb012bc2f5584c2c1153d3",
    ("q-n7", "json"): "2568acffc239ccc3ce4b543d9ece480283c070ebd2fecbaad01afc434c7dea28",
    ("q-n7", "csv"): "9641a3b4ab21564aa28589d5b5ff0958b0ebae2dd46b66ec899b63c488bd4ee1",
    ("q-n7", "pretty"): "7a33422bff48e3c904a4fcde4d458ced7812bb6034a6b98243dd0fb33fef9935",
    ("exact-toes", "json"): "4e9e81297cc49fc6c65469cc53a64382852b61c177a787f331b3384916b2e536",
    ("exact-toes", "csv"): "0481b405afe9848a6a10c1de1b4c6cea855fa1becb7f21b5f54bd63a31452ab1",
    ("exact-toes", "pretty"): "408be1c601a9a00e549de253a0e22cf67495d406715764b481bccf1c0d10d25b",
    ("exact-standard", "json"): "fd3cac4ec339a14329d472a0643a79b1091a43296720e5f19bf29c42bf88f3da",
    ("exact-standard", "csv"): "eaf04a4f666a5735800b6a16190455c8366ed94e23de56976b45340f2c297a6e",
    ("exact-standard", "pretty"): "f3fdc46116ff9cf4c4ec21fbe46f779ff548bdb7a14a5dd6facab918b0b421a2",
    ("n2", "json"): "6c5b5092aaf8277e66e9958e0cb9b7c8625153af156615785d47eb7db735be20",
    ("n2", "csv"): "31525b73237c63c211486103ad8469530bff704600d98010ee27cc58dd352bd2",
    ("n2", "pretty"): "e76d775b304fdde731c5d9c6a39a6a2d2c38e415793cc6220e72de64115c5c1f",
    ("core-joint-n21", "json"): "57e0e4f5a6cdb8f351f352516d4d2919270432e77df1e41172ebb5ce81d29ec3",
    ("core-joint-n21", "csv"): "18851ce82f8f7ee13a1e2da9f0af20dfb2e66f9babddf76df981e2fc66f76327",
    ("core-joint-n21", "pretty"): "8682279c95462e94e96bca912279165ecf08a7f4d8f9722ac7fff1dd6ab49831",
    ("rejection-n21", "json"): "acec9c718dd34efd48c6d9d1f60de88c3888d3ec3a598cc5d977aca96b182853",
    ("rejection-n21", "csv"): "4d8aaf0c08b9c5706226068345bd544c92769ea5762db0ce2f706a9fa9125ec9",
    ("rejection-n21", "pretty"): "af4d47585b4db1ada8d6852c5f96a473eaa03b074797792cd204e2818e29f140",
}


def test_step_golden_runs_sit_just_above_the_type_tables():
    for run in ("core-joint-n21", "rejection-n21"):
        argv = GOLDEN_RUNS[run]
        assert int(argv[argv.index("--n") + 1]) == samplers.TYPE_TABLE_MAX_N + 1


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_golden_report_bytes(run, capsys):
    seed = [] if GOLDEN_RUNS[run][0] == "exact" else ["--seed", "4242"]  # exact draws nothing
    for fmt in ("json", "csv", "pretty"):
        assert cli.main(GOLDEN_RUNS[run] + ["--format", fmt, *seed]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_SHA256[run, fmt], (run, fmt)
