"""Harness tests: enumeration golden values, table plumbing, serialisation
determinism, and the CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import screamingtoes
from screamingtoes import cli, harness, laws, samplers
from screamingtoes.harness import ExperimentConfig, brute_force_law, emit, parse_report, run_table


#: sha256 of repr(brute_force_law(n, model)) for n = 2..7, computed by an
#: enumeration that decomposed each mapping with the scalar walk
#: oracles.decompose_image, independently of decompose_batch.
BRUTE_FORCE_SHA256 = {
    "toes": (
        "300166c581cfd9815d0164c064a10ab9b6501996a91aaed50fe6f89a0619d5a4",
        "7a3755a0acb9956009a0e2d66f4c839fc8051107c6b3a19b4dcffcdae14d59f9",
        "7a5c0000274e4d84d7d2bac4a1e37e11b852467af27f9fb13d15dea13933cbce",
        "b48dd16d35f53db68e19a5f9945d15d554b7fc5c13d724fd2e3ea3233a9c60c2",
        "ba2f457f0e27d35231270da01055e3bed3c0a190654e50919920c8049aac97c1",
        "25056535054f6916d8922d3561bfa0cc0ce8f5cbcbaafb596ebb134f0109a1af",
    ),
    "standard": (
        "a5648f18180b722fa2f44bcd05b07e6d55b1abf9ff602074d66bec40bd180b1d",
        "71942d67a3ac12e3faf62bdea9158d89b73736442f23c4103289d9bfea5b51d0",
        "86d4c809ddf247e9e2c9892fbd05bfeeb065615b5ad182a8531f2a8183fbefe0",
        "59421c2f59e86aac970c1832c63f020ecb6b2b2ab2d6d99d9759d71f239d784c",
        "17c8ec28429830a61afb6e8a94ec4084710413721fdcb912aaa9952802991122",
        "7ca6ea1831e302edb6ed627d43662a03d5943850d0ea26d83f28731f9c12349d",
    ),
}


class TestBruteForce:
    def test_n3_golden(self):
        law = brute_force_law(3, "toes")
        assert law.total == 8
        assert law.component_pmf == {(3,): F(1)}
        assert law.cycle_pmf == {(2,): F(3, 4), (3,): F(1, 4)}
        assert law.core_pmf == {2: F(3, 4), 3: F(1, 4)}
        assert law.scream_pmf == {0: F(1, 4), 1: F(3, 4)}
        assert law.mean_components == 1
        assert law.no_repeat == (1, 1, 1)
        assert law.joint_pmf == {((3,), (2,)): F(3, 4), ((3,), (3,)): F(1, 4)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_validate_toes(self, n):
        assert all(ok for _, ok in harness.validate(n, "toes"))

    def test_validate_standard(self):
        assert all(ok for _, ok in harness.validate(4, "standard"))

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_validate_at_the_enumeration_bound(self, model):
        checks = harness.validate(7, model)
        assert all(ok for _, ok in checks), checks

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

    def test_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(method="magic")
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)
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

    def test_core_table_n2_single_row(self):
        report = run_table(ExperimentConfig(n=2, replicates=0, tables=("core",)))
        toes = [r for r in report.records if not r.name.startswith("core_size_std")]
        assert len(toes) == 1
        assert toes[0].name == "core_size[r=2]" and toes[0].exact == 1

    def test_many_batches_hold_one_tally_at_a_time(self):
        # 2000 one-replicate batches at n = 1000, each tally about 27 KB: kept
        # until the end they would trace over 50 MB, merged on arrival under 1 MB
        config = ExperimentConfig(n=1000, replicates=2000, batch_size=1, tables=("cycles",),
                                  workers=1)
        samplers._core_size_cdf(1000)  # the cached exact CDF is set-up, not tally memory
        tracemalloc.start()
        try:
            tally = harness._run_simulation("core-joint", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tally["replicates"] == 2000 and tally["core_hist"].sum() == 2000
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
        again = parse_report(emit(report, "json"))
        assert again == report

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


def _no_repeat_shares(n, reps, seed, **config):
    """The direct route's (no repeated component size, no repeated cycle
    length, neither) shares; a config with no table builds no exact column."""
    config = ExperimentConfig(n=n, replicates=reps, seed=seed, tables=(), **config)
    tally = harness._run_simulation("direct", config)
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


def _run_python(script: str, argv: list[str]) -> subprocess.CompletedProcess:
    """``python -c script argv...`` in a fresh interpreter that imports this
    package from the source tree."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


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

    def test_simulate(self, capsys):
        rc = cli.main([
            "simulate", "--table", "scream", "--n", "6", "--reps", "5000",
            "--seed", "2", "--format", "csv", "--workers", "1",
        ])
        assert rc == 0
        assert "scream_pmf[k=0]" in capsys.readouterr().out

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
    def test_standard_model_on_a_toes_only_table_is_a_one_line_error(self, table, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["exact", "--table", table, "--n", "6", "--model", "standard"])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "no standard-model cells" in message
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

    @pytest.mark.parametrize("argv, config", [
        (["tables", "--tables", ","], None),
        (["exact", "--table", "q", "--config", "{missing}"], None),
        (["exact", "--table", "q"], "{not json"),
        (["simulate", "--table", "scream"], '{"n": "ten"}'),
        (["simulate", "--table", "scream", "--n", "5"], '{"reps": 4000.5}'),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--workers", "abc"], None),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--workers", "0"], None),
        (["simulate", "--table", "scream", "--n", "5", "--reps", "100", "--workers", "-3"], None),
        (["exact", "--table", "q", "--n", "5"], '{"format": "xml"}'),
        (["validate", "--n", "4"], '{"model": "foo"}'),
        (["exact", "--table", "q", "--n", "5"], '{"model": "foo"}'),
        (["exact", "--table", "core", "--n", "4", "--out", "{tmp}/no-such-dir/x.csv"], None),
        (["exact", "--table", "core", "--n", "4", "--out", "{tmp}"], None),
        (["validate", "--n", "8"], None),
        (["validate", "--n", "3", "--format", "json"], None),
        (["validate", "--n", "3", "--workers", "2"], None),
        (["validate", "--n", "3", "--batch-size", "100"], None),
        (["validate", "--n", "3"], '{"format": "csv"}'),
        (["validate", "--n", "3"], '{"workers": 2}'),
        (["validate", "--n", "3"], '{"batch-size": 100}'),
        (["exact", "--table", "q", "--n", "abc"], None),
        (["simulate", "--table", "q", "--bogus", "1"], None),
        (["exact", "--n", "3"], None),
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
    ], ids=["empty-tables", "missing-config", "config-not-json", "config-str-n",
            "config-float-reps", "workers-not-an-integer", "workers-0", "workers-negative",
            "config-format-choice",
            "config-model-choice-validate", "config-model-choice-exact", "out-missing-dir",
            "out-is-a-dir", "validate-n8", "validate-format", "validate-workers",
            "validate-batch-size", "validate-config-format", "validate-config-workers",
            "validate-config-batch-size", "n-not-an-integer", "unknown-flag", "exact-without-table",
            "empty-argv", "format-choice", "method-choice", "validate-model-both",
            "config-numeric-str-n", "config-bool-n", "config-help", "config-abbreviated-key",
            "config-unknown-key-with-a-newline", "acceptance-above-the-bound"])
    def test_bad_input_is_a_one_line_error(self, argv, config, tmp_path, capsys):
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
#: and without n, the exact model filter, n = 2, and a direct run at
#: n = 1000 whose batches span several chunks of ``samplers.CHUNK_CELLS``.
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
}

GOLDEN_SHA256 = {
    ("tables-default", "json"): "df63391f7d09e66658a455a1ec5a68849076cb125cbd1e12c47e223dd2000baf",
    ("tables-default", "csv"): "5132cd18c55a58e4e06284ac4f3a6aef3927cebd616770946f2b41ed79919a0a",
    ("tables-default", "pretty"): "d95c1c87790df89e4e4e874b52af02904d348e244a124ff508ad619eb21a2a01",
    ("direct-n5", "json"): "e30cdd0b35b94cb7b879a2cc5f47dc19b79c24c1eebe16aaf2292b542de5b83b",
    ("direct-n5", "csv"): "8bac575f9d958742b0ebed799f5c4fa8f9ab003e064a02a8f1bc258ad49f8cad",
    ("direct-n5", "pretty"): "fa7478698f50d9841320c0f9af97b7d6cc559341c65afaf71463c6c353c1f3e5",
    ("direct-n1000", "json"): "f923fde6fd3d570689dd999e7fd10ec07f495d929adadfc8b3c93e919e7bc276",
    ("direct-n1000", "csv"): "9beba48fbb4d15087fe3c6443e1394548589a566b28ff7f0119451a173050020",
    ("direct-n1000", "pretty"): "672c73495cb6d58fe947d3824258fbca84639e9de28d03be79917083d72e0509",
    ("rejection-n5", "json"): "84494d6706bc166dac665a4d4c74b37939f3c7fba4413745d349d40ceb6ea9a9",
    ("rejection-n5", "csv"): "c88370904d0728bc5725246f362b8c64429a9274601000039f18dbf2cf2fce0b",
    ("rejection-n5", "pretty"): "aa26d86e59c2a161b12623a390e2b1fad220ebf3ff50c7ebf1c84aa40f1b0fd2",
    ("core-joint-n5", "json"): "365f81bc9f9eaf6ab3ce667d34c1f69d6770b5dd00d4c340d82ec231347b463b",
    ("core-joint-n5", "csv"): "4aa8e25ae2c1fd87021f4045238736d154da609e7fbafa01ea9af6140c8cfc15",
    ("core-joint-n5", "pretty"): "3b8b9b90eb6de2683957eac0c5cb3dca3db56d39dbacdd1def989c73d009afc0",
    ("core-joint-n5-all", "json"): "31d7fad479b48549b575a406f0caee8338230ea417dc82df585768a1dc7e2f45",
    ("core-joint-n5-all", "csv"): "31945133b88d791cde0103f52c3b6040ba9b652c613c62ab5a307b218b9ad6a7",
    ("core-joint-n5-all", "pretty"): "a4963d960ca62e25dfeca821095af22e06d24a78e7d90176eb339c3c9578eaf0",
    ("brute-force-n5", "json"): "cd575feea9fdd099428c48f2d02f04c42041ebb7b6f3ca6179361730355cc53f",
    ("brute-force-n5", "csv"): "284d8af1790bf0644d57a95364d801b150c6d181c1f85e914baa95971b9e9ca3",
    ("brute-force-n5", "pretty"): "ec4cd3374c0bb513bb1ea5e6cdf61a8294b9883d5f79b5162e9817ac2fc1cc8d",
    ("q", "json"): "a13a32ea8cdaa0f2e9f1f73b852ea0f083c0abef698fdc313a2e2ad3c0aae9a7",
    ("q", "csv"): "178040b6edc27ee4b41e6ea65f802fc7156b841d8651c3c4132ba04dd36185af",
    ("q", "pretty"): "c364082adc80ddad4a6ec4cf4b12742988a98f87c4cb012bc2f5584c2c1153d3",
    ("q-n7", "json"): "4dec62312e22f7b2a220b29eb83ef9cd96139fccb6f616d6e713118f862c4876",
    ("q-n7", "csv"): "9641a3b4ab21564aa28589d5b5ff0958b0ebae2dd46b66ec899b63c488bd4ee1",
    ("q-n7", "pretty"): "7a33422bff48e3c904a4fcde4d458ced7812bb6034a6b98243dd0fb33fef9935",
    ("exact-toes", "json"): "43cfb251ddaf8b83375dbf63f179d97bbad288b93aaaafbbb7d34408477b7a78",
    ("exact-toes", "csv"): "0481b405afe9848a6a10c1de1b4c6cea855fa1becb7f21b5f54bd63a31452ab1",
    ("exact-toes", "pretty"): "408be1c601a9a00e549de253a0e22cf67495d406715764b481bccf1c0d10d25b",
    ("exact-standard", "json"): "20108ce8e4a8fcbb5c62ab24efefda1111635a0fff7d17e6e91c70a9d052d947",
    ("exact-standard", "csv"): "eaf04a4f666a5735800b6a16190455c8366ed94e23de56976b45340f2c297a6e",
    ("exact-standard", "pretty"): "f3fdc46116ff9cf4c4ec21fbe46f779ff548bdb7a14a5dd6facab918b0b421a2",
    ("n2", "json"): "394a7e47e3557f32b07de98efe6caf1e39d4cdf9774ac25c6a615ba1dfcf703b",
    ("n2", "csv"): "d4bd65541585425f018304d23222daf12c190bd96ee36e4816d37dcc1a19e77d",
    ("n2", "pretty"): "c84c5ab72ce83365a31ad3eefbc2b3108ed1c7b4bf0d05ce4c05a2ff02a995a6",
}


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_golden_report_bytes(run, capsys):
    for fmt in ("json", "csv", "pretty"):
        assert cli.main(GOLDEN_RUNS[run] + ["--format", fmt, "--seed", "4242"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_SHA256[run, fmt], (run, fmt)
