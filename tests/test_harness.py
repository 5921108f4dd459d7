"""Harness tests: enumeration golden values, table plumbing, serialisation
determinism, and the CLI."""

import json
import math
from fractions import Fraction as F

import pytest

from screamingtoes import cli, harness, laws
from screamingtoes.exact import to_mpf
from screamingtoes.harness import ExperimentConfig, brute_force_law, emit, parse_report, run_table


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

    def test_method_compatibility(self):
        cfg = ExperimentConfig(n=6, method="rejection", tables=("scream",))
        with pytest.raises(ValueError):
            cfg.method_for("scream")
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
            assert rec.simulated == pytest.approx(float(to_mpf(rec.exact)), abs=1e-15)
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
        cfg = dict(n=8, replicates=30_000, seed=77, tables=("scream", "repeats"),
                   method="direct", batch_size=10_000)
        a = emit(run_table(ExperimentConfig(**cfg, workers=1)), "json")
        b = emit(run_table(ExperimentConfig(**cfg, workers=2)), "json")
        assert a == b

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

    def test_pretty_contains_titles(self, report):
        text = emit(report, "pretty")
        assert "screaming pairs" in text
        assert "scream_pmf[k=0]" in text

    def test_out_writes_file(self, report, tmp_path):
        path = tmp_path / "report.csv"
        emit(report, "csv", out=str(path))
        assert path.read_text().startswith("statistic,")

    def test_unknown_format(self, report):
        with pytest.raises(ValueError):
            emit(report, "xml")

    def test_big_rationals_serialise(self):
        report = run_table(ExperimentConfig(n=10_000, replicates=0, tables=("q",)))
        again = parse_report(emit(report, "json"))
        assert again.records[0].exact == report.records[0].exact


class TestRepeatedSizeStats:
    def test_degenerate_n2(self):
        assert harness.repeated_size_stats(2, 200, seed=1) == (1.0, 1.0, 1.0)

    def test_n4_matches_enumeration(self):
        reps = 40_000
        sim = harness.repeated_size_stats(4, reps, seed=21, batch_size=10_000)
        exact = brute_force_law(4, "toes").no_repeat
        for s, e in zip(sim, exact):
            e = float(to_mpf(e))
            se = math.sqrt(e * (1 - e) / reps)
            assert abs(s - e) <= 4 * se


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

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_WORKERS, "3")
        assert harness.default_workers() == 3
