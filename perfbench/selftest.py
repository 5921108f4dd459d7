"""Self-test of the benchmark; about a minute.

    python3 perfbench/selftest.py

1. Every workload and metric named in BENCHMARK.json is emitted by the
   runner, with its unit, in both modes.
2. The output checks flag biased cells and a validate FAIL, and a failing
   or timed-out invocation is counted in ``failed`` (and so in
   ``error_rate``), not dropped.
3. Smoke mode (tiny replicate counts) runs every workload path, traced and
   untraced, with every check passing.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT = "core-n1000-exact-n40"


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_names_match_the_spec() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.LAYER_TARGETS)


def test_smoke_emits_every_metric() -> None:
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _smoke(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def _failing_run(name: str, steps, limit: float | None = None, golden=None) -> dict:
    workload = run.Workload(name, steps, steps, 1)
    saved = run.INVOCATION_LIMIT_S
    if limit is not None:
        run.INVOCATION_LIMIT_S = limit
    try:
        return run.run(workload, run.DEFAULT_SEED, 0.0, trace=False, smoke=True, golden=golden)
    finally:
        run.INVOCATION_LIMIT_S = saved


def _exact_n40(change=None) -> list[dict]:
    """Golden values of the n = 40 tables step, optionally altered."""
    golden = json.loads((run.BENCH / "golden.json").read_text())[EXACT]
    step = copy.deepcopy(golden[1])
    if change is not None:
        change(step)
    return [step]


def _final(result: dict) -> dict:
    return json.loads(run.report(result).splitlines()[-1])


def test_failures_are_counted() -> None:
    n40_step = run.WORKLOADS[EXACT].smoke_steps[1:2]
    cases = {
        "non-zero exit": _failing_run(EXACT, (("validate", "--n", "9"),)),
        "time limit": _failing_run("ref-n10", run.WORKLOADS["ref-n10"].steps, limit=1.0),
        "wrong exact rational": _failing_run(EXACT, n40_step, golden=_exact_n40(
            lambda g: g["core"].update(sha256="0" * 64))),
        "wrong exact float": _failing_run(EXACT, n40_step, golden=_exact_n40(
            lambda g: g["acceptance"]["floats"].update(
                acceptance_rate=g["acceptance"]["floats"]["acceptance_rate"] * (1 + 1e-9)))),
    }
    for label, result in cases.items():
        final = _final(result)
        assert final["attempted"] == 1 and final["failed"] == 1, (label, final)
        assert final["correct"] is False, label
        assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}, label
        assert "error_rate" in run.report(result), label
        print(f"ok  {label}: counted as failed ({result['problems'][0]})")


def test_gate_flags_bad_cells() -> None:
    def report(exact: str, simulated: float, z: float, reps: int = 10**6) -> dict:
        rec = {"table": "t", "name": "cell", "exact_rational": exact, "exact_float": None,
               "simulated": simulated, "z": z}
        return {"metadata": {"replicates": reps}, "records": [rec]}

    assert not checks.check_simulated(report("1/2", 0.5001, 0.2))[0]
    assert checks.check_simulated(report("1/2", 0.51, 20.0))[0]  # dense, |z| > 5
    assert not checks.check_simulated(report("1/10000000", 0.0, float("inf")))[0]
    assert checks.check_simulated(report("1/100000000", 4e-5, 400.0))[0]  # 40 hits, 0.01 due
    many = {"metadata": {"replicates": 10**6}, "records": [
        {"table": "t", "name": f"c{k}", "exact_rational": "1/2", "exact_float": None,
         "simulated": 0.5, "z": 2.5 if k < 10 else 0.1} for k in range(20)]}
    assert checks.check_simulated(many)[0]  # half the dense cells beyond 2 sigma
    assert checks.check_validate("a  PASS\nb  FAIL\n") and not checks.check_validate("a  PASS\n")
    print("ok  gate flags biased cells")


def main() -> int:
    run._become_subreaper()
    test_names_match_the_spec()
    test_gate_flags_bad_cells()
    test_failures_are_counted()
    test_smoke_emits_every_metric()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
