"""Write golden.json: the exact cells of every workload's reports.

    python3 perfbench/make_golden.py

Run once, on the commit whose exact laws are the reference.
Exact cells do not depend on the seed or the replicate count, so the smoke
argv (few replicates) gives the same exact columns as the measured one.
"""

import json
import shutil
import sys

import checks
import run


def main() -> int:
    golden = {}
    workdir = run.OUT / "golden"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for workload in run.WORKLOADS.values():
            golden[workload.name] = []
            for step in workload.smoke_steps:
                if step[0] == "validate":
                    continue
                report = workdir / "report.json"
                argv = [*step, "--seed", str(run.DEFAULT_SEED), "--format", "json",
                        "--out", str(report)]
                proc = run.spawn(argv, workdir, run.INVOCATION_LIMIT_S)
                if proc.returncode != 0:
                    sys.exit(f"{workload.name}: {' '.join(argv)} failed")
                text = report.read_text()
                golden[workload.name].append(checks.exact_summary(json.loads(text)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
