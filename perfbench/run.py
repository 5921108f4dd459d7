"""Benchmark of the screamingtoes command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--smoke]

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One run repeats the workload's CLI invocations, one at a
time as real processes, until ``--seconds`` of measuring have passed, checks
the output of every invocation (``checks.py``) and prints the metrics named
in ``BENCHMARK.json``, each a median over the run's invocations.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` makes one memory pass (spans with ``tracemalloc`` peaks, which
slow some kernels), then alternates untraced and traced invocations of the
same argv, and reports the per-layer metrics from the spans of ``spans.py``,
plus the tracing overhead and the share of wall time the spans cover.

``--smoke`` runs each invocation once with tiny replicate counts, to show
that every workload path works; its numbers are not measurements.

The workload seed (default 20260808, the acceptance suite's) is passed to
the CLI as ``--seed``.  Invocations of one run share their seed, so their
report records must be identical; a run whose records differ fails.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 20260808
#: A run stops starting invocations once this much wall time has gone.
RUN_DEADLINE_S = 165.0
#: An invocation (all its CLI processes) that takes longer fails.
INVOCATION_LIMIT_S = 120.0
#: Import-only spawns at the start of a run, after one that is not counted.
#: One more precedes each invocation, so that the samples span the run as
#: the host's speed drifts.
SETUP_SPAWNS = 2

PR_SET_CHILD_SUBREAPER = 36


@dataclass(frozen=True)
class Workload:
    """CLI invocations of one workload.  A step that writes a report gets
    ``--format json --out PATH``; a ``validate`` step is checked on stdout."""

    name: str
    steps: tuple[tuple[str, ...], ...]
    smoke_steps: tuple[tuple[str, ...], ...]
    #: Replicates per invocation, the numerator of ``reps_per_s``.
    work: int


WORKLOADS = {
    w.name: w
    for w in (
        # the reference experiment at n = 10: many short rows through the
        # rejection and core-joint routes, 8 batches per kind over 2 workers
        Workload(
            "ref-n10",
            (("tables", "--reps", "1000000", "--workers", "2"),),
            (("tables", "--reps", "20000", "--batch-size", "5000", "--workers", "2"),),
            1_000_000,
        ),
        # the direct route with long rows: decompose_batch is memory-bound;
        # the batch is explicit because the default one exhausts memory here
        Workload(
            "direct-n1000",
            (("simulate", "--table", "cycles", "--method", "direct", "--n", "1000",
              "--reps", "40000", "--batch-size", "10000", "--workers", "2"),),
            (("simulate", "--table", "cycles", "--method", "direct", "--n", "1000",
              "--reps", "2000", "--batch-size", "500", "--workers", "2"),),
            40_000,
        ),
        # the exact-law layers: large-n laws in the parent, the core-size CDF
        # in each worker, wide derangement draws and a 17 MB JSON emit
        # (core-n1000); then no sampling at all, exponential enumerations at
        # n = 40 and the brute-force oracle over all 6**7 mappings (exact-n40).
        # One workload, not two, so that a run measures long enough: alone,
        # the pure-Python exact-n40 spread by up to a quarter between runs on
        # a 2-vCPU host whose speed drifts by tens of percent.
        Workload(
            "core-n1000-exact-n40",
            (("tables", "--tables", "scream,cycles,core", "--n", "1000",
              "--reps", "500000", "--workers", "2"),
             ("tables", "--tables", "components,cycles,core,scream,repeats,acceptance",
              "--n", "40", "--reps", "0"),
             ("validate", "--n", "7")),
            (("tables", "--tables", "scream,cycles,core", "--n", "1000",
              "--reps", "20000", "--batch-size", "5000", "--workers", "2"),
             ("tables", "--tables", "components,cycles,core,scream,repeats,acceptance",
              "--n", "40", "--reps", "0"),
             ("validate", "--n", "5")),
            500_000,
        ),
    )
}

#: Which end-to-end metric, on which workload, each per-layer metric should
#: move.  A per-layer metric reads 0 on a workload where its layer does no work.
LAYER_TARGETS = {
    "harness.run_table.self_s": "wall_s on ref-n10",
    "harness.batches": "wall_s on ref-n10",
    "harness.emit.s": "wall_s on core-n1000-exact-n40",
    "harness.emit.bytes": "wall_s on core-n1000-exact-n40",
    "harness.brute_force_law.s": "wall_s on core-n1000-exact-n40",
    "harness.brute_force_law.mappings": "wall_s on core-n1000-exact-n40",
    "laws.core_size_table.s": "wall_s on core-n1000-exact-n40",
    "laws.core_size_pmf.s": "wall_s on core-n1000-exact-n40",
    "laws.core_size_pmf.calls": "wall_s on core-n1000-exact-n40",
    "laws.scream_pmf.s": "wall_s on core-n1000-exact-n40",
    "laws.mean_cycle_count.s": "wall_s on core-n1000-exact-n40",
    "laws.mean_component_count.s": "wall_s on core-n1000-exact-n40 (its n = 40 tables)"
                                   " and ref-n10",
    "laws.prob_someone_screams.s": "wall_s on ref-n10",
    "laws.prob_no_repeated_sizes.s": "wall_s on core-n1000-exact-n40",
    "samplers.exact_acceptance_probability.s": "wall_s on core-n1000-exact-n40",
    "exact.to_mpf.s": "wall_s on core-n1000-exact-n40",
    "exact.to_mpf.calls": "wall_s on core-n1000-exact-n40",
    "exact.format_fixed.s": "none yet: only the csv and pretty emitters call it",
    "samplers.sample_mappings_batch.s": "wall_s, reps_per_s on direct-n1000",
    "samplers.decompose_batch.s": "wall_s, reps_per_s on direct-n1000",
    "samplers.decompose_batch.cells": "wall_s, reps_per_s on direct-n1000",
    "samplers.decompose_batch.peak_mb": "peak_rss_mb on direct-n1000",
    "samplers.esf_cycle_counts_batch.s": "wall_s, cpu_s on ref-n10",
    "samplers.esf.proposals": "wall_s, cpu_s on ref-n10",
    "samplers.esf.accepted": "wall_s, cpu_s on ref-n10",
    "samplers.esf.accept_ratio": "wall_s, cpu_s on ref-n10",
    "samplers.toes_component_counts_batch.self_s": "wall_s, cpu_s on ref-n10",
    "samplers.toes_component_counts_batch.peak_mb": "wall_s, cpu_s on ref-n10",
    "samplers.core_sizes_batch.s":
        "wall_s, peak_rss_mb on core-n1000-exact-n40; wall_s on ref-n10",
    "samplers.core_sizes_batch.first_s":
        "wall_s, peak_rss_mb on core-n1000-exact-n40; wall_s on ref-n10",
    "samplers.derangement_cycle_counts_batch.s":
        "wall_s, peak_rss_mb on core-n1000-exact-n40; wall_s on ref-n10",
    "samplers.derangement_cycle_counts_batch.rows":
        "wall_s, peak_rss_mb on core-n1000-exact-n40; wall_s on ref-n10",
    "samplers.derangement_cycle_counts_batch.peak_mb":
        "wall_s, peak_rss_mb on core-n1000-exact-n40; wall_s on ref-n10",
    "trace.overhead_s": "none: traced minus untraced wall_s",
    "trace.span_coverage": "none: share of traced wall_s inside top-level spans",
}

#: The spans whose calls are the harness's batches (one kernel per batch).
BATCH_KERNELS = (
    "samplers.sample_mappings_batch",
    "samplers.toes_component_counts_batch",
    "samplers.toes_core_cycle_counts_batch",
)


# ---------------------------------------------------------------------------
# Processes


@dataclass
class Process:
    """One finished CLI process, with its whole tree's resource use."""

    returncode: int | None  # None: killed at the time limit
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    stdout: str


def _become_subreaper() -> None:
    """Adopt orphaned descendants (a killed CLI's pool workers), so that
    :func:`_reap_group` can wait for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int, limit_s: float = 10.0) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    ends = time.monotonic() + limit_s
    while time.monotonic() < ends:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.02)


def spawn(argv: list[str], workdir: Path, timeout: float, *, trace_dir: Path | None = None,
          memory: bool = False, setup_only: bool = False) -> Process:
    """Run ``launch.py ARGV`` in `workdir` and wait for it (and its pool)."""
    entry = workdir / "entry"
    entry.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
    env.update(PYTHONPATH=str(SRC), PERFBENCH_ENTRY=str(entry))
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    if memory:
        env["PERFBENCH_TRACE_MEMORY"] = "1"
    if setup_only:
        env["PERFBENCH_SETUP_ONLY"] = "1"
    stdout_path = workdir / "stdout"
    with open(stdout_path, "w") as out, open(workdir / "stderr", "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py"), *argv],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set() or proc.returncode != 0:
        _reap_group(proc.pid)
    setup = None
    if entry.exists():
        setup = float(entry.read_text()) - started
    return Process(
        returncode=None if killed.is_set() else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=setup,
        stdout=stdout_path.read_text(),
    )


# ---------------------------------------------------------------------------
# Invocations


#: How an invocation runs: untraced, with timing spans, or with spans and
#: tracemalloc peaks.
PLAIN, SPANS, MEMORY = "plain", "spans", "memory"


@dataclass
class Invocation:
    """One pass over a workload's steps."""

    mode: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setups: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    nonfinite_z: int = 0
    spans: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def invoke(steps, golden: list[dict], seed: int, workdir: Path, deadline: float,
           mode: str = PLAIN) -> Invocation:
    inv = Invocation(mode)
    digests = []
    report_index = 0
    for index, step in enumerate(steps):
        argv = [*step, "--seed", str(seed)]
        report = workdir / "report.json"
        if step[0] != "validate":
            argv += ["--format", "json", "--out", str(report)]
            report.unlink(missing_ok=True)
        trace_dir = None
        if mode != PLAIN:
            trace_dir = workdir / f"trace-{index}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        timeout = min(INVOCATION_LIMIT_S - inv.wall_s, deadline - time.monotonic())
        proc = spawn(argv, workdir, timeout, trace_dir=trace_dir, memory=mode == MEMORY)
        inv.wall_s += proc.wall_s
        inv.cpu_s += proc.cpu_s
        inv.peak_rss_mb = max(inv.peak_rss_mb, proc.peak_rss_mb)
        if proc.setup_s is not None:
            inv.setups.append(proc.setup_s)
        if proc.returncode is None:
            inv.problems.append(f"{step[0]}: killed after {proc.wall_s:.1f} s (time limit)")
            break
        if proc.returncode != 0:
            inv.problems.append(f"{step[0]}: exit code {proc.returncode}")
            break
        if step[0] == "validate":
            inv.problems += checks.check_validate(proc.stdout)
            digests.append(hashlib.sha256(proc.stdout.encode()).hexdigest())
        else:
            text = report.read_text() if report.exists() else ""
            problems, digest, nonfinite = checks.check_report_text(text, golden[report_index])
            report_index += 1
            inv.problems += problems
            inv.nonfinite_z += nonfinite
            digests.append(digest)
        if trace_dir is not None:
            inv.spans += [json.loads(path.read_text())
                          for path in sorted(trace_dir.glob("spans-*.json"))]
    inv.digest = hashlib.sha256("".join(map(str, digests)).encode()).hexdigest()
    return inv


# ---------------------------------------------------------------------------
# Metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, from every process's spans."""
    total: dict[str, dict] = {}
    firsts: dict[str, list[float]] = {}
    top_s = 0.0
    for proc in spans:
        if proc["main"]:
            top_s += proc["top_s"]
        for name, entry in proc["stats"].items():
            agg = total.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "count": 0, "peak_bytes": 0})
            for key in ("calls", "total_s", "self_s", "count"):
                agg[key] += entry[key]
            agg["peak_bytes"] = max(agg["peak_bytes"], entry["peak_bytes"])
            firsts.setdefault(name, []).append(entry["first_s"])

    def get(span: str, key: str):
        return total.get(span, {}).get(key, 0)

    proposals = get("samplers.esf_cycle_counts_batch", "count")
    accepted = get("samplers.toes_component_counts_batch", "count")
    metrics = {
        "harness.batches": sum(get(k, "calls") for k in BATCH_KERNELS),
        "harness.emit.bytes": get("harness.emit", "count"),
        "harness.brute_force_law.mappings": get("harness.brute_force_law", "count"),
        "samplers.decompose_batch.cells": get("samplers.decompose_batch", "count"),
        "samplers.esf.proposals": proposals,
        "samplers.esf.accepted": accepted,
        "samplers.esf.accept_ratio": accepted / proposals if proposals else 0.0,
        "samplers.derangement_cycle_counts_batch.rows":
            get("samplers.derangement_cycle_counts_batch", "count"),
        "trace.span_coverage": top_s / wall_s if wall_s else 0.0,
    }
    for name in LAYER_TARGETS:
        if name in metrics:
            continue
        span, _, kind = name.rpartition(".")
        if kind == "s":
            metrics[name] = get(span, "total_s")
        elif kind == "self_s":
            metrics[name] = get(span, "self_s")
        elif kind == "calls":
            metrics[name] = get(span, "calls")
        elif kind == "first_s":
            metrics[name] = _median(firsts.get(span, ()))
        elif kind == "peak_mb":
            metrics[name] = get(span, "peak_bytes") / 2**20
    return metrics


# ---------------------------------------------------------------------------
# Environment


def _host_probe_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs right
    now.  The load average misses contention from outside this machine's own
    processes, which moves every timing here by tens of percent."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def environment(seed: int) -> dict:
    def read(path: str) -> str:
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((line.split(":", 1)[1].strip() for line in read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "")
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "screamingtoes").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total": mem,
        "loadavg_at_start": list(os.getloadavg()),
        "host_probe_s": _host_probe_s(),
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# A run


def run(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool = False,
        golden: list[dict] | None = None) -> dict:
    """Measure one workload; returns the result object (see module docstring)
    with the environment, every invocation's problems and the raw samples."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if golden is None:
        golden = json.loads((BENCH / "golden.json").read_text())[workload.name]
    steps = workload.smoke_steps if smoke else workload.steps
    workdir = OUT / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(seed)

    def setup_spawn() -> float:
        proc = spawn([], workdir, INVOCATION_LIMIT_S, setup_only=True)
        if proc.returncode != 0 or proc.setup_s is None:
            raise SystemExit(f"perfbench: the CLI does not start (exit {proc.returncode}): "
                             + (workdir / "stderr").read_text().strip()[-500:])
        return proc.setup_s

    try:
        setup_spawn()  # warms the bytecode and file caches; not counted
        setups = [setup_spawn() for _ in range(SETUP_SPAWNS)]
        measuring = time.monotonic()
        invs = [invoke(steps, golden, seed, workdir, deadline, MEMORY)] if trace else []
        while True:
            setups.append(setup_spawn())
            for mode in ((PLAIN, SPANS) if trace else (PLAIN,)):
                invs.append(invoke(steps, golden, seed, workdir, deadline, mode))
            now = time.monotonic()
            last = invs[-1].wall_s * (2 if trace else 1)
            if smoke or now - measuring >= seconds or now + 1.5 * last > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = next((i.digest for i in invs if i.ok), None)
    for i in invs:
        if i.ok and i.digest != reference:
            i.problems.append("report records differ from the run's first invocation")
    plain = [i for i in invs if i.mode == PLAIN]
    traced = [i for i in invs if i.mode == SPANS]
    measured = [i for i in plain if i.ok] or plain
    samples = {
        "wall_s": [i.wall_s for i in measured],
        "cpu_s": [i.cpu_s for i in measured],
        "reps_per_s": [workload.work / i.wall_s for i in measured],
        "peak_rss_mb": [i.peak_rss_mb for i in measured],
        "setup_s": setups + [s for i in plain for s in i.setups],
    }
    result = {
        "workload": workload.name,
        "trace": trace,
        "smoke": smoke,
        "environment": env,
        "invocations": len(invs),
        "failed": sum(not i.ok for i in invs),
        "problems": sorted({p for i in invs for p in i.problems}),
        "nonfinite_z_cells": max((i.nonfinite_z for i in invs), default=0),
        "end_to_end": {name: _median(values) for name, values in samples.items()},
        "samples": samples,
    }
    if trace:
        per_inv = [layer_metrics(i.spans, i.wall_s) for i in ([i for i in traced if i.ok]
                                                              or traced)]
        layers = {name: _median(m[name] for m in per_inv)
                  for name in LAYER_TARGETS if name != "trace.overhead_s"}
        peaks = layer_metrics(invs[0].spans, invs[0].wall_s)
        layers.update({name: value for name, value in peaks.items() if name.endswith(".peak_mb")})
        layers["trace.overhead_s"] = (_median(i.wall_s for i in traced)
                                      - _median(i.wall_s for i in plain))
        result["per_layer"] = layers
        result["samples"]["traced_wall_s"] = [i.wall_s for i in traced]
    return result


def _units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def report(result: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    e2e_units, layer_units = _units()
    invs, failed = result["invocations"], result["failed"]
    lines = [
        f"perfbench {result['workload']}: {invs} invocations, trace={int(result['trace'])}"
        + (" (smoke)" if result["smoke"] else ""),
        "environment " + json.dumps(result["environment"], sort_keys=True),
    ]
    for problem in result["problems"]:
        lines.append(f"FAILED CHECK: {problem}")
    if result["nonfinite_z_cells"]:
        lines.append(f"note: {result['nonfinite_z_cells']} cells report a non-finite z "
                     "(zero standard error); sparse cells are checked by Poisson tail instead")
    samples = result["samples"]
    for name, value in result["end_to_end"].items():
        raw = samples[name]
        spread = ""
        if len(raw) >= 2:
            q1, _, q3 = statistics.quantiles(raw, n=4)
            spread = f", quartiles {q1:.4g}..{q3:.4g}"
        lines.append(f"  {name:<12} {value:12.6g} {e2e_units[name]:<6} "
                     f"(median of {len(raw)}{spread})")
    lines.append(f"  {'error_rate':<12} {failed / invs if invs else 1.0:12.6g} {'share':<6} "
                 f"({failed} failed of {invs})")
    if result["trace"]:
        lines.append(f"  traced wall_s {_median(samples['traced_wall_s']):.6g} s against "
                     f"{result['end_to_end']['wall_s']:.6g} s untraced")
        for name, value in result["per_layer"].items():
            lines.append(f"  {name:<48} {value:14.6g} {layer_units[name]:<6} "
                         f"-> {LAYER_TARGETS[name]}")
    chosen = result["per_layer"] if result["trace"] else result["end_to_end"]
    units = layer_units if result["trace"] else e2e_units
    final = {
        "correct": failed == 0 and invs > 0,
        "attempted": invs,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }
    return "\n".join(lines) + "\n" + json.dumps(final)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "screamingtoes" / "cli.py").is_file():
        print(f"perfbench: no screamingtoes source under {SRC}", file=sys.stderr)
        return 2
    _become_subreaper()
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-{'trace' if args.trace else 'e2e'}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
