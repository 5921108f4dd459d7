"""Layer spans for a traced benchmark run, recorded from outside the program.

:func:`install` replaces every public function of ``screamingtoes.exact``,
``laws``, ``samplers`` and ``harness`` with a timing wrapper, in the process
that runs the CLI and before any pool worker forks.  Each process keeps
per-function aggregates in memory (calls, total time, self time, first-call
time, counters) and writes them to
``<out_dir>/spans-<pid>.json`` when it ends: the CLI process from the
launcher, pool workers from a multiprocessing exit finaliser.

Self time is a span's duration minus the time covered by the wrapped calls
it made.  Functions of ``exact`` are also rebound where ``harness`` imported
them, so ``exact.*`` spans count the calls made from ``harness`` (and from
inside ``exact``); ``laws`` and ``samplers`` keep their own, untraced
references.  Generator functions are left alone, since a wrapper would time
only the creation of the generator.

With ``memory=True`` the spans of ``MEMORY_SPANS`` also record their peak
``tracemalloc`` memory, tracing from entry to exit of each call.  That slows
the derangement kernel by about a quarter, so the benchmark takes peaks in a
pass of their own and times layers in a pass without ``tracemalloc``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import tracemalloc
from multiprocessing import util as mp_util

#: Spans whose peak traced memory is recorded in a memory pass.
MEMORY_SPANS = frozenset({
    "samplers.decompose_batch",
    "samplers.toes_component_counts_batch",
    "samplers.derangement_cycle_counts_batch",
})


def _arg(name: str):
    """Counter that reads one argument of the call."""
    def count(bound, result):
        value = bound.arguments[name]
        return len(value) if hasattr(value, "__len__") else int(value)
    return count


#: Public functions left unwrapped.  ``prob_no_repeated_sizes`` calls this
#: one once per (size, core) assignment, over a million times at n = 40, so a
#: wrapper would dominate the span it sits in.
UNTRACED = frozenset({"laws.component_count_with_core"})

#: Work counters: span -> function of (bound arguments, result).
COUNTERS = {
    "harness.emit": lambda bound, result: len(result),
    "harness.brute_force_law": lambda bound, result: result.total,
    "samplers.decompose_batch": lambda bound, result: int(bound.arguments["images"].size),
    "samplers.esf_cycle_counts_batch": _arg("count"),
    "samplers.toes_component_counts_batch": _arg("count"),
    "samplers.derangement_cycle_counts_batch": _arg("sizes"),
}


class Tracer:
    """Per-process span aggregates and the stack of open spans."""

    def __init__(self, out_dir: str, memory: bool):
        self.out_dir = out_dir
        self.memory = memory
        self.main = True
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, dict] = {}
        self.stack: list[float] = []  # time covered by children, per open span
        self.top_s = 0.0  # time covered by spans with no traced caller

    def _after_fork(self) -> None:
        # a pool worker inherits the parent's open spans and totals; start clean
        self.reset()
        self.main = False
        mp_util.Finalize(None, self.dump, exitpriority=10)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracing_memory = memory and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            self.stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
                else:
                    self.top_s += elapsed
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = {
                        "calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "first_s": elapsed, "count": 0, "peak_bytes": 0,
                    }
                entry["calls"] += 1
                entry["total_s"] += elapsed
                entry["self_s"] += elapsed - children
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    entry["peak_bytes"] = max(entry["peak_bytes"], peak)
            if counter is not None:
                entry["count"] += counter(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"main": self.main, "top_s": self.top_s, "stats": self.stats}, fh)


def _traceable(module, name: str, value) -> bool:
    if name.startswith("_") or inspect.isclass(value) or not callable(value):
        return False
    if getattr(value, "__module__", None) != module.__name__:
        return False  # re-exported from another module
    return not inspect.isgeneratorfunction(inspect.unwrap(value))


def install(out_dir: str, memory: bool = False) -> Tracer:
    """Wrap the public functions of the four layers; returns the tracer,
    whose :meth:`Tracer.dump` the caller runs when the CLI returns."""
    from screamingtoes import exact, harness, laws, samplers

    tracer = Tracer(out_dir, memory)
    for module in (exact, laws, samplers, harness):
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, value in list(vars(module).items()):
            span = f"{layer}.{name}"
            if span in UNTRACED or not _traceable(module, name, value):
                continue
            wrapped = tracer.wrap(span, value)
            setattr(module, name, wrapped)
            if module is exact and getattr(harness, name, None) is value:
                setattr(harness, name, wrapped)
    mp_util.register_after_fork(tracer, Tracer._after_fork)
    return tracer
