"""Run the screamingtoes CLI in this process for the benchmark.

    python3 perfbench/launch.py CLI-ARGUMENTS...

The benchmark starts this file instead of the console script so that it can
see when ``cli.main`` is entered: the ``time.monotonic()`` reading at that
moment (a clock shared by all processes of the machine) is written to the
file named by ``PERFBENCH_ENTRY``.  ``PERFBENCH_SETUP_ONLY=1`` stops there,
which times interpreter start and imports alone.  ``PERFBENCH_TRACE_DIR``
installs the layer spans of ``spans.py`` before ``cli.main`` runs, with peak
memory when ``PERFBENCH_TRACE_MEMORY=1``.
"""

import os
import sys
import time


def main() -> int:
    from screamingtoes import cli

    tracer = None
    if os.environ.get("PERFBENCH_TRACE_DIR"):
        import spans

        tracer = spans.install(os.environ["PERFBENCH_TRACE_DIR"],
                               memory=bool(os.environ.get("PERFBENCH_TRACE_MEMORY")))
    entered = time.monotonic()
    with open(os.environ["PERFBENCH_ENTRY"], "w") as fh:
        fh.write(repr(entered))
    if os.environ.get("PERFBENCH_SETUP_ONLY"):
        return 0
    try:
        return cli.main(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
