"""Benchmark of the Kafka reliability reproduction: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload clean_small --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with the package untouched;
``--trace 1`` runs the workload's fixed part once untraced and once with
spans at every layer boundary, and reports the per-layer metrics.  Every
input is generated from ``--seed``; every output is checked.  Human-
readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every check passed.  ``BENCHMARK.json`` at the root lists
the metrics; ``perfbench/metrics.json`` defines them and says which
end-to-end metric each layer metric should move.

This file stays import-light: pool workers re-import it at spawn.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the closed loop is single-threaded, and idle OpenBLAS
# threads spinning after a fit would steal the second core from the
# simulation or from a pool worker.  An explicit setting wins.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.exit(f"perfbench: package source not found under {SOURCE}")
    sys.path.insert(0, SOURCE)
    import signal

    import bench

    # A SIGTERM unwinds like an exception, so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench.become_subreaper()
    try:
        code = bench.main(STARTED)
    finally:
        bench.stop_processes()
    sys.exit(code)
