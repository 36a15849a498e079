"""Orchestration of one benchmark run: set-up, cycles, traced run, report.

``run.py`` is the entry point; this module is imported once the package
source is on the path.  See ``run.py`` for the command line and
``metrics.json`` for what every metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import stages
import tracing
from repro.models.predictor import ReliabilityPredictor, TrainingSettings
from repro.testbed import Scenario, run_many, shutdown_pool

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENTRY = os.path.join(HERE, "run.py")
WORKLOADS = tuple(stages.SIZES)
DEFAULT_SEED = 1
OUT_DIR = ".perfbench-out"
SETUP_SAMPLES = 5
MIN_CYCLES = 2


def _workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _committed_digest(workload: str) -> str:
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle)["seed_%d" % DEFAULT_SEED].get(workload, "missing")


# ------------------------------------------------------------------ setup


class Inputs:
    """Generates each cycle's inputs from the seed; cycle 0 is built in set-up."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        sizes = stages.SIZES[workload]
        self.stages = sizes["stages"]
        self.primary = self.stages[0]
        self.intervals = sizes["intervals"]
        self.sweep_points = sizes["sweep_points"]
        self.first = self.cycle(0)

    def cycle(self, index: int) -> dict:
        """The inputs of every stage of cycle ``index``."""
        def rng(stage: str):
            return stages.rng_for(self.seed, self.workload, stage, index)

        out = {}
        if "experiments" in self.stages:
            if self.workload == "faulty_large":
                out["experiments"] = stages.faulty_scenarios(rng("experiments"))
            else:
                out["experiments"] = stages.clean_scenarios(rng("experiments"))
        out["control"] = stages.control_inputs(rng("control"), self.intervals)
        out["sweep"] = stages.sweep_scenarios(rng("sweep"), self.sweep_points)
        return out


def setup(workload: str, seed: int) -> tuple:
    """Imports, inputs, BLAS and pool warm-up; returns (inputs, pool_start_s)."""
    inputs = Inputs(workload, seed)
    # The first fit in a process pays BLAS start-up; pay it here.
    ReliabilityPredictor().fit(
        inputs.first["control"].rows, TrainingSettings(epochs=1, patience=None, seed=0)
    )
    warm = [Scenario(message_count=50, seed=index + 1) for index in range(4)]
    start = time.perf_counter()
    run_many(warm, workers=_workers(), chunksize=1)
    pool_start_s = time.perf_counter() - start
    return inputs, pool_start_s


def setup_sample(workload: str, seed: int) -> float:
    """Setup time of a fresh interpreter, measured by the child itself."""
    completed = subprocess.run(
        [sys.executable, ENTRY, "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=os.getcwd(),
    )
    if completed.returncode != 0:
        raise RuntimeError(f"setup child failed: {completed.stderr.strip()[-400:]}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


# -------------------------------------------------------------- processes


def become_subreaper() -> None:
    """Adopt orphaned descendants, so ``stop_processes`` can reap them.

    A spawn pool starts a resource tracker besides its workers, and a
    set-up child starts its own; when their parent ends first they would
    outlive the run.  Linux only; elsewhere a no-op.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> list:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_processes(grace_s: float = 5.0) -> None:
    """Stop every process this run started, directly or not, and reap each."""
    shutdown_pool()
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # closes its pipe, then waits
    except (ImportError, AttributeError, OSError):
        pass
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, running or ended
        if pid:
            continue
        # The resource tracker ignores SIGTERM; past the grace it is killed.
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for child in _child_pids():
            try:
                os.kill(child, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


# ------------------------------------------------------------------ stages


def run_cycle(tally, inputs: Inputs, cycle: dict, sweep_workers: int, digest: bool) -> None:
    """One pass over the workload's stages, interleaved, primary stage first."""
    primary = inputs.primary
    before = (tally.msgs[primary], tally.wall[primary], tally.sweep_points, tally.wall["sweep"])
    steppers = []
    for stage in inputs.stages:
        if stage == "experiments":
            steppers.append(stages.experiment_steps(tally, cycle["experiments"], digest))
        elif stage == "control":
            steppers.append(stages.control_steps(tally, cycle["control"], inputs.intervals, digest))
        else:
            steppers.append(stages.sweep_steps(tally, cycle["sweep"], sweep_workers, digest))
    stages.interleave(steppers)
    # Rates per cycle: their median over the run resists a cycle that
    # ran in a faster or slower phase of a shared host.
    tally.msgs_rates.append((tally.msgs[primary] - before[0]) / (tally.wall[primary] - before[1]))
    tally.points_rates.append((tally.sweep_points - before[2]) / (tally.wall["sweep"] - before[3]))


# ---------------------------------------------------------------- records


def _proc_peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live pool workers."""
    total = _proc_peak_kb(os.getpid())
    for child in multiprocessing.active_children():
        total += _proc_peak_kb(child.pid)
    return total / 1024.0


def _blas_threads() -> object:
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line and "/" in line}
        for path in sorted(paths):
            library = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                function = getattr(library, symbol, None)
                if function is not None:
                    function.restype = ctypes.c_int
                    return int(function())
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _quantile(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


# ---------------------------------------------------------------- metrics


def end_to_end(tally, setup_samples: list) -> dict:
    return {
        "msgs_per_s": statistics.median(tally.msgs_rates),
        "experiment_ms_p50": _quantile(tally.experiment_ms, 50),
        "experiment_ms_p95": _quantile(tally.experiment_ms, 95),
        "replan_ms_p50": _quantile(tally.replan_ms, 50),
        "replan_ms_p95": _quantile(tally.replan_ms, 95),
        "train_epoch_ms": statistics.median(tally.epoch_ms),
        "points_per_s": statistics.median(tally.points_rates),
        "campaign_s": statistics.median(tally.campaign_s),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracing_state, untraced, pooled, wall_untraced: float,
              wall_traced: float, calibration: dict, pool_start_s: float) -> tuple:
    recorder, counters = tracing_state.recorder, tracing_state.counters
    times = tracing.span_times(recorder, calibration)
    groups = tracing.group_self_ns(recorder, times)
    calibrated_ns = wall_traced * 1e9 - len(recorder) * calibration["total_ns"]
    # Self times of all groups plus the benchmark's own time between
    # spans add up to the calibrated traced wall by construction; the
    # calibration error compares that wall with the untraced one.
    groups["bench"] = calibrated_ns - sum(v for k, v in groups.items() if k != "bench")
    share = {group: value / calibrated_ns for group, value in groups.items()}
    msgs, events = counters.msgs, counters.events

    def mean_ms(name: str) -> float:
        values = tracing.inclusive_by_name(recorder, times, name)
        return float(np.mean(values)) / 1e6 if len(values) else 0.0

    predict_ns = float(np.sum(tracing.inclusive_by_name(
        recorder, times, "models.predict_vectors", "models.predict_with_fallback_batch")))
    verify_ms = tracing.inclusive_by_name(
        recorder, times, "observability.verify_trace", "observability.verify_manifest")
    info = pooled.sweep_info[0] if pooled.sweep_info else {}
    if info.get("mode") == "pool":
        efficiency = untraced.wall["sweep"] / (info["workers"] * pooled.wall["sweep"])
    else:
        efficiency = 0.0  # never report a pool figure for a serial sweep
    hits, misses = counters.memo()
    replans = max(counters.replans, 1)
    metrics = {
        "simulation.events_per_msg": events / msgs,
        "simulation.cancels_per_msg": counters.cancels / msgs,
        "simulation.self_us_per_event": groups["simulation"] / 1e3 / events,
        "simulation.self_share": share["simulation"],
        "network.link.packets_per_msg": counters.link_offered / msgs,
        "network.link.drop_ratio": counters.link_dropped / counters.link_offered,
        "network.transport.segments_per_msg": counters.segments / msgs,
        "network.transport.useful_segment_ratio":
            (counters.segments - counters.retransmissions) / counters.segments,
        "network.transport.failed_ratio": counters.transport_failed / counters.transport_messages,
        "network.self_us_per_msg": groups["network"] / 1e3 / msgs,
        "network.self_share": share["network"],
        "kafka.requests_per_msg": counters.requests / msgs,
        "kafka.request_retries_per_msg": counters.request_retries / msgs,
        "kafka.ack_ratio": counters.acknowledged / max(counters.requests, 1),
        "kafka.self_us_per_msg": groups["kafka"] / 1e3 / msgs,
        "kafka.self_share": share["kafka"],
        "kafka.reconcile_ms": mean_ms("kafka.reconcile"),
        "workloads.offers_per_msg": counters.offers / msgs,
        "workloads.self_share": share["workloads"],
        "testbed.setup_ms_per_experiment": mean_ms("testbed.experiment.init"),
        "testbed.tracker.self_share": share["testbed.tracker"],
        "testbed.runner.parallel_efficiency": efficiency,
        "testbed.runner.pool_start_s": pool_start_s,
        "models.rows_predicted": float(counters.rows_predicted),
        "models.predict_us_per_row": predict_ns / 1e3 / max(counters.rows_predicted, 1),
        "models.memo_hit_ratio": hits / max(hits + misses, 1),
        "models.fallback_tier_share": counters.rows_fallback / max(counters.rows_predicted, 1),
        "ann.fit_self_share": share["ann"],
        "kpi.configs_evaluated_per_replan": counters.configs_evaluated / replans,
        "kpi.self_share": share["kpi"],
        "performance.predict_calls_per_replan": counters.performance_predicts / replans,
        "performance.self_share": share["performance"],
        "observability.trace_records": float(counters.trace_records),
        "observability.self_share": share["observability"],
        "observability.invariant_check_ms": float(np.mean(verify_ms)) / 1e6 if len(verify_ms) else 0.0,
        "trace.overhead": wall_traced / wall_untraced,
        "trace.calibration_error": abs(calibrated_ns / 1e9 / wall_untraced - 1.0),
    }
    return metrics, share, times


# ------------------------------------------------------------------- main


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:42s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def measure(args, inputs: Inputs, setup_s: float) -> tuple:
    """The end-to-end run: cycles until ``--seconds`` are spent."""
    samples = [setup_s] + [
        setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    tally = stages.Tally()
    began = time.perf_counter()
    # Cycle 0 is the fixed, digested part.  Further cycles repeat every
    # stage with fresh inputs, so each metric spans the whole run; a cycle
    # starts only if it is expected to end within the measuring time.
    run_cycle(tally, inputs, inputs.first, _workers(), digest=True)
    digest = tally.digest()
    cycles = 1
    while True:
        elapsed = time.perf_counter() - began
        if cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > args.seconds:
            break
        run_cycle(tally, inputs, inputs.cycle(cycles), _workers(), digest=False)
        cycles += 1
    print("cycles", cycles, "measured_s", round(time.perf_counter() - began, 3),
          "setup_samples_s", json.dumps(samples))
    print("samples", json.dumps({
        "experiment_ms": len(tally.experiment_ms),
        "replan_ms": len(tally.replan_ms),
        "train_fits": len(tally.epoch_ms),
        "sweep_points": tally.sweep_points,
    }))
    print("execution_info", json.dumps(tally.sweep_info, sort_keys=True))
    return [tally], digest, end_to_end(tally, samples), []


def measure_traced(args, inputs: Inputs, pool_start_s: float, machine: dict) -> tuple:
    """The fixed part untraced, then traced; per-layer metrics and span export.

    Spans cannot cross into pool workers, so both passes run the sweep
    serially in this process; the same grid then runs once more on the
    pool for the runner's parallel efficiency.
    """
    untraced = stages.Tally()
    began = time.perf_counter()
    run_cycle(untraced, inputs, inputs.first, 1, digest=True)
    wall_untraced = time.perf_counter() - began
    digest = untraced.digest()
    pooled = stages.Tally()
    stages.run_sweep(pooled, inputs.first["sweep"], _workers(), digest=True)
    calibration = tracing.calibrate()
    state = tracing.Tracing()
    traced = stages.Tally()
    state.install()
    try:
        began = time.perf_counter()
        run_cycle(traced, inputs, inputs.first, 1, digest=True)
        wall_traced = time.perf_counter() - began
    finally:
        state.uninstall()
    problems = []
    if traced.digest() != digest:
        problems.append(f"traced digest {traced.digest()} != untraced {digest}")
    if not set(pooled.digest_lines) <= set(untraced.digest_lines):
        problems.append("pooled sweep results differ from the serial ones")
    metrics, shares, times = per_layer(
        state, untraced, pooled, wall_untraced, wall_traced, calibration, pool_start_s
    )
    meta = json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": machine,
        "execution_info": pooled.sweep_info, "calibration": calibration,
        "shares": shares, "wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
        "digest": digest,
    }, sort_keys=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
    tracing.write_spans(path, state.recorder, times, meta)
    print("shares", json.dumps({k: round(v, 4) for k, v in shares.items()}))
    print("spans", len(state.recorder), "written to", path)
    print("calibration_ns", json.dumps(calibration))
    print(f"wall untraced {wall_untraced:.3f} s traced {wall_traced:.3f} s")
    print("execution_info", json.dumps(pooled.sweep_info, sort_keys=True))
    return [untraced, pooled, traced], digest, metrics, problems


def main(started: float, argv=None) -> int:
    """Run one workload; ``started`` is the interpreter's start on the perf clock."""
    parser = argparse.ArgumentParser(description="Benchmark of the Kafka reliability reproduction")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    units = _declared_metrics()["per_layer" if args.trace else "end_to_end"]
    inputs, pool_start_s = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        shutdown_pool()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    machine = machine_record()
    print("machine", json.dumps(machine, sort_keys=True))
    try:
        if args.trace:
            tallies, digest, metrics, problems = measure_traced(args, inputs, pool_start_s, machine)
        else:
            tallies, digest, metrics, problems = measure(args, inputs, setup_s)
    finally:
        shutdown_pool()

    print("digest", digest)
    if args.seed == DEFAULT_SEED and digest != _committed_digest(args.workload):
        problems.append(f"digest {digest} != committed {_committed_digest(args.workload)}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for tally in tallies:
        problems.extend(tally.errors)
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    correct = not problems and failed == 0
    _emit(correct, attempted, failed, {name: metrics[name] for name in units}, units)
    return 0 if correct else 1
