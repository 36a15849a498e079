"""Batched prediction path: search-round latency, scalar vs batched.

Measures what the batched, memoised prediction path buys and records it
in ``benchmarks/out/predict_batch.json``; a strict run (below) records it
in the committed ``BENCH_predict.json`` instead.  The scalar baseline
is the test oracle (``tests/oracle.py``): one candidate at a time, one
plain single-row forward pass each, no memo — what the predictor did
before prediction was batched.

1. **Cold search round** — the full 350-configuration candidate grid
   (:class:`ParameterSteps` product) scored for one fresh environment,
   per-candidate ``oracle.evaluate_config`` loop vs one batched
   ``evaluate_configs`` call.  The gate everywhere: batched must never
   exceed the scalar path.  (The cold ratio is bounded by the bitwise
   floor — a stacked per-row GEMV forward pass is what keeps batched
   estimates bit-identical to the scalar MLP, so cold gains come from
   grouping, encoding and dispatch, not from a faster GEMM.)
2. **Steady-state search round** — the controller's operating regime:
   re-planning every interval while conditions hold.  The per-candidate
   path repeats the full forward pass for all 350 candidates every
   round; the batched path serves the round from the quantised-feature
   memo.  This full-round comparison is the headline ≥ 5× claim
   (asserted under ``BENCH_PREDICT_STRICT=1``, recorded always).
3. **Re-planning loop mix** — 18 intervals with a condition shift every
   6, so the loop pays the cold batched round on every shift and the
   memo-warm round in between; grid γ values and the selected
   configuration are checked bit-identical on every interval.
4. **Nearest-neighbour fallback** — the vectorised scan over remembered
   rows vs a faithful Python replica of the per-row loop.

Every timed comparison also verifies bitwise identity: each batched γ
equals its scalar counterpart, and the stepwise search selects the
bit-identical configuration (same γ, steps and trace) as the oracle's
one-probe-at-a-time walk on every interval.

Run from the repository root (so ``tests`` is importable) with the strict
gate to (re)generate the committed artifact::

    BENCH_PREDICT_STRICT=1 PYTHONPATH=src python -m pytest -q -s \
        benchmarks/bench_predict.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kpi.selection import (
    ParameterSteps,
    SelectionContext,
    evaluate_configs,
    select_configuration,
)
from repro.models import (
    FeatureVector,
    ReliabilityPredictor,
    TrainingSettings,
)
from repro.performance import ProducerPerformanceModel
from repro.testbed import ExperimentResult

from conftest import OUTPUT_DIR, write_report
from tests import oracle

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_predict.json"
#: Where non-strict runs record: a noisy host's numbers must not rewrite
#: the committed artifact.
LOCAL_JSON = OUTPUT_DIR / "predict_batch.json"

#: Re-planning shape: the controller re-plans every interval; network
#: conditions shift only every CHANGE_EVERY intervals, so most rounds
#: re-score a grid the memo has already seen.
INTERVALS = 18
CHANGE_EVERY = 6

#: Paper-topology hidden layers — inference cost must be realistic even
#: though the bench model only trains for a couple of epochs (accuracy is
#: irrelevant here; the MAE bench owns that claim).
PAPER_SETTINGS = TrainingSettings(
    hidden=(200, 200, 200, 64), epochs=2, patience=None
)

NEIGHBOUR_ROWS = 400
NEIGHBOUR_QUERIES = 200


def _make_result(**overrides):
    defaults = dict(
        message_bytes=200,
        timeliness_s=None,
        network_delay_s=0.0,
        loss_rate=0.0,
        semantics="at_least_once",
        batch_size=1,
        polling_interval_s=0.0,
        message_timeout_s=1.5,
        produced=1000,
        p_loss=0.1,
        p_duplicate=0.01,
    )
    defaults.update(overrides)
    return ExperimentResult(**defaults)


def _training_rows(semantics: DeliverySemantics, region: str, seed: int):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(24):
        if region == "normal":
            delay, loss = 0.0, 0.0
        else:
            delay = float(rng.choice([0.25, 0.3, 0.4]))
            loss = float(rng.choice([0.05, 0.1, 0.2]))
        batch = int(rng.choice([1, 2, 4, 8]))
        rows.append(
            _make_result(
                semantics=semantics.value,
                network_delay_s=delay,
                loss_rate=loss,
                batch_size=batch,
                message_bytes=int(rng.choice([100, 200, 500])),
                p_loss=min(1.0, max(0.0, loss * 2.0 / batch)),
                p_duplicate=0.02 / batch,
            )
        )
    return rows


def _bench_predictor() -> ReliabilityPredictor:
    rows = []
    for offset, semantics in enumerate(ParameterSteps().semantics):
        rows.extend(_training_rows(semantics, "normal", seed=offset))
        rows.extend(_training_rows(semantics, "abnormal", seed=10 + offset))
    predictor = ReliabilityPredictor()
    predictor.fit(rows, PAPER_SETTINGS)
    return predictor


def _full_grid(steps: ParameterSteps):
    return [
        ProducerConfig(
            semantics=semantics,
            batch_size=batch,
            polling_interval_s=polling,
            message_timeout_s=timeout,
        )
        for semantics in steps.semantics
        for batch in steps.batch_size
        for polling in steps.polling_interval_s
        for timeout in steps.message_timeout_s
    ]


def _interval_contexts():
    """Piecewise-constant conditions: one shift every CHANGE_EVERY."""
    distinct = [
        SelectionContext(
            message_bytes=200, timeliness_s=10.0,
            network_delay_s=0.05, loss_rate=0.0,
        ),
        SelectionContext(
            message_bytes=200, timeliness_s=10.0,
            network_delay_s=0.25, loss_rate=0.05,
        ),
        SelectionContext(
            message_bytes=500, timeliness_s=5.0,
            network_delay_s=0.35, loss_rate=0.15,
        ),
    ]
    return [
        distinct[(interval // CHANGE_EVERY) % len(distinct)]
        for interval in range(INTERVALS)
    ]


def _python_nearest_neighbour(predictor, vector):
    """Faithful replica of the pre-vectorisation per-row scan."""
    scales = ReliabilityPredictor._NEIGHBOUR_SCALES
    best_row, best_distance = None, float("inf")
    for row in predictor._memory:
        candidate = FeatureVector.from_result(row)
        if candidate.semantics is not vector.semantics:
            continue
        distance = 0.0
        for name, scale in scales.items():
            delta = (getattr(vector, name) - getattr(candidate, name)) / scale
            distance += delta * delta
        if distance < best_distance:
            best_row, best_distance = row, distance
    if best_row is None:
        return None
    return (
        min(1.0, max(0.0, float(best_row.p_loss))),
        min(1.0, max(0.0, float(best_row.p_duplicate))),
    )


def test_batched_search_speedup_and_identity():
    strict = os.environ.get("BENCH_PREDICT_STRICT", "") == "1"
    predictor = _bench_predictor()
    steps = ParameterSteps()
    grid = _full_grid(steps)
    assert len(grid) == 350
    contexts = _interval_contexts()

    # ---------------------------------------------------------- cold round
    # Batched first: the scalar oracle run afterwards inherits any shared
    # warm state (load-ratio and performance-model memos), which can only make
    # the baseline faster — the reported ratios are conservative.
    cold_context = contexts[0]
    predictor.invalidate_caches()
    model_batched = ProducerPerformanceModel()
    start = time.perf_counter()
    batched_cold = evaluate_configs(grid, cold_context, predictor, model_batched)
    batched_cold_s = time.perf_counter() - start

    model_scalar = ProducerPerformanceModel()
    start = time.perf_counter()
    scalar_cold = [
        oracle.evaluate_config(config, cold_context, predictor, model_scalar)
        for config in grid
    ]
    scalar_cold_s = time.perf_counter() - start

    assert batched_cold == scalar_cold, "cold grid γ values diverged"
    cold_speedup = scalar_cold_s / batched_cold_s

    # ---------------------------------------------------- steady-state round
    # Repeated rounds under unchanged conditions, best-of-N on both
    # sides.  The scalar path re-runs every forward pass each round (its
    # repeats only reuse the memoised performance model, which favours
    # the baseline); the batched path serves the round from the memo.
    round_repeats = 5
    scalar_round_s = float("inf")
    for _ in range(round_repeats):
        start = time.perf_counter()
        repeat = [
            oracle.evaluate_config(config, cold_context, predictor, model_scalar)
            for config in grid
        ]
        scalar_round_s = min(scalar_round_s, time.perf_counter() - start)
        assert repeat == scalar_cold
    batched_round_s = float("inf")
    for _ in range(round_repeats):
        start = time.perf_counter()
        repeat = evaluate_configs(grid, cold_context, predictor, model_batched)
        batched_round_s = min(batched_round_s, time.perf_counter() - start)
        assert repeat == scalar_cold
    round_speedup = scalar_round_s / batched_round_s

    # --------------------------------------------- steady-state re-planning
    # Batched pass first (same conservativeness argument as above).
    predictor.invalidate_caches()
    model = ProducerPerformanceModel()
    batched_gammas, batched_selections = [], []
    start = time.perf_counter()
    for context in contexts:
        batched_gammas.append(
            evaluate_configs(grid, context, predictor, model)
        )
        batched_selections.append(
            select_configuration(
                context, predictor, model, gamma_requirement=0.95,
            )
        )
    replan_batched_s = time.perf_counter() - start

    model = ProducerPerformanceModel()
    scalar_gammas, scalar_selections = [], []
    start = time.perf_counter()
    for context in contexts:
        scalar_gammas.append([
            oracle.evaluate_config(config, context, predictor, model)
            for config in grid
        ])
        scalar_selections.append(
            oracle.select_configuration(
                oracle.gamma_of(context, predictor, model), gamma_requirement=0.95,
            )
        )
    replan_scalar_s = time.perf_counter() - start
    replan_speedup = replan_scalar_s / replan_batched_s

    # Bitwise identity on every grid point of every interval, and the
    # stepwise search must pick the bit-identical configuration.
    grid_identical = batched_gammas == scalar_gammas
    assert grid_identical, "re-planning grid γ values diverged"
    selection_identical = all(
        b.config == s.config
        and b.gamma == s.gamma
        and b.steps_taken == s.steps_taken
        and b.trace == s.trace
        for b, s in zip(batched_selections, scalar_selections)
    )
    assert selection_identical, "batched search selected a different config"

    # ------------------------------------------------ neighbour fallback
    fallback = ReliabilityPredictor()
    rng = np.random.default_rng(99)
    remembered = []
    for _ in range(NEIGHBOUR_ROWS):
        remembered.append(
            _make_result(
                semantics="at_most_once",
                network_delay_s=float(rng.uniform(0.2, 0.5)),
                loss_rate=float(rng.uniform(0.01, 0.3)),
                batch_size=int(rng.choice([1, 2, 4, 8])),
                message_bytes=int(rng.choice([100, 200, 500, 900])),
                p_loss=float(rng.uniform(0.0, 0.6)),
                p_duplicate=0.0,
            )
        )
    fallback.remember(remembered)
    queries = [
        FeatureVector(
            message_bytes=float(rng.choice([150, 300, 700])),
            timeliness_s=10.0,
            network_delay_s=float(rng.uniform(0.2, 0.5)),
            loss_rate=float(rng.uniform(0.01, 0.3)),
            semantics=DeliverySemantics.AT_MOST_ONCE,
            batch_size=float(rng.choice([1, 2, 4, 8])),
            polling_interval_s=0.0,
            message_timeout_s=1.5,
        )
        for _ in range(NEIGHBOUR_QUERIES)
    ]
    start = time.perf_counter()
    scan_estimates = [_python_nearest_neighbour(fallback, q) for q in queries]
    nn_scan_s = time.perf_counter() - start

    fallback._nearest_neighbour(queries[0])  # build the index off the clock
    start = time.perf_counter()
    vec_estimates = [fallback._nearest_neighbour(q) for q in queries]
    nn_vector_s = time.perf_counter() - start
    nn_speedup = nn_scan_s / nn_vector_s
    for scan, vectorised in zip(scan_estimates, vec_estimates):
        assert vectorised is not None and scan is not None
        assert (vectorised.p_loss, vectorised.p_duplicate) == scan

    # ------------------------------------------------------------- report
    payload = {
        "grid_configs": len(grid),
        "intervals": INTERVALS,
        "conditions_change_every": CHANGE_EVERY,
        "scalar_cold_round_s": round(scalar_cold_s, 4),
        "batched_cold_round_s": round(batched_cold_s, 4),
        "cold_round_speedup": round(cold_speedup, 3),
        "scalar_steady_round_s": round(scalar_round_s, 4),
        "batched_steady_round_s": round(batched_round_s, 4),
        "steady_round_speedup": round(round_speedup, 3),
        "replan_scalar_s": round(replan_scalar_s, 4),
        "replan_batched_s": round(replan_batched_s, 4),
        "replan_speedup": round(replan_speedup, 3),
        "nn_scan_s": round(nn_scan_s, 4),
        "nn_vectorised_s": round(nn_vector_s, 4),
        "nn_speedup": round(nn_speedup, 3),
        "grid_bit_identical": grid_identical,
        "selection_bit_identical": selection_identical,
        "strict_gate": strict,
    }
    record = BENCH_JSON if strict else LOCAL_JSON
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [
        "Batched prediction path (scalar = test oracle)",
        f"  grid: {len(grid)} configs; re-plan {INTERVALS} intervals, "
        f"conditions change every {CHANGE_EVERY}",
        f"  cold round   scalar {scalar_cold_s * 1e3:7.1f} ms -> batched "
        f"{batched_cold_s * 1e3:7.1f} ms  ({cold_speedup:.2f}x)",
        f"  steady round scalar {scalar_round_s * 1e3:7.1f} ms -> batched "
        f"{batched_round_s * 1e3:7.1f} ms  ({round_speedup:.2f}x)",
        f"  re-planning  scalar {replan_scalar_s * 1e3:7.1f} ms -> batched "
        f"{replan_batched_s * 1e3:7.1f} ms  ({replan_speedup:.2f}x)",
        f"  NN fallback  scan {nn_scan_s * 1e3:7.1f} ms -> vectorised "
        f"{nn_vector_s * 1e3:7.1f} ms  ({nn_speedup:.2f}x)",
        f"  bit-identical: grid={grid_identical} "
        f"selection={selection_identical}",
        f"[recorded to {record.relative_to(REPO_ROOT)}]",
    ]
    write_report("predict_batch", "\n".join(lines))

    # Universal gate: batching must never lose to the per-candidate path
    # (5% timing-noise allowance — the values themselves are identical).
    assert batched_cold_s <= scalar_cold_s * 1.05, (
        f"batched cold round slower than scalar: "
        f"{batched_cold_s:.4f}s vs {scalar_cold_s:.4f}s"
    )
    assert replan_batched_s <= replan_scalar_s, (
        "batched re-planning loop slower than scalar"
    )
    if strict:
        # The committed-artifact gates (>= 5x on the steady-state search
        # round, bit-identical selection); opt-in because CI runners have
        # noisy clocks.
        assert round_speedup >= 5.0, (
            f"steady-state round speedup {round_speedup:.2f}x < 5x"
        )
        assert replan_speedup >= 3.0, (
            f"re-planning loop speedup {replan_speedup:.2f}x < 3x"
        )
        assert nn_speedup >= 2.0, f"NN speedup {nn_speedup:.2f}x < 2x"
