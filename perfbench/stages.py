"""Workload inputs, the benchmark's three stages and their output checks.

Every workload passes in cycles over the same stages — closed-loop
experiments, the control pipeline (fit, replan, interval experiments,
chaos campaigns) and a Fig. 3 collection sweep through ``run_many`` — at
workload-specific sizes (``SIZES``); the first stage listed is the
workload's primary stage, whose messages give ``msgs_per_s``.

All inputs are generated from ``(seed, workload, stage, cycle)`` through
numpy's ``SeedSequence``; the program under test only ever sees the
generated scenarios, rows and traces.  Only the package's public API is
called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, Iterator, List

import numpy as np

from repro.chaos import run_campaign
from repro.chaos.schedule import flap_burst_schedule, staged_escalation_schedule
from repro.kafka import DEFAULT_PRODUCER_CONFIG
from repro.kafka.config import ProducerConfig
from repro.kafka.consumer import KafkaConsumer
from repro.kafka.semantics import DeliverySemantics
from repro.kpi import (
    DegradedModeController,
    DynamicConfigurationController,
    KpiWeights,
    aggregate_rates,
    run_traced_experiment,
)
from repro.kpi.dynamic import ConfigurationPlan
from repro.models.features import FeatureVector
from repro.models.predictor import ReliabilityPredictor, TrainingSettings
from repro.network.trace import NetworkTrace, TracePoint
from repro.performance import ProducerPerformanceModel
from repro.testbed import (
    Experiment,
    ExperimentResult,
    RunFailure,
    Scenario,
    abnormal_case_plan,
    normal_case_plan,
    run_many,
)
from repro.workloads import PAPER_STREAMS, WEB_ACCESS_LOGS

ALO = DeliverySemantics.AT_LEAST_ONCE
AMO = DeliverySemantics.AT_MOST_ONCE
EOS = DeliverySemantics.EXACTLY_ONCE

WORKLOAD_IDS = {"clean_small": 1, "faulty_large": 2}
STAGE_IDS = {"experiments": 1, "control": 2, "sweep": 3}

#: Per-workload stages, primary first, and stage sizes.  Every cycle of a
#: run passes once over the stages.
SIZES = {
    "clean_small": {"stages": ["experiments", "control", "sweep"], "intervals": 17, "sweep_points": 8},
    "faulty_large": {"stages": ["experiments", "control", "sweep"], "intervals": 17, "sweep_points": 8},
}

CLEAN_MESSAGES = 10_000
FAULTY_MESSAGES = 1_000
SWEEP_MESSAGES = 1_000
TRAIN_EPOCHS = 12
TRAIN_ROWS = {"normal": 80, "abnormal": 120}  # per semantics
INTERVAL_S = 10.0
INTERVAL_CAP = 400
PLAN_FACTOR = 8  # the plan covers eight times the intervals that are replayed
GAMMA_REQUIREMENT = 1.0


def rng_for(seed: int, workload: str, stage: str, cycle: int) -> np.random.Generator:
    """The random stream of one stage in one cycle, a pure function of its labels."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, WORKLOAD_IDS[workload], STAGE_IDS[stage], cycle])
    )


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


class CheckFailed(AssertionError):
    """An output check failed: the program produced a wrong result."""


class Tally:
    """What one run measured: timings, counts, failures and digest lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest_lines: List[str] = []
        # Source messages simulated and wall seconds, per stage.
        self.msgs = {stage: 0 for stage in ("experiments", "control", "sweep")}
        self.wall = {stage: 0.0 for stage in ("experiments", "control", "sweep")}
        self.experiment_ms: List[float] = []
        self.replan_ms: List[float] = []
        self.epoch_ms: List[float] = []
        self.campaign_s: List[float] = []
        self.sweep_points = 0
        self.sweep_info: List[Dict] = []
        # Per-cycle primary-stage message rate and sweep point rate.
        self.msgs_rates: List[float] = []
        self.points_rates: List[float] = []

    def fail(self, what: str, error: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(error).__name__}: {error}")

    def add(self, kind: str, payload: object) -> None:
        self.digest_lines.append(
            kind + " " + json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
        )

    def digest(self) -> str:
        hasher = hashlib.blake2b(digest_size=16)
        for line in sorted(self.digest_lines):
            hasher.update(line.encode())
            hasher.update(b"\n")
        return hasher.hexdigest()


# ------------------------------------------------------------------ checks


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _near_int(value: float) -> int:
    nearest = round(value)
    _require(abs(value - nearest) < 1e-6, f"{value!r} is not a whole count")
    return int(nearest)


def check_result(result: ExperimentResult, message_count: int) -> None:
    """Checks that hold for any measured result, from its fields alone."""
    _require(result.produced == message_count, f"produced {result.produced} != {message_count}")
    _require(0.0 <= result.p_loss <= 1.0, f"P_l {result.p_loss} outside [0, 1]")
    _require(0.0 <= result.p_duplicate <= 1.0, f"P_d {result.p_duplicate} outside [0, 1]")
    _near_int(result.p_loss * result.produced)
    _near_int(result.p_duplicate * result.produced)
    fractions = result.case_fractions.values()
    _require(all(0.0 <= f <= 1.0 for f in fractions), "case fraction outside [0, 1]")
    _require(abs(sum(fractions) - 1.0) < 1e-9, "case fractions do not add up to 1")


def check_experiment(experiment: Experiment, result: ExperimentResult) -> None:
    """Independent recount of the conservation laws on a live experiment.

    The laws are those of ``repro.observability.invariants``: the census
    (Table I cases plus never-resolved messages) covers every produced
    message, the topic recount partitions the keys into delivered and
    lost, and the census agrees with the recount on duplicates, losses
    and deliveries.
    """
    check_result(result, experiment.scenario.message_count)
    census = experiment.tracker.census()
    produced = result.produced
    _require(census.total() + census.unresolved == produced, "census not exhaustive")
    counts: Dict[int, int] = {}
    for entry in KafkaConsumer(experiment.topic).consume_all():
        counts[entry.key] = counts.get(entry.key, 0) + 1
    keys = experiment.source.keys
    delivered = len(counts)
    lost = sum(1 for key in keys if key not in counts)
    duplicated = sum(1 for count in counts.values() if count > 1)
    _require(delivered + lost == produced, "produced != delivered_unique + lost")
    _require(lost == round(result.p_loss * produced), "lost recount != P_l")
    _require(duplicated == round(result.p_duplicate * produced), "duplicate recount != P_d")
    case = census.as_flat_counts()
    unacked = experiment.tracker.persisted_but_unacked()
    _require(case["case5"] == duplicated, "case5 != duplicated keys")
    _require(
        case["case2"] + case["case3"] == lost + unacked - census.unresolved,
        "loss accounting diverged",
    )
    _require(
        case["case1"] + case["case4"] + case["case5"] + unacked == delivered,
        "delivery accounting diverged",
    )


def result_payload(result: ExperimentResult) -> Dict:
    data = result.to_dict()
    data.pop("manifest", None)
    return data


# ------------------------------------------------------- stage 1: experiments


def clean_scenarios(rng: np.random.Generator) -> List:
    """Clean network, 200-B single-segment messages, full load."""
    return [
        Scenario(
            message_bytes=200,
            message_count=CLEAN_MESSAGES,
            config=ProducerConfig(semantics=semantics, batch_size=batch),
            seed=_seed_from(rng),
        )
        for batch in (1, 8)
        for semantics in (ALO, AMO)
    ]


def faulty_scenarios(rng: np.random.Generator) -> List:
    """NetEm-style faults, 1.5-6 kB messages, 12 stratified cells.

    Delay, loss rate and message size are Latin-hypercube samples over
    their ranges, so every cycle covers each range evenly.
    """
    cells = [
        (semantics, timeout, bursty)
        for semantics in (ALO, AMO, EOS)
        for timeout in (0.5, 3.0)
        for bursty in (False, True)
    ]
    count = len(cells)

    def strata(low: float, high: float) -> np.ndarray:
        return low + (high - low) * (rng.permutation(count) + rng.random(count)) / count

    delays = strata(0.1, 0.4)
    losses = strata(0.05, 0.2)
    sizes = strata(1500.0, 6000.0)
    return [
        Scenario(
            message_bytes=int(sizes[i]),
            network_delay_s=float(delays[i]),
            loss_rate=float(losses[i]),
            jitter_s=float(rng.uniform(0.005, 0.02)),
            bursty_loss=bursty,
            message_count=FAULTY_MESSAGES,
            config=ProducerConfig(semantics=semantics, message_timeout_s=timeout),
            seed=_seed_from(rng),
        )
        for i, (semantics, timeout, bursty) in enumerate(cells)
    ]


def experiment_steps(tally: Tally, scenarios: List, digest: bool) -> Iterator[int]:
    """Closed loop: one experiment after the other, each timed from outside.

    A stage generator (see ``interleave``): yields its step count, then
    once per experiment.
    """
    yield len(scenarios)
    for scenario in scenarios:
        tally.attempted += 1
        try:
            start = time.perf_counter()
            experiment = Experiment(scenario)
            result = experiment.run()
            elapsed = time.perf_counter() - start
            check_experiment(experiment, result)
        except Exception as error:  # noqa: BLE001 - counted, reported, run goes on
            tally.fail("experiment", error)
            yield 1
            continue
        tally.msgs["experiments"] += result.produced
        tally.wall["experiments"] += elapsed
        if digest:
            tally.add("result", result_payload(result))
        yield 1


# ---------------------------------------------------------- stage 2: control


def training_rows(rng: np.random.Generator) -> List[ExperimentResult]:
    """Synthetic Fig. 3 rows: grid features, smooth seeded targets."""
    # A fixed number of rows per (region, semantics) submodel, so every
    # seed trains networks of the same shapes on the same row counts.
    picks = []
    for region, plan in (("normal", normal_case_plan), ("abnormal", abnormal_case_plan)):
        grid = plan(message_count=1000).scenarios(rng)
        for semantics in (ALO, AMO):
            group = [s for s in grid if s.config.semantics is semantics]
            chosen = rng.choice(len(group), TRAIN_ROWS[region], replace=False)
            picks.extend(group[i] for i in sorted(chosen))
    rows = []
    for scenario in picks:
        config = scenario.config
        retries = config.semantics.retries_allowed
        loss = scenario.loss_rate * (0.4 if retries else 1.6) + 0.3 * scenario.network_delay_s
        loss += 0.02 * config.polling_interval_s / 0.09 + 0.05 / config.message_timeout_s
        duplicate = (0.02 * scenario.loss_rate + 0.01 * scenario.network_delay_s) if retries else 0.0
        rows.append(
            ExperimentResult(
                message_bytes=scenario.message_bytes,
                timeliness_s=None,
                network_delay_s=scenario.network_delay_s,
                loss_rate=scenario.loss_rate,
                semantics=config.semantics.value,
                batch_size=config.batch_size,
                polling_interval_s=config.polling_interval_s,
                message_timeout_s=config.message_timeout_s,
                produced=1000,
                p_loss=float(np.clip(loss + rng.normal(0.0, 0.01), 0.0, 1.0)),
                p_duplicate=float(np.clip(duplicate + abs(rng.normal(0.0, 0.002)), 0.0, 1.0)),
            )
        )
    return rows


def probe_vectors(rng: np.random.Generator) -> List[FeatureVector]:
    """Fixed query points whose predictions go into the digest."""
    return [
        FeatureVector.from_scenario(scenario)
        for scenario in abnormal_case_plan(message_count=1000, max_rows=12).scenarios(rng)
        + normal_case_plan(message_count=1000, max_rows=12).scenarios(rng)
    ]


@dataclasses.dataclass
class ControlInputs:
    rows: List[ExperimentResult]
    probes: List[FeatureVector]
    trace: NetworkTrace
    train_seed: int
    interval_seed: int
    campaign_seed: int
    schedules: List


def stratified_trace(rng: np.random.Generator, points: int) -> NetworkTrace:
    """A Fig. 9-style trace with every seed covering the same conditions.

    Delays are stratified quantiles of the Pareto delay model of
    ``generate_paper_trace`` (20 ms scale, shape 2, 400 ms cap); a fixed
    quarter of the intervals — the stationary share of the default
    Gilbert-Elliott rate process — are bad (18 % loss), the rest good
    (1 %), both with +-3 % jitter.  The seed permutes and jitters them.
    """
    quantiles = (rng.permutation(points) + rng.random(points)) / points
    delays = np.minimum(0.020 * (1.0 - quantiles) ** (-1.0 / 2.0), 0.400)
    bad = np.zeros(points, dtype=bool)
    bad[: points // 4] = True
    bad = rng.permutation(bad)
    losses = np.where(bad, 0.18, 0.01) + rng.uniform(-0.03, 0.03, points)
    return NetworkTrace(
        interval_s=INTERVAL_S,
        points=[
            TracePoint(time_s=i * INTERVAL_S, delay_s=float(delays[i]), loss_rate=float(max(0.0, losses[i])))
            for i in range(points)
        ],
    )


def control_inputs(rng: np.random.Generator, intervals: int) -> ControlInputs:
    campaign_seed = _seed_from(rng)
    return ControlInputs(
        rows=training_rows(rng),
        probes=probe_vectors(rng),
        trace=stratified_trace(rng, PLAN_FACTOR * intervals),
        train_seed=_seed_from(rng),
        interval_seed=_seed_from(rng),
        campaign_seed=campaign_seed,
        schedules=[
            make(campaign_seed + offset)
            for offset in (0, 1)
            for make in (flap_burst_schedule, staged_escalation_schedule)
        ],
    )


def interval_message_count(stream, config: ProducerConfig, producers: int) -> int:
    """Messages one replayed interval simulates (as ``run_traced_experiment`` sizes it)."""
    per_producer_rate = stream.arrival_rate / producers
    if config.polling_interval_s > 0:
        rate = min(per_producer_rate, 1.0 / config.polling_interval_s)
    else:
        rate = per_producer_rate
    return max(10, min(int(round(rate * INTERVAL_S)), INTERVAL_CAP))


class TimedDegradedController(DegradedModeController):
    """The degraded-mode controller with each decision timed from outside."""

    def __init__(self, *args, samples: List[float], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._samples = samples

    def decide(self, stream, current):
        start = time.perf_counter()
        decision = super().decide(stream, current)
        self._samples.append((time.perf_counter() - start) * 1e3)
        return decision


def _one_point(trace: NetworkTrace, index: int) -> NetworkTrace:
    return NetworkTrace(interval_s=trace.interval_s, points=[trace.points[index]])


def _replay_slots(intervals: int) -> Dict[int, int]:
    """Trace index after whose replan each replayed interval runs.

    Interval ``j`` needs plan entry ``j``; running it after plan entry
    ``PLAN_FACTOR * j + PLAN_FACTOR - 1`` (the trace has ``PLAN_FACTOR``
    times the replayed intervals) spreads the replays evenly over the
    planning walk instead of bunching them at its start.
    """
    return {PLAN_FACTOR * j + PLAN_FACTOR - 1: j for j in range(intervals)}


def control_steps(tally: Tally, inputs: ControlInputs, intervals: int, digest: bool) -> Iterator[int]:
    """Fit, plan over the trace, replay intervals under both policies, run campaigns.

    A stage generator (see ``interleave``).  The three streams take turns:
    each is planned with a predictor fitted for it just before, and its
    interval replays run during its planning walk; the chaos campaigns are
    spread over the three walks.  Fits, decisions, interval experiments
    and campaigns are thus all sampled across the whole stage, and a run
    samples the decision costs of many trained networks.
    """
    trace = inputs.trace
    points = len(trace.points)
    streams = len(PAPER_STREAMS)
    replays = _replay_slots(intervals)
    campaigns = [(schedule, policy) for schedule in inputs.schedules for policy in ("static", "degraded")]
    walk = streams * points
    campaign_slots = {(k + 1) * walk // len(campaigns) - 1: k for k in range(len(campaigns))}
    yield streams * (1 + points + 2 * len(replays)) + len(campaigns)
    tally.campaign_s.append(0.0)
    performance = ProducerPerformanceModel()
    for number, stream in enumerate(PAPER_STREAMS):
        predictor = ReliabilityPredictor()
        settings = TrainingSettings(
            epochs=TRAIN_EPOCHS, patience=None, seed=inputs.train_seed + number
        )
        tally.attempted += 1
        try:
            start = time.perf_counter()
            predictor.fit(inputs.rows, settings)
            tally.epoch_ms.append((time.perf_counter() - start) * 1e3 / TRAIN_EPOCHS)
        except Exception as error:  # noqa: BLE001
            tally.fail("fit", error)
            return
        yield 1
        if digest:
            estimates = predictor.predict_with_fallback_batch(inputs.probes)
            tally.add(
                "predictions",
                [stream.name] + [(e.source, e.estimate.p_loss, e.estimate.p_duplicate) for e in estimates],
            )
        controller = DynamicConfigurationController(
            predictor,
            performance,
            weights=KpiWeights.of(stream.kpi_weights),
            gamma_requirement=GAMMA_REQUIREMENT,
            reconfig_interval_s=INTERVAL_S,
        )
        plan = ConfigurationPlan(interval_s=INTERVAL_S)
        config = DEFAULT_PRODUCER_CONFIG
        measured: Dict[str, List] = {"dynamic": [], "default": []}
        for index, point in enumerate(trace.points):
            tally.attempted += 1
            try:
                start = time.perf_counter()
                entry = controller.generate_plan(_one_point(trace, index), stream, start=config).entries[0]
                tally.replan_ms.append((time.perf_counter() - start) * 1e3)
            except Exception as error:  # noqa: BLE001
                tally.fail("replan", error)
            else:
                config = entry.config
                plan.entries.append(dataclasses.replace(entry, time_s=point.time_s))
            yield 1
            if index in replays:
                for policy, intervals_measured in measured.items():
                    _replay(tally, inputs, stream, policy, plan, replays[index], intervals_measured)
                    yield 1
            if number * points + index in campaign_slots:
                schedule, policy = campaigns[campaign_slots[number * points + index]]
                _campaign(tally, inputs, predictor, performance, schedule, policy, digest)
                yield 1
        if digest:
            tally.add(
                "plan",
                [stream.name]
                + [
                    (e.time_s, dataclasses.asdict(e.config), e.producers, e.predicted_gamma)
                    for e in plan.entries
                ],
            )
            for policy, intervals_measured in measured.items():
                rates = aggregate_rates(intervals_measured)
                tally.add(
                    "rates",
                    [stream.name, policy, rates.r_loss, rates.r_duplicate]
                    + [(m.messages, m.p_loss, m.p_duplicate) for m in intervals_measured],
                )


def _replay(tally: Tally, inputs: ControlInputs, stream, policy: str,
            plan: ConfigurationPlan, index: int, measured: List) -> None:
    """One interval experiment of ``stream`` under ``policy``, timed from outside."""
    trace = inputs.trace
    point = trace.points[index]
    if policy == "dynamic":
        entry = plan.at(point.time_s)
        kwargs = {"plan": plan}
        count = interval_message_count(stream, entry.config, entry.producers)
    else:
        kwargs = {"static_config": DEFAULT_PRODUCER_CONFIG}
        count = interval_message_count(stream, DEFAULT_PRODUCER_CONFIG, 1)
    tally.attempted += 1
    try:
        start = time.perf_counter()
        report = run_traced_experiment(
            _one_point(trace, index),
            stream,
            seed=inputs.interval_seed + 31 * index,
            messages_cap_per_interval=INTERVAL_CAP,
            **kwargs,
        )
        elapsed = time.perf_counter() - start
        interval = report.intervals[0]
        _require(0.0 <= interval.p_loss <= 1.0, "interval P_l outside [0, 1]")
        _require(0.0 <= interval.p_duplicate <= 1.0, "interval P_d outside [0, 1]")
    except Exception as error:  # noqa: BLE001
        tally.fail("interval experiment", error)
        return
    tally.experiment_ms.append(elapsed * 1e3)
    tally.wall["control"] += elapsed
    tally.msgs["control"] += count
    measured.append(interval)


def _campaign(tally: Tally, inputs: ControlInputs, predictor, performance,
              schedule, policy: str, digest: bool) -> None:
    """One chaos campaign under ``policy``; its wall time adds to the cycle's ``campaign_s``."""
    kwargs = {"predictor": predictor, "performance_model": performance}
    if policy == "degraded":
        kwargs = {
            "controller": TimedDegradedController(
                predictor, performance_model=performance, samples=tally.replan_ms
            ),
            "performance_model": performance,
        }
    tally.attempted += 1
    try:
        start = time.perf_counter()
        report = run_campaign(
            schedule,
            stream=WEB_ACCESS_LOGS,
            policy=policy,
            seed=inputs.campaign_seed,
            **kwargs,
        )
        elapsed = time.perf_counter() - start
        for phase in report.phases:
            _require(0.0 <= phase.p_loss <= 1.0, "phase P_l outside [0, 1]")
            _require(0.0 <= phase.p_duplicate <= 1.0, "phase P_d outside [0, 1]")
            _require(phase.produced >= 1, "phase produced nothing")
    except Exception as error:  # noqa: BLE001
        tally.fail("campaign", error)
        return
    tally.campaign_s[-1] += elapsed
    if digest:
        tally.add("campaign", report.to_json())


# ------------------------------------------------------------ stage 3: sweep


def _axis_value(scenario: Scenario, axis: str):
    if axis.startswith("config."):
        return getattr(scenario.config, axis[len("config."):])
    return getattr(scenario, axis)


def latin_points(plan, rng: np.random.Generator, points: int) -> List:
    """``points`` grid points of ``plan`` with every axis value equally often.

    Each axis gets its candidate values repeated to length ``points`` and
    shuffled; point ``i`` takes the ``i``-th value of every axis.  Every
    seed therefore sweeps the same mix of batch sizes, polling intervals,
    loss rates and message sizes, and only the combinations differ.
    """
    grid = {
        tuple(_axis_value(scenario, axis) for axis in plan.axes): scenario
        for scenario in plan.scenarios()
    }
    columns = [
        rng.permutation(np.arange(points) % len(values)) for values in plan.axes.values()
    ]
    values = list(plan.axes.values())
    return [
        grid[tuple(values[a][columns[a][i]] for a in range(len(values)))]
        for i in range(points)
    ]


def sweep_scenarios(rng: np.random.Generator, points: int) -> List:
    """Normal plus abnormal Fig. 3 points, ``points`` of each, 10^3 messages."""
    base = Scenario(message_count=SWEEP_MESSAGES, seed=_seed_from(rng))
    return latin_points(normal_case_plan(base), rng, points) + latin_points(
        abnormal_case_plan(base), rng, points
    )


def run_sweep(tally: Tally, scenarios: List, workers: int, digest: bool) -> None:
    info: Dict = {}
    tally.attempted += len(scenarios)
    try:
        start = time.perf_counter()
        results = run_many(scenarios, workers=workers, on_error="collect", execution_info=info)
        wall = time.perf_counter() - start
    except Exception as error:  # noqa: BLE001
        tally.failed += len(scenarios)
        tally.errors.append(f"sweep: {type(error).__name__}: {error}")
        return
    tally.sweep_info.append(info)
    messages = 0
    for scenario, result in zip(scenarios, results):
        if isinstance(result, RunFailure):
            tally.failed += 1
            tally.errors.append(f"sweep point: {result.error}")
            continue
        try:
            check_result(result, scenario.message_count)
        except CheckFailed as error:
            tally.fail("sweep point", error)
            continue
        messages += result.produced
        if digest:
            tally.add("result", result_payload(result))
    tally.sweep_points += len(scenarios)
    tally.msgs["sweep"] += messages
    tally.wall["sweep"] += wall


def sweep_steps(tally: Tally, scenarios: List, workers: int, digest: bool) -> Iterator[int]:
    """The sweep as a one-step stage generator (see ``interleave``)."""
    yield 1
    run_sweep(tally, scenarios, workers, digest)
    yield 1


def interleave(steppers: List[Iterator[int]]) -> None:
    """Run stage generators side by side, each spread evenly over the run.

    Every generator first yields its number of steps, then does one step
    per ``next``.  The generator that is least far through its steps goes
    next (the first listed on a tie), so every stage, and every kind of
    timed operation, is sampled across the whole cycle rather than in one
    burst — a shared host's slow phases then weigh on all metrics alike.
    """
    active = [[0, max(next(stepper), 1), stepper] for stepper in steppers]
    while active:
        entry = min(active, key=lambda item: item[0] / item[1])
        try:
            next(entry[2])
        except StopIteration:
            active.remove(entry)
            continue
        entry[0] += 1
