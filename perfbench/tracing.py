"""Outside-in tracing of the package's layer boundaries.

Only the traced run installs these wrappers; the end-to-end runs call the
package untouched.  Each wrapper records one span — name, start, end,
parent span and request id (the index of the experiment it ran in) —
into flat in-memory arrays.  Scheduled simulator callbacks are wrapped at
``Simulator.schedule``/``schedule_at`` time so that every fired event gets
a span named after the layer of the module that owns the callback.

Self time of a span is its duration minus the spans nested in it, less
the measured cost of an empty span; summed per layer it gives the layer
self-shares.  The layer counters below (events, packets, segments,
requests, predictions, ...) are read from the same boundaries and are
exact: they repeat bit-for-bit for one seed.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ann.network import Sequential
from repro.kafka.cluster import KafkaCluster
from repro.kafka.producer import KafkaProducer
from repro.kpi.dynamic import DegradedModeController
from repro.models.predictor import ReliabilityPredictor
from repro.network.link import Link
from repro.network.transport import ReliableChannel
from repro.observability.trace import Tracer
from repro.performance.queueing import ProducerPerformanceModel
from repro.simulation.simulator import Simulator
from repro.testbed.experiment import Experiment
from repro.testbed.tracker import DeliveryTracker
import repro.chaos.campaign as campaign_module
import repro.kafka.consumer as consumer_module
import repro.kpi.selection as selection_module
import repro.observability.invariants as invariants_module
import repro.testbed.runner as runner_module

#: Layers that get a self-share, in report order.  ``bench`` is the
#: benchmark's own code (input generation, checks, digests) between spans.
GROUPS = (
    "simulation",
    "network",
    "kafka",
    "workloads",
    "testbed",
    "testbed.tracker",
    "testbed.runner",
    "models",
    "ann",
    "kpi",
    "performance",
    "chaos",
    "observability",
    "other",
    "bench",
)

_TRACKER_METHODS = (
    "on_ingest",
    "on_queue_drop",
    "on_expired",
    "on_attempt_failed",
    "on_acknowledged",
    "on_perceived_lost",
    "on_append",
    "census",
)


def module_group(module: str) -> str:
    """The layer a module belongs to (``repro.network.link`` -> ``network``)."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    if parts[1] == "testbed" and len(parts) > 2 and parts[2] in ("tracker", "runner"):
        return f"testbed.{parts[2]}"
    return parts[1] if parts[1] in GROUPS else "other"


class SpanRecorder:
    """Flat, append-only span storage plus the open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.groups: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_request = -1

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str, group: str) -> int:
        key = self._ids.get(name)
        if key is None:
            key = self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return key

    def spanned(self, fn: Callable, name_id: int) -> Callable:
        """``fn`` wrapped so each call records one span."""
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(recorder.current_request)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def calibrate(repeats: int = 3, calls: int = 100_000) -> Dict[str, float]:
    """Measured cost of an empty span, split into the part inside the span.

    ``inside_ns`` is charged to the span itself, ``outside_ns`` to its
    parent; together they are the whole cost one span adds to a run.
    """

    def noop(first: Any, second: Any) -> None:
        return None

    totals, insides = [], []
    for _ in range(repeats):
        recorder = SpanRecorder()
        wrapped = recorder.spanned(noop, recorder.name_id("noop", "bench"))
        begin = time.perf_counter_ns()
        for index in range(calls):
            noop(index, calls)
        plain = time.perf_counter_ns() - begin
        begin = time.perf_counter_ns()
        for index in range(calls):
            wrapped(index, calls)
        traced = time.perf_counter_ns() - begin
        spans = recorder.arrays()
        recorded = float(np.mean(spans["end_ns"] - spans["start_ns"]))
        totals.append((traced - plain) / calls)
        insides.append(max(0.0, recorded - plain / calls))
    total = float(np.median(totals))
    inside = min(total, float(np.median(insides)))
    return {"total_ns": total, "inside_ns": inside, "outside_ns": total - inside}


class Counters:
    """Exact layer counters read at the traced boundaries."""

    def __init__(self) -> None:
        self.experiments = 0
        self.msgs = 0
        self.events = 0
        self.cancels = 0
        self.offers = 0
        self.link_offered = 0
        self.link_dropped = 0
        self.segments = 0
        self.retransmissions = 0
        self.transport_messages = 0
        self.transport_failed = 0
        self.requests = 0
        self.request_retries = 0
        self.acknowledged = 0
        self.trace_records = 0
        self.rows_predicted = 0
        self.rows_fallback = 0
        self.configs_evaluated = 0
        self.performance_predicts = 0
        self.replans = 0
        self.predictors: List[ReliabilityPredictor] = []

    def memo(self) -> Tuple[int, int]:
        hits = sum(p.memo_stats[0] for p in self.predictors)
        misses = sum(p.memo_stats[1] for p in self.predictors)
        return hits, misses


class Tracing:
    """Installs and removes the boundary wrappers; owns spans and counters."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.counters = Counters()
        self._undo: List[Callable[[], None]] = []
        self._depth = {"models": 0, "kpi": 0}

    # --------------------------------------------------------- patching

    def _patch_method(self, cls: type, attr: str, name: str, around: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        inner = around(original) if around is not None else original
        setattr(cls, attr, self.recorder.spanned(inner, self.recorder.name_id(name, _group(name))))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, original: Callable, name: str, around: Optional[Callable] = None) -> None:
        """Rebind ``original`` in every loaded module that imported it."""
        inner = around(original) if around is not None else original
        wrapped = self.recorder.spanned(inner, self.recorder.name_id(name, _group(name)))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(lambda m=module, a=attr: setattr(m, a, original))

    def install(self) -> None:
        recorder = self.recorder
        counters = self.counters
        clock = time.perf_counter_ns
        names, parents, requests = recorder.name, recorder.parent, recorder.request
        starts, ends, stack = recorder.start, recorder.end, recorder.stack
        callback_ids: Dict[str, int] = {}

        # The span bookkeeping below repeats ``SpanRecorder.spanned`` inline:
        # it runs once per simulated event, where a helper call would add
        # a measurable share to the tracing cost.
        def callback_span(callback: Callable) -> Callable:
            owner = getattr(callback, "__self__", None)
            module = type(owner).__module__ if owner is not None else callback.__module__
            name_id = callback_ids.get(module)
            if name_id is None:
                group = module_group(module)
                name_id = callback_ids[module] = recorder.name_id(f"callback.{group}", group)

            def fire(*args: Any) -> Any:
                index = len(starts)
                names.append(name_id)
                parents.append(stack[-1])
                requests.append(recorder.current_request)
                starts.append(0)
                ends.append(0)
                stack.append(index)
                begin = clock()
                try:
                    return callback(*args)
                finally:
                    ends[index] = clock()
                    starts[index] = begin
                    stack.pop()

            return fire

        def schedule_span(original: Callable, name: str) -> Callable:
            # The callback is wrapped before the span opens, so the wrapping
            # is charged to the caller like any other span's entry cost.
            name_id = recorder.name_id(name, "simulation")

            def schedule(self: Simulator, when: float, callback: Callable, *args: Any, **kwargs: Any):
                fire = callback_span(callback)
                index = len(starts)
                names.append(name_id)
                parents.append(stack[-1])
                requests.append(recorder.current_request)
                starts.append(0)
                ends.append(0)
                stack.append(index)
                begin = clock()
                try:
                    return original(self, when, fire, *args, **kwargs)
                finally:
                    ends[index] = clock()
                    starts[index] = begin
                    stack.pop()

            return schedule

        def around_cancel(original: Callable) -> Callable:
            def cancel(self: Simulator, event: Any) -> None:
                counters.cancels += 1
                return original(self, event)

            return cancel

        def around_offer(original: Callable) -> Callable:
            def offer(self: KafkaProducer, *args: Any, **kwargs: Any) -> Any:
                counters.offers += 1
                return original(self, *args, **kwargs)

            return offer

        def around_init(original: Callable) -> Callable:
            def init(self: Experiment, *args: Any, **kwargs: Any) -> None:
                recorder.current_request = counters.experiments
                counters.experiments += 1
                original(self, *args, **kwargs)

            return init

        def around_run(original: Callable) -> Callable:
            def run(self: Experiment) -> Any:
                try:
                    result = original(self)
                finally:
                    recorder.current_request = -1
                _count_experiment(counters, self, result)
                return result

            return run

        def around_fit(original: Callable) -> Callable:
            def fit(self: ReliabilityPredictor, *args: Any, **kwargs: Any) -> Any:
                if not any(p is self for p in counters.predictors):
                    counters.predictors.append(self)
                return original(self, *args, **kwargs)

            return fit

        depth = self._depth

        def around_predict(original: Callable, fallback: bool) -> Callable:
            def predict(self: ReliabilityPredictor, vectors: Any, *args: Any, **kwargs: Any) -> Any:
                vectors = list(vectors)
                if not any(p is self for p in counters.predictors):
                    counters.predictors.append(self)
                depth["models"] += 1
                try:
                    out = original(self, vectors, *args, **kwargs)
                finally:
                    depth["models"] -= 1
                if depth["models"] == 0:
                    counters.rows_predicted += len(vectors)
                    if depth["kpi"] > 0:
                        counters.configs_evaluated += len(vectors)
                    if fallback:
                        counters.rows_fallback += sum(1 for e in out if e.source != "ann")
                return out

            return predict

        def around_decision(original: Callable) -> Callable:
            def decision(*args: Any, **kwargs: Any) -> Any:
                if depth["kpi"] == 0:
                    counters.replans += 1
                depth["kpi"] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth["kpi"] -= 1

            return decision

        def around_performance(original: Callable) -> Callable:
            def predict(self: ProducerPerformanceModel, *args: Any, **kwargs: Any) -> Any:
                counters.performance_predicts += 1
                return original(self, *args, **kwargs)

            return predict

        method = self._patch_method
        method(Simulator, "run", "simulation.run")
        for attr in ("schedule", "schedule_at"):
            original = Simulator.__dict__[attr]
            setattr(Simulator, attr, schedule_span(original, f"simulation.{attr}"))
            self._undo.append(lambda a=attr, o=original: setattr(Simulator, a, o))
        method(Simulator, "cancel", "simulation.cancel", around_cancel)
        method(Link, "send", "network.link.send")
        method(ReliableChannel, "send", "network.transport.send")
        method(ReliableChannel, "abort", "network.transport.abort")
        method(KafkaCluster, "handle_produce", "kafka.cluster.handle_produce")
        method(KafkaProducer, "offer", "kafka.producer.offer", around_offer)
        method(Experiment, "__init__", "testbed.experiment.init", around_init)
        method(Experiment, "run", "testbed.experiment.run", around_run)
        for attr in _TRACKER_METHODS:
            method(DeliveryTracker, attr, f"testbed.tracker.{attr}")
        method(ReliabilityPredictor, "fit", "models.fit", around_fit)
        method(
            ReliabilityPredictor,
            "predict_vectors",
            "models.predict_vectors",
            lambda f: around_predict(f, fallback=False),
        )
        method(
            ReliabilityPredictor,
            "predict_with_fallback_batch",
            "models.predict_with_fallback_batch",
            lambda f: around_predict(f, fallback=True),
        )
        method(Sequential, "fit", "ann.fit")
        method(Sequential, "predict_rowwise", "ann.predict_rowwise")
        method(ProducerPerformanceModel, "predict", "performance.predict", around_performance)
        method(DegradedModeController, "decide", "kpi.decide", around_decision)
        method(Tracer, "emit", "observability.emit")
        function = self._patch_function
        function(consumer_module.reconcile, "kafka.reconcile")
        function(runner_module.run_many, "testbed.runner.run_many")
        function(selection_module.evaluate_configs, "kpi.evaluate_configs")
        function(
            selection_module.select_configuration,
            "kpi.select_configuration",
            around_decision,
        )
        function(campaign_module.run_campaign, "chaos.run_campaign")
        function(invariants_module.verify_trace, "observability.verify_trace")
        function(invariants_module.verify_manifest, "observability.verify_manifest")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _group(name: str) -> str:
    if name.startswith("testbed.tracker") or name.startswith("testbed.runner"):
        return ".".join(name.split(".")[:2])
    return name.split(".")[0]


def _count_experiment(counters: Counters, experiment: Experiment, result: Any) -> None:
    counters.msgs += result.produced
    counters.events += experiment.sim.events_processed
    for direction in (experiment.link.forward, experiment.link.reverse):
        counters.link_offered += direction.stats.sent + direction.stats.dropped_queue
        counters.link_dropped += direction.stats.dropped
    for name in ("forward", "reverse"):
        stats = experiment.channel.stats(name)
        counters.segments += stats.segments_sent
        counters.retransmissions += stats.retransmissions
        counters.transport_messages += stats.messages_sent
        counters.transport_failed += stats.messages_failed
    stats = experiment.producer.stats
    counters.requests += stats.requests_sent
    counters.request_retries += stats.request_retries
    counters.acknowledged += stats.acknowledged
    telemetry = experiment.telemetry
    if telemetry is not None and telemetry.tracer is not None:
        counters.trace_records += len(telemetry.tracer.records())


# ------------------------------------------------------------ aggregation


def span_times(recorder: SpanRecorder, calibration: Dict[str, float]) -> Dict[str, np.ndarray]:
    """Per-span calibrated self and inclusive times, in nanoseconds."""
    spans = recorder.arrays()
    count = len(spans["start_ns"])
    duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    parent = spans["parent"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=count)
    children = np.bincount(parent[nested], minlength=count)
    inside, outside = calibration["inside_ns"], calibration["outside_ns"]
    self_ns = duration - child_time - children * outside - inside
    # Spans are stored in start order and nest in time, so a span's
    # descendants are exactly the spans that start before it ends.
    last = np.searchsorted(spans["start_ns"], spans["end_ns"], side="left") - 1
    descendants = np.maximum(last - np.arange(count), 0)
    inclusive_ns = duration - descendants * calibration["total_ns"] - inside
    return {**spans, "self_ns": self_ns, "inclusive_ns": inclusive_ns}


def group_self_ns(recorder: SpanRecorder, times: Dict[str, np.ndarray]) -> Dict[str, float]:
    group_ids = np.array([GROUPS.index(recorder.groups[i]) for i in range(len(recorder.names))] or [0])
    per_span_group = group_ids[times["name"]] if len(times["name"]) else np.array([], dtype=int)
    totals = np.bincount(per_span_group, weights=times["self_ns"], minlength=len(GROUPS))
    return {group: float(totals[i]) for i, group in enumerate(GROUPS)}


def inclusive_by_name(recorder: SpanRecorder, times: Dict[str, np.ndarray], *names: str) -> np.ndarray:
    """Inclusive times of the spans named ``names`` that are not nested in one another."""
    ids = [recorder.names.index(name) for name in names if name in recorder.names]
    mask = np.isin(times["name"], ids)
    parents = times["parent"][mask]
    parent_names = np.where(parents >= 0, times["name"][np.maximum(parents, 0)], -1)
    return times["inclusive_ns"][mask][~np.isin(parent_names, ids)]


def write_spans(path: str, recorder: SpanRecorder, times: Dict[str, np.ndarray], meta: str) -> None:
    np.savez_compressed(
        path,
        names=np.array(recorder.names),
        groups=np.array(recorder.groups),
        name=times["name"],
        parent=times["parent"],
        request=times["request"],
        start_ns=times["start_ns"],
        end_ns=times["end_ns"],
        self_ns=times["self_ns"],
        meta=np.array(meta),
    )
