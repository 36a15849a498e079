"""Integration test: the closed-loop online configuration experiment."""

import pytest

from repro.kafka import DEFAULT_PRODUCER_CONFIG
from repro.kpi import (
    ConfigurationPlan,
    DegradedModeController,
    KpiWeights,
    run_traced_experiment,
)
from repro.models import ReliabilityEstimate
from repro.models.predictor import FallbackEstimate
from repro.network import NetworkTrace, TracePoint
from repro.performance import ProducerPerformanceModel
from repro.workloads import WEB_ACCESS_LOGS


class AnalyticPredictor:
    """Loss grows with loss rate, shrinks with batching — enough structure
    for the controller to make sensible moves without ANN training."""

    def predict_vectors(self, vectors):
        estimates = []
        for vector in vectors:
            loss = min(1.0, (vector.loss_rate * 2.5 + vector.network_delay_s) / vector.batch_size)
            dup = 0.01 if vector.semantics.waits_for_ack else 0.0
            estimates.append(ReliabilityEstimate(p_loss=loss, p_duplicate=dup))
        return estimates

    def predict_with_fallback_batch(self, vectors):
        return [FallbackEstimate(estimate, "ann") for estimate in self.predict_vectors(vectors)]


@pytest.fixture
def trace():
    return NetworkTrace(interval_s=30, points=[
        TracePoint(0.0, 0.02, 0.0),
        TracePoint(30.0, 0.08, 0.18),
        TracePoint(60.0, 0.08, 0.18),
        TracePoint(90.0, 0.03, 0.02),
    ])


def make_controller(**kwargs):
    return DegradedModeController(
        AnalyticPredictor(),
        ProducerPerformanceModel(),
        weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
        gamma_requirement=0.97,
        **kwargs,
    )


def test_online_loop_runs_and_aggregates(trace):
    report = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, controller=make_controller(),
        messages_cap_per_interval=80, seed=5,
    )
    assert report.policy == "online"
    assert len(report.intervals) == 4
    assert 0.0 <= report.rates.r_loss <= 1.0


def test_online_adapts_during_loss_episode(trace):
    """After the first lossy interval, the controller must batch up."""
    controller = make_controller()
    decisions = []
    original = controller.decide

    def spy(stream, current):
        decided = original(stream, current)
        decisions.append(decided.config.batch_size)
        return decided

    controller.decide = spy
    run_traced_experiment(
        trace, WEB_ACCESS_LOGS, controller=controller,
        messages_cap_per_interval=80, seed=5,
    )
    assert max(decisions) > 1


def test_online_no_worse_than_default_on_this_trace(trace):
    online = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, controller=make_controller(),
        messages_cap_per_interval=120, seed=7,
    )
    default = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, static_config=DEFAULT_PRODUCER_CONFIG,
        messages_cap_per_interval=120, seed=7,
    )
    assert online.rates.r_loss <= default.rates.r_loss + 0.05


def test_online_report_weights_intervals_like_the_default(trace):
    """Same workload, one dimension varied: only the policy differs."""
    online = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, controller=make_controller(),
        messages_cap_per_interval=60, seed=9,
    )
    default = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, static_config=DEFAULT_PRODUCER_CONFIG,
        messages_cap_per_interval=60, seed=9,
    )
    assert len(online.intervals) == len(trace.points)
    assert [m.messages for m in online.intervals] == [
        m.messages for m in default.intervals
    ]


@pytest.mark.parametrize(
    "names",
    [
        (),
        ("plan", "static_config"),
        ("static_config", "controller"),
        ("plan", "controller"),
        ("plan", "static_config", "controller"),
    ],
    ids=lambda names: "+".join(names) or "none",
)
def test_exactly_one_policy_required(trace, names):
    policies = {
        "plan": ConfigurationPlan(interval_s=30.0),
        "static_config": DEFAULT_PRODUCER_CONFIG,
        "controller": make_controller(),
    }
    with pytest.raises(ValueError):
        run_traced_experiment(
            trace, WEB_ACCESS_LOGS, **{name: policies[name] for name in names}
        )
