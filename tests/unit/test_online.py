"""Unit tests for the online estimator and the closed loop acting on it."""

import pytest

from repro.kafka import ProducerConfig
from repro.kpi import (
    DegradedModeController,
    IntervalObservation,
    KpiWeights,
    NetworkStateEstimator,
)
from repro.models import ReliabilityEstimate
from repro.models.predictor import FallbackEstimate
from repro.performance import ProducerPerformanceModel
from repro.workloads import WEB_ACCESS_LOGS


class StubPredictor:
    def predict_vectors(self, vectors):
        return [
            ReliabilityEstimate(
                p_loss=min(1.0, vector.loss_rate * 3.0 / vector.batch_size),
                p_duplicate=0.0,
            )
            for vector in vectors
        ]

    def predict_with_fallback_batch(self, vectors):
        return [FallbackEstimate(estimate, "ann") for estimate in self.predict_vectors(vectors)]


def observe(controller, loss_rate, intervals):
    """Feed ``intervals`` healthy intervals whose requests and segments
    needed retries at ``loss_rate`` (the estimator's loss signal)."""
    retried = int(round(100 * loss_rate))
    for _ in range(intervals):
        controller.observe(
            IntervalObservation(
                requests_sent=100,
                acknowledged=100,
                request_retries=retried,
                segments_sent=100,
                retransmissions=retried,
            ),
            message_bytes=WEB_ACCESS_LOGS.mean_payload_bytes,
            batch_size=1,
        )


class TestEstimator:
    def test_starts_unconfident_and_zeroed(self):
        estimator = NetworkStateEstimator()
        estimate = estimator.estimate()
        assert not estimate.confident
        assert estimate.delay_s == 0.0
        assert estimate.loss_rate == 0.0

    def test_rtt_observation_infers_delay(self):
        model = ProducerPerformanceModel()
        estimator = NetworkStateEstimator(model)
        wire = model.request_wire_bytes(200, 1)
        base = (wire + 66) / model.hardware.link_capacity_bps + 2 * model.hardware.link_base_delay_s
        estimator.observe_rtt(base + 0.2, 200, 1)
        assert estimator.estimate().delay_s == pytest.approx(0.1, rel=0.01)

    def test_rtt_below_baseline_clamps_to_zero(self):
        estimator = NetworkStateEstimator()
        estimator.observe_rtt(0.0, 200, 1)
        assert estimator.estimate().delay_s == 0.0

    def test_transport_observation_infers_loss(self):
        estimator = NetworkStateEstimator()
        estimator.observe_transport(segments_sent=100, retransmissions=15)
        assert estimator.estimate().loss_rate == pytest.approx(0.15)

    def test_ewma_smooths_observations(self):
        estimator = NetworkStateEstimator(smoothing=0.5)
        estimator.observe_transport(100, 0)
        estimator.observe_transport(100, 40)
        assert estimator.estimate().loss_rate == pytest.approx(0.2)

    def test_zero_segments_ignored(self):
        estimator = NetworkStateEstimator()
        estimator.observe_transport(0, 0)
        assert estimator.estimate().samples == 0

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            NetworkStateEstimator().observe_rtt(-1.0, 200, 1)

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            NetworkStateEstimator(smoothing=0.0)

    def test_confidence_threshold(self):
        estimator = NetworkStateEstimator()
        estimator.observe_transport(100, 10)
        assert not estimator.estimate().confident
        estimator.observe_transport(100, 10)
        assert estimator.estimate().confident


class TestController:
    def make(self, gamma_requirement=0.95, **kwargs):
        return DegradedModeController(
            StubPredictor(),
            ProducerPerformanceModel(),
            weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
            gamma_requirement=gamma_requirement,
            **kwargs,
        )

    def test_unconfident_estimate_keeps_config(self):
        controller = self.make()
        current = ProducerConfig(batch_size=1)
        controller.estimator.observe_transport(segments_sent=100, retransmissions=30)
        decision = controller.decide(WEB_ACCESS_LOGS, current)
        assert decision.config is current
        assert decision.reason == "insufficient_signal"

    def test_heavy_loss_triggers_batching(self):
        controller = self.make()
        observe(controller, loss_rate=0.25, intervals=2)
        decision = controller.decide(WEB_ACCESS_LOGS, ProducerConfig(batch_size=1))
        assert decision.reason == "reconfigured"
        assert decision.config.batch_size > 1

    def test_clean_network_keeps_config_when_requirement_met(self):
        # With a reachable requirement the search stops at the start
        # configuration (the paper's criterion: meet, don't maximise).
        controller = self.make(gamma_requirement=0.5)
        observe(controller, loss_rate=0.0, intervals=2)
        decision = controller.decide(WEB_ACCESS_LOGS, ProducerConfig(batch_size=1))
        assert decision.config.batch_size == 1
        assert not decision.changed

    def test_hysteresis_blocks_marginal_changes(self):
        controller = self.make(hysteresis=10.0)  # nothing can improve by 10
        current = ProducerConfig(batch_size=1)
        observe(controller, loss_rate=0.25, intervals=2)
        decision = controller.decide(WEB_ACCESS_LOGS, current)
        assert decision.config is current
        assert decision.reason == "held"
