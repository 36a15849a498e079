"""Golden identity of the control layer across code changes.

The controller, trace-replay and chaos-campaign code is refactored under
one contract: plans, interval results, campaign reports and degraded-mode
decisions do not move.  Each case below digests one of them:

* chaos campaigns (two stock schedules × static/degraded) as their
  byte-stable JSON report;
* an offline plan generated from an analytic stub predictor, and the
  trace replays of that plan and of two static configurations;
* the :class:`DegradedDecision` sequence a controller produces for a
  fixed list of interval observations, including silent intervals that
  trip the circuit breaker.

Only the untrained :class:`ReliabilityPredictor` (every answer from the
conservative tier) and pure-Python stubs feed the control layer, so no
BLAS kernel runs and the digests hold on any CPU.  The degraded campaigns
pass an explicit default-weight controller, so a change to how
``run_campaign`` builds its own controller does not move them.

To re-record after a deliberate, documented behaviour change::

    PYTHONPATH=src python -c "from tests.integration.test_control_identity \\
        import record; record()"
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List

import pytest

from repro.chaos import flap_burst_schedule, run_campaign
from repro.chaos.schedule import staged_escalation_schedule
from repro.kafka import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from repro.kpi import (
    DegradedModeController,
    DynamicConfigurationController,
    IntervalObservation,
    KpiWeights,
    run_traced_experiment,
)
from repro.models import FeatureVector, ReliabilityEstimate
from repro.models.predictor import FallbackEstimate, ReliabilityPredictor
from repro.network import NetworkTrace, TracePoint
from repro.workloads import WEB_ACCESS_LOGS

SEED = 7
PHASE_CAP = 60
INTERVAL_CAP = 60


class AnalyticPredictor:
    """Loss grows with delay and loss rate and shrinks with batching.

    Pure Python, so its answers are the same on every CPU.  The fallback
    methods answer from the same formula as the ``"ann"`` tier, which lets
    the degraded controller's search move (an untrained predictor keeps it
    on the conservative tier).
    """

    def predict_vectors(self, vectors: List[FeatureVector]) -> List[ReliabilityEstimate]:
        estimates = []
        for vector in vectors:
            loss = min(
                1.0, (vector.loss_rate * 2.5 + vector.network_delay_s) / vector.batch_size
            )
            duplicate = 0.01 if vector.semantics.waits_for_ack else 0.0
            estimates.append(ReliabilityEstimate(p_loss=loss, p_duplicate=duplicate))
        return estimates

    def predict_with_fallback_batch(self, vectors) -> List[FallbackEstimate]:
        return [
            FallbackEstimate(estimate, "ann") for estimate in self.predict_vectors(vectors)
        ]


TRACE = NetworkTrace(
    interval_s=10.0,
    points=[
        TracePoint(0.0, 0.02, 0.0),
        TracePoint(10.0, 0.08, 0.18),
        TracePoint(20.0, 0.08, 0.18),
        TracePoint(30.0, 0.12, 0.3),
        TracePoint(40.0, 0.03, 0.02),
    ],
)


def _encode(value: object) -> str:
    encoded = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.blake2b(encoded, digest_size=16).hexdigest()


def _campaign(make_schedule: Callable, policy: str) -> str:
    if policy == "degraded":
        kwargs = {"controller": DegradedModeController(ReliabilityPredictor())}
    else:
        kwargs = {"predictor": ReliabilityPredictor()}
    report = run_campaign(
        make_schedule(seed=SEED),
        stream=WEB_ACCESS_LOGS,
        policy=policy,
        seed=SEED,
        messages_cap_per_phase=PHASE_CAP,
        **kwargs,
    )
    return report.to_json()


def _plan():
    controller = DynamicConfigurationController(
        AnalyticPredictor(),
        weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
        gamma_requirement=0.97,
        reconfig_interval_s=TRACE.interval_s,
    )
    return controller.generate_plan(TRACE, WEB_ACCESS_LOGS)


def _replay(**policy) -> Dict:
    report = run_traced_experiment(
        TRACE,
        WEB_ACCESS_LOGS,
        seed=5,
        messages_cap_per_interval=INTERVAL_CAP,
        **policy,
    )
    return dataclasses.asdict(report)


#: Silent intervals trip the breaker, keep it open through the cooldown,
#: fail the half-open probe once, then healthy intervals close it.
OBSERVATIONS: List[IntervalObservation] = [
    IntervalObservation(requests_sent=120, acknowledged=118, min_rtt_s=0.05,
                        segments_sent=130, retransmissions=2),
    IntervalObservation(requests_sent=120, acknowledged=96, request_retries=30,
                        perceived_lost=12, segments_sent=160, retransmissions=34,
                        min_rtt_s=0.18),
    IntervalObservation(requests_sent=110, acknowledged=90, request_retries=25,
                        perceived_lost=9, segments_sent=150, retransmissions=28,
                        min_rtt_s=0.2),
    IntervalObservation(requests_sent=100, acknowledged=3, request_retries=60,
                        perceived_lost=40, segments_sent=180, retransmissions=90),
    IntervalObservation(requests_sent=80, acknowledged=0, request_retries=50,
                        perceived_lost=60, segments_sent=120, retransmissions=70),
    IntervalObservation(requests_sent=60, acknowledged=0, request_retries=30,
                        perceived_lost=50, segments_sent=90, retransmissions=60),
    IntervalObservation(requests_sent=60, acknowledged=1, request_retries=30,
                        perceived_lost=50, segments_sent=90, retransmissions=60),
    IntervalObservation(requests_sent=50, acknowledged=0, waits_for_ack=False),
    IntervalObservation(requests_sent=90, acknowledged=85, request_retries=6,
                        perceived_lost=2, segments_sent=100, retransmissions=7,
                        min_rtt_s=0.07),
    IntervalObservation(requests_sent=120, acknowledged=117, request_retries=2,
                        segments_sent=125, retransmissions=3, min_rtt_s=0.04),
    IntervalObservation(requests_sent=120, acknowledged=119, segments_sent=121,
                        retransmissions=1, min_rtt_s=0.03),
    IntervalObservation(requests_sent=120, acknowledged=120, segments_sent=120,
                        min_rtt_s=0.03),
]


def _decisions(predictor) -> List[Dict]:
    controller = DegradedModeController(
        predictor,
        weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
        gamma_requirement=0.97,
    )
    config = DEFAULT_PRODUCER_CONFIG
    decisions = []
    for observation in OBSERVATIONS:
        controller.observe(
            observation,
            message_bytes=WEB_ACCESS_LOGS.mean_payload_bytes,
            batch_size=config.batch_size,
        )
        decision = controller.decide(WEB_ACCESS_LOGS, config)
        decisions.append(dataclasses.asdict(decision))
        config = decision.config
    return decisions


#: name -> builder of the JSON-able state a case digests.
CASES: Dict[str, Callable[[], object]] = {
    "campaign_flap_burst_static": lambda: _campaign(flap_burst_schedule, "static"),
    "campaign_flap_burst_degraded": lambda: _campaign(flap_burst_schedule, "degraded"),
    "campaign_staged_escalation_static": lambda: _campaign(
        staged_escalation_schedule, "static"
    ),
    "campaign_staged_escalation_degraded": lambda: _campaign(
        staged_escalation_schedule, "degraded"
    ),
    "plan_analytic": lambda: dataclasses.asdict(_plan()),
    "replay_plan_analytic": lambda: _replay(plan=_plan()),
    "replay_static_default": lambda: _replay(static_config=DEFAULT_PRODUCER_CONFIG),
    "replay_static_polled": lambda: _replay(
        static_config=ProducerConfig(batch_size=2, polling_interval_s=0.09)
    ),
    "decisions_untrained": lambda: _decisions(ReliabilityPredictor()),
    "decisions_analytic": lambda: _decisions(AnalyticPredictor()),
}


def digest(name: str) -> str:
    """BLAKE2b digest of one golden case."""
    return _encode(CASES[name]())


#: Recorded before the control layer was refactored; see the module docstring.
GOLDEN: Dict[str, str] = {
    "campaign_flap_burst_static": "8c233fc2f772ef0405b8a96c72675800",
    "campaign_flap_burst_degraded": "a46477787e24c993f4c611c8511133a1",
    "campaign_staged_escalation_static": "17cd3ed6a1f617d26318a6f94d57f084",
    "campaign_staged_escalation_degraded": "15027cae9a2f195698df24138c02e4c3",
    "plan_analytic": "7cebaeaf28d9cffc4c9f30b64260e87f",
    "replay_plan_analytic": "8b7703231f16289f1185f4baf05359aa",
    "replay_static_default": "02270479c63d65730046822c8d54fbd2",
    "replay_static_polled": "3c97ca04ac630ba90e98940723c3d24f",
    "decisions_untrained": "f20dd6755876e7a43dce4c0a9990ba6c",
    "decisions_analytic": "8abdcabb95311e1a6ad0dfa034942789",
}


def record() -> None:
    """Print the current digests in the form of :data:`GOLDEN`."""
    for name in CASES:
        print(f'    "{name}": "{digest(name)}",')


def test_every_case_has_a_golden_digest():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_control_layer_is_bit_identical(name):
    assert digest(name) == GOLDEN[name]
