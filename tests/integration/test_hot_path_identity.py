"""Golden identity of the simulate loop across code changes.

The kernel, transport, link, broker-log and producer hot paths are tuned
for speed under one contract: no event changes its ``(time, priority,
seq)`` order and no random draw moves.  Each scenario below exercises one
branch of that path; its digest covers the measured result, every layer
counter and the full contents of every leader and follower log, so any
reordering shows up as a digest change.  The committed digests were
recorded before the hot paths were tuned.

To re-record after a deliberate, documented behaviour change::

    PYTHONPATH=src python -c "from tests.integration.test_hot_path_identity \\
        import record; record()"
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Tuple

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Experiment, Scenario, TelemetryConfig

ALO = DeliverySemantics.AT_LEAST_ONCE
AMO = DeliverySemantics.AT_MOST_ONCE
EOS = DeliverySemantics.EXACTLY_ONCE


def _clean(semantics: DeliverySemantics, batch: int) -> Scenario:
    return Scenario(
        message_bytes=200,
        message_count=400,
        seed=21,
        config=ProducerConfig(semantics=semantics, batch_size=batch),
    )


def _experiment(scenario: Scenario, telemetry=None, producers: int = 1) -> Experiment:
    return Experiment(scenario, telemetry=telemetry, producers=producers)


def _crash_restore(telemetry=None) -> Experiment:
    experiment = _experiment(
        Scenario(
            message_bytes=200,
            message_count=300,
            seed=12,
            arrival_rate=40.0,
            loss_rate=0.05,
            config=ProducerConfig(
                semantics=EOS, message_timeout_s=10.0, request_timeout_s=1.0
            ),
        ),
        telemetry,
    )
    experiment.injector.crash_broker_at(2.0, "broker-0")
    experiment.injector.restore_broker_at(4.0, "broker-0")
    return experiment


def _multi_segment_loss(telemetry=None) -> Experiment:
    return _experiment(
        Scenario(
            message_bytes=4200,
            message_count=250,
            loss_rate=0.12,
            network_delay_s=0.08,
            jitter_s=0.01,
            seed=31,
            config=ProducerConfig(semantics=ALO, message_timeout_s=1.5),
        ),
        telemetry,
    )


#: name -> builder of a ready-to-run experiment.
SCENARIOS: Dict[str, Callable[[], Experiment]] = {
    "clean_alo_b1": lambda: _experiment(_clean(ALO, 1)),
    "clean_alo_b8": lambda: _experiment(_clean(ALO, 8)),
    "clean_amo_b1": lambda: _experiment(_clean(AMO, 1)),
    "clean_amo_b8": lambda: _experiment(_clean(AMO, 8)),
    "multi_segment_bernoulli_jitter": _multi_segment_loss,
    "multi_segment_gilbert_elliott": lambda: _experiment(
        Scenario(
            message_bytes=3000,
            message_count=250,
            loss_rate=0.15,
            network_delay_s=0.05,
            bursty_loss=True,
            seed=32,
            config=ProducerConfig(semantics=AMO, message_timeout_s=1.0),
        )
    ),
    "one_segment_exactly_once_retries": lambda: _experiment(
        Scenario(
            message_bytes=200,
            message_count=300,
            loss_rate=0.2,
            network_delay_s=0.1,
            seed=33,
            # Responses lost on the way back make the producer retry
            # batches the broker already appended, so fencing runs.
            config=ProducerConfig(
                semantics=EOS, message_timeout_s=10.0, request_timeout_s=0.6
            ),
        )
    ),
    "broker_crash_restore_exactly_once": _crash_restore,
    "polled_source": lambda: _experiment(
        Scenario(
            message_bytes=500,
            message_count=200,
            loss_rate=0.05,
            seed=34,
            config=ProducerConfig(semantics=ALO, polling_interval_s=0.05),
        )
    ),
    "fleet_of_three": lambda: _experiment(
        Scenario(
            message_bytes=200,
            message_count=300,
            loss_rate=0.05,
            network_delay_s=0.02,
            seed=35,
            arrival_rate=60.0,
            config=ProducerConfig(semantics=ALO, batch_size=4),
        ),
        producers=3,
    ),
    "traced_multi_segment": lambda: _multi_segment_loss(TelemetryConfig(trace=True)),
    "traced_broker_crash": lambda: _crash_restore(TelemetryConfig(trace=True)),
}


def _state(experiment: Experiment) -> Dict:
    """Everything observable a run leaves behind, in a stable order."""
    result = experiment.run()
    data = result.to_dict()
    manifest = data.pop("manifest", None)
    state: Dict = {"result": data, "events": experiment.sim.events_processed}
    if manifest is not None:
        state["trace_digest"] = manifest["trace_digest"]
        state["trace_events"] = manifest["trace_events"]
        state["metrics_digest"] = manifest["metrics_digest"]
    members = []
    for member in experiment.members:
        members.append(
            {
                "link": [vars(d.stats) for d in (member.link.forward, member.link.reverse)],
                "transport": [vars(member.channel.stats(d)) for d in ("forward", "reverse")],
                "producer": vars(member.producer.stats),
            }
        )
    state["members"] = members
    logs = {}
    for partition in experiment.topic.partitions:
        replicas = {"leader": partition.leader_log, **partition.replica_logs}
        logs[partition.name] = {
            "leader_broker": partition.leader_broker_id,
            **{
                name: [
                    (e.offset, e.key, e.payload_bytes, e.timestamp, e.producer_id, e.sequence)
                    for e in log
                ]
                for name, log in sorted(replicas.items())
            },
        }
    state["logs"] = logs
    state["brokers"] = {
        broker_id: (broker.requests_handled, broker.requests_dropped)
        for broker_id, broker in sorted(experiment.cluster.brokers.items())
    }
    return state


def digest(name: str) -> Tuple[str, int]:
    """``(digest, events processed)`` of one golden scenario."""
    state = _state(SCENARIOS[name]())
    encoded = json.dumps(state, sort_keys=True, default=repr).encode()
    return hashlib.blake2b(encoded, digest_size=16).hexdigest(), state["events"]


#: Recorded before the hot-path tuning; see the module docstring.
GOLDEN: Dict[str, Tuple[str, int]] = {
    "clean_alo_b1": ("9d9c123461d830d9148dc6bb3c7c3dd7", 3764),
    "clean_alo_b8": ("e74c4038de07e2b54939f88bc328b1d6", 1427),
    "clean_amo_b1": ("a44cae34080e47a6817abd320f45a16a", 3058),
    "clean_amo_b8": ("9ef6b0bc8970470dbc687ccc33dd1a34", 1028),
    "multi_segment_bernoulli_jitter": ("56dcda42e2001e7b5debb36c0791822c", 4835),
    "multi_segment_gilbert_elliott": ("69c577d4052b7bdcf8ce47bdb6f562cb", 2838),
    "one_segment_exactly_once_retries": ("34473c180fe023d3b98c99480ff6129d", 3535),
    "broker_crash_restore_exactly_once": ("ca2657168405c16909fd0e8edc1ffb77", 1645),
    "polled_source": ("775bd9db0f5f4d67418287a7edf1395b", 3011),
    "fleet_of_three": ("140d0cbbfd857dc7d36966033d523a06", 1230),
    "traced_multi_segment": ("ea2464e8b03e60f4a56e74dab43ec922", 4835),
    "traced_broker_crash": ("fdff96a69e88b7d865897acb5cb377f1", 1645),
}


def record() -> None:
    """Print the current digests in the form of :data:`GOLDEN`."""
    for name in SCENARIOS:
        value, events = digest(name)
        print(f'    "{name}": ("{value}", {events}),')


def test_every_scenario_has_a_golden_digest():
    assert set(GOLDEN) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hot_path_is_bit_identical(name):
    assert digest(name) == GOLDEN[name]
