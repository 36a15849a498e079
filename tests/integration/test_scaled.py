"""Integration tests for scaled producer fleets (Section IV-C)."""

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.observability import conservation_violations
from repro.testbed import Experiment, Scenario, TelemetryConfig, run_experiment


BASE = Scenario(
    message_bytes=200,
    message_count=1200,
    seed=5,
    arrival_rate=24.0,
    config=ProducerConfig(message_timeout_s=1.0),
)

LOSSY = BASE.with_(
    loss_rate=0.2,
    network_delay_s=0.1,
    arrival_rate=8.0,
    message_count=300,
)


def test_scaling_relieves_overload():
    single = run_experiment(BASE)
    fleet = run_experiment(BASE, producers=4)
    assert single.p_loss > 0.3
    assert fleet.p_loss < 0.1


def test_fleet_conserves_all_keys():
    result = run_experiment(BASE.with_(message_count=900), producers=3)
    # check_conservation ran inside; produced must equal the request.
    assert result.produced == 900


def test_one_producer_fleet_matches_single_experiment_shape():
    scenario = BASE.with_(arrival_rate=6.0, message_count=600)
    single = run_experiment(scenario)
    fleet = run_experiment(scenario, producers=1)
    assert abs(single.p_loss - fleet.p_loss) < 0.05


def test_fault_applies_to_every_member():
    scenario = BASE.with_(
        loss_rate=0.2,
        network_delay_s=0.1,
        arrival_rate=8.0,
        message_count=900,
        config=BASE.config.with_(
            semantics=DeliverySemantics.AT_MOST_ONCE, message_timeout_s=0.5
        ),
    )
    fleet = run_experiment(scenario, producers=3)
    assert fleet.p_loss > 0.02  # faults visible through every uplink


def test_uneven_message_split_covers_total():
    result = run_experiment(
        BASE.with_(message_count=1001, arrival_rate=9.0), producers=3
    )
    assert result.produced == 1001


def test_producers_validation():
    with pytest.raises(ValueError):
        run_experiment(BASE, producers=0)


def test_scaled_run_is_deterministic():
    scenario = BASE.with_(message_count=600, arrival_rate=12.0)
    first = run_experiment(scenario, producers=2)
    second = run_experiment(scenario, producers=2)
    assert first.p_loss == second.p_loss
    assert first.p_duplicate == second.p_duplicate


def test_more_producers_than_messages_rejected():
    with pytest.raises(ValueError, match="message_count"):
        run_experiment(BASE.with_(message_count=2), producers=3)


@pytest.mark.parametrize("count,producers", [(3, 3), (4, 3), (5, 3), (7, 4)])
def test_split_sums_exactly_to_message_count(count, producers):
    scenario = BASE.with_(message_count=count, arrival_rate=4.0)
    experiment = Experiment(scenario, producers=producers)
    assert experiment.run().produced == count
    shares = [len(member.source.keys) for member in experiment.members]
    assert sum(shares) == count
    assert max(shares) - min(shares) <= 1


def test_fleet_keys_and_producer_ids_are_distinct():
    experiment = Experiment(BASE.with_(message_count=300), producers=3)
    experiment.run()
    key_sets = [member.source.keys for member in experiment.members]
    assert sum(len(keys) for keys in key_sets) == 300
    assert len(set().union(*key_sets)) == 300
    producer_ids = {member.producer.producer_id for member in experiment.members}
    assert len(producer_ids) == 3


def test_fleet_passes_invariants_under_full_telemetry():
    result = run_experiment(
        LOSSY,
        telemetry=TelemetryConfig(trace=True, check_invariants=True),
        producers=3,
    )
    manifest = result.manifest
    assert manifest["produced"] == 300
    assert conservation_violations(manifest) == []
    census = sum(manifest["case_counts"].values()) + manifest["unresolved"]
    assert census == manifest["produced"]


def test_lossy_fleet_reports_census_and_retransmissions():
    result = run_experiment(LOSSY, producers=3)
    assert result.case_fractions
    assert sum(result.case_fractions.values()) == pytest.approx(1.0)
    assert result.retransmissions > 0


def test_jitter_reaches_every_member():
    delayed = BASE.with_(network_delay_s=0.1, arrival_rate=8.0, message_count=300)
    steady = run_experiment(delayed, producers=3)
    jittery = run_experiment(delayed.with_(jitter_s=0.08), producers=3)
    assert jittery.mean_ack_latency_s != steady.mean_ack_latency_s
