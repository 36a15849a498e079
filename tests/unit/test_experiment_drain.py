"""The experiment's always-on drain check and its fingerprinted errors."""

import pytest

from repro.kafka import DeliverySemantics, KafkaProducer, ProducerConfig
from repro.testbed import Experiment, Scenario
from repro.testbed.cache import default_salt, scenario_fingerprint


def _scenario(semantics=DeliverySemantics.AT_LEAST_ONCE):
    return Scenario(
        message_count=60, seed=3, config=ProducerConfig(semantics=semantics)
    )


@pytest.mark.parametrize(
    "semantics", [DeliverySemantics.AT_LEAST_ONCE, DeliverySemantics.AT_MOST_ONCE]
)
def test_drained_run_leaves_every_producer_settled(semantics):
    experiment = Experiment(_scenario(semantics), producers=2)
    experiment.run()
    for member in experiment.members:
        assert member.producer.done
        assert member.producer.outstanding == 0
        assert member.producer.in_flight == 0


@pytest.mark.parametrize(
    "semantics", [DeliverySemantics.AT_LEAST_ONCE, DeliverySemantics.AT_MOST_ONCE]
)
def test_leaked_window_slot_fails_the_run_with_its_fingerprint(monkeypatch, semantics):
    scenario = _scenario(semantics)
    monkeypatch.setattr(KafkaProducer, "_release_slot", lambda self: None)
    with pytest.raises(RuntimeError, match="did not drain") as raised:
        Experiment(scenario).run()
    assert scenario_fingerprint(scenario, default_salt()) in str(raised.value)
    assert "in_flight=" in str(raised.value)


def test_event_budget_error_names_the_scenario(monkeypatch):
    scenario = _scenario()
    monkeypatch.setattr(Experiment, "MAX_EVENTS", 50)
    with pytest.raises(RuntimeError, match="event budget") as raised:
        Experiment(scenario).run()
    assert scenario_fingerprint(scenario, default_salt()) in str(raised.value)
