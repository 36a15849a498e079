"""Unit tests for the TCP-like reliable channel."""

import numpy as np
import pytest

from repro.network import (
    BernoulliLoss,
    ConstantLatency,
    FORWARD,
    Link,
    NoLoss,
    REVERSE,
    ReliableChannel,
    SendFailure,
    TransportConfig,
)
from repro.simulation import Simulator


def make_channel(loss_rate=0.0, capacity=1e6, delay=0.001, config=None, seed=5):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    loss = BernoulliLoss(loss_rate) if loss_rate else NoLoss()
    link = Link(sim, rng, capacity_bps=capacity, latency=ConstantLatency(delay), loss=loss)
    channel = ReliableChannel(sim, link, config)
    return sim, link, channel


def test_clean_send_delivers_payload_once():
    sim, _, channel = make_channel()
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append((payload, size)))
    channel.send(FORWARD, 500, payload="hello")
    sim.run()
    assert received == [("hello", 500)]


def test_on_delivered_fires_after_all_acks():
    sim, _, channel = make_channel()
    delivered = []
    channel.send(FORWARD, 500, payload="p", on_delivered=lambda p, rtt: delivered.append(rtt))
    sim.run()
    assert len(delivered) == 1
    assert delivered[0] > 0.0


def test_multi_segment_message_reassembles():
    sim, _, channel = make_channel()
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append(size))
    channel.send(FORWARD, 5000, payload="big")  # several MTU segments
    sim.run()
    assert received == [5000]
    assert channel.stats(FORWARD).segments_sent >= 4


def test_lossy_link_recovers_via_retransmission():
    sim, _, channel = make_channel(loss_rate=0.3)
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append(payload))
    for index in range(30):
        channel.send(FORWARD, 400, payload=index)
    sim.run()
    assert sorted(received) == list(range(30))
    assert channel.stats(FORWARD).retransmissions > 0


def test_retries_exhausted_reports_failure():
    config = TransportConfig(max_retransmits=1)
    sim, _, channel = make_channel(loss_rate=0.97, config=config, seed=11)
    failures = []
    channel.send(
        FORWARD, 400, payload="doomed",
        on_failed=lambda payload, reason: failures.append(reason),
    )
    sim.run()
    assert failures == [SendFailure.RETRIES_EXHAUSTED]


def test_deadline_aborts_send():
    sim, _, channel = make_channel(loss_rate=0.97, seed=13)
    failures = []
    channel.send(
        FORWARD, 400, payload="late",
        deadline=0.5,
        on_failed=lambda payload, reason: failures.append(reason),
    )
    sim.run()
    assert failures == [SendFailure.DEADLINE]
    assert sim.now >= 0.5


def test_expired_deadline_fails_immediately():
    sim, _, channel = make_channel()
    sim.schedule(1.0, lambda: None)
    sim.run()
    failures = []
    channel.send(FORWARD, 100, deadline=0.5, on_failed=lambda p, r: failures.append(r))
    sim.run()
    assert failures == [SendFailure.DEADLINE]


def test_abort_cancels_inflight_send():
    sim, _, channel = make_channel(delay=1.0)
    failures = []
    message_id = channel.send(
        FORWARD, 400, on_failed=lambda payload, reason: failures.append(reason)
    )
    channel.abort(FORWARD, message_id)
    sim.run()
    assert failures == [SendFailure.ABORTED]


def test_duplicate_segments_not_delivered_twice():
    # Heavy ACK loss forces data retransmissions that the receiver dedups.
    sim, link, channel = make_channel(loss_rate=0.4, seed=17)
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append(payload))
    for index in range(20):
        channel.send(FORWARD, 300, payload=index)
    sim.run()
    assert len(received) == len(set(received))


def test_reverse_direction_is_symmetric():
    sim, _, channel = make_channel()
    received = []
    channel.set_receiver(REVERSE, lambda payload, size: received.append(payload))
    channel.send(REVERSE, 200, payload="resp")
    sim.run()
    assert received == ["resp"]


def test_stats_track_message_counts():
    sim, _, channel = make_channel()
    for _ in range(3):
        channel.send(FORWARD, 200)
    sim.run()
    stats = channel.stats(FORWARD)
    assert stats.messages_sent == 3
    assert stats.messages_delivered == 3
    assert stats.messages_failed == 0


def test_rtt_estimator_converges():
    sim, _, channel = make_channel(delay=0.05)
    for _ in range(10):
        channel.send(FORWARD, 200)
    sim.run()
    endpoint = channel._endpoint(FORWARD)
    assert endpoint.srtt is not None
    assert endpoint.srtt == pytest.approx(0.1, rel=0.5)


def test_size_must_be_positive():
    _, _, channel = make_channel()
    with pytest.raises(ValueError):
        channel.send(FORWARD, 0)


def test_transport_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(mtu=10)
    with pytest.raises(ValueError):
        TransportConfig(min_rto_s=1.0, initial_rto_s=0.5)
    with pytest.raises(ValueError):
        TransportConfig(max_retransmits=-1)


def test_unknown_direction_rejected():
    _, _, channel = make_channel()
    with pytest.raises(ValueError):
        channel.send("sideways", 100)


def test_reassembled_messages_leave_no_receiver_state():
    # ACK loss makes senders retransmit segments of messages the receiver
    # already reassembled; those late duplicates must not re-create
    # reassembly state.
    sim, _, channel = make_channel(loss_rate=0.3, seed=19)
    for index in range(60):
        channel.send(FORWARD, 200 if index % 2 else 4000, payload=index)
    sim.run()
    endpoint = channel._endpoint(FORWARD)
    assert channel.stats(FORWARD).duplicate_segments > 0
    assert not set(endpoint.received) & endpoint.completed


# One-segment messages take their own receive path; each failure mode must
# behave exactly as for a multi-segment message.
ONE_AND_MANY_SEGMENTS = pytest.mark.parametrize("size", [200, 4000])


@ONE_AND_MANY_SEGMENTS
def test_lossy_send_retransmits_and_delivers(size):
    sim, _, channel = make_channel(loss_rate=0.3, seed=23)
    received = []
    channel.set_receiver(FORWARD, lambda payload, _size: received.append(payload))
    for index in range(30):
        channel.send(FORWARD, size, payload=index)
    sim.run()
    assert sorted(received) == list(range(30))
    stats = channel.stats(FORWARD)
    assert stats.retransmissions > 0
    # A sender whose every ACK was lost gives up on a delivered message.
    assert stats.messages_delivered + stats.messages_failed == 30


@ONE_AND_MANY_SEGMENTS
def test_exhausted_retries_fail_the_send(size):
    config = TransportConfig(max_retransmits=1)
    sim, _, channel = make_channel(loss_rate=0.97, config=config, seed=11)
    failures = []
    channel.send(FORWARD, size, on_failed=lambda payload, reason: failures.append(reason))
    sim.run()
    assert failures == [SendFailure.RETRIES_EXHAUSTED]
    assert sim.pending_events == 0


@ONE_AND_MANY_SEGMENTS
def test_deadline_fails_the_send(size):
    sim, _, channel = make_channel(loss_rate=0.97, seed=13)
    failures = []
    channel.send(
        FORWARD, size, deadline=0.5,
        on_failed=lambda payload, reason: failures.append(reason),
    )
    sim.run()
    assert failures == [SendFailure.DEADLINE]
    assert channel.stats(FORWARD).messages_failed == 1


@ONE_AND_MANY_SEGMENTS
def test_abort_fails_the_send(size):
    sim, _, channel = make_channel(delay=1.0)
    failures, delivered = [], []
    message_id = channel.send(
        FORWARD, size,
        on_delivered=lambda payload, rtt: delivered.append(payload),
        on_failed=lambda payload, reason: failures.append(reason),
    )
    channel.abort(FORWARD, message_id)
    sim.run()
    assert failures == [SendFailure.ABORTED]
    assert delivered == []
