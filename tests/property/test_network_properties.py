"""Property-based tests on the network substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    BernoulliLoss,
    FORWARD,
    GilbertElliottLoss,
    Link,
    NetworkFault,
    ReliableChannel,
)
from repro.simulation import Simulator


@given(
    p_gb=st.floats(min_value=0.001, max_value=0.5),
    p_bg=st.floats(min_value=0.001, max_value=0.5),
    loss_bad=st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_gilbert_elliott_long_run_frequency_matches_theory(p_gb, p_bg, loss_bad):
    model = GilbertElliottLoss(p_gb, p_bg, loss_good=0.0, loss_bad=loss_bad)
    rng = np.random.default_rng(17)
    count = 40_000
    losses = sum(model.is_lost(rng) for _ in range(count))
    expected = model.expected_loss_rate()
    # Losses are a Markov-modulated Bernoulli stream, not i.i.d.: the Bad
    # indicator X has stationary share pi and lag-k autocorrelation
    # lam**k with lam = 1 - p_gb - p_bg, so Var(sum X) ~ n pi (1 - pi)
    # (1 + lam) / (1 - lam).  Given X, each loss adds independent
    # Bernoulli(loss_bad) emission noise of variance pi loss_bad (1 - loss_bad).
    pi_bad = p_gb / (p_gb + p_bg)
    lam = 1.0 - p_gb - p_bg
    variance = (
        loss_bad**2 * pi_bad * (1 - pi_bad) * (1 + lam) / (1 - lam)
        + pi_bad * loss_bad * (1 - loss_bad)
    ) / count
    assert abs(losses / count - expected) < 4 * np.sqrt(variance)


@given(rate=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=15, deadline=None)
def test_fault_build_loss_matches_requested_rate(rate):
    fault = NetworkFault(loss_rate=rate)
    assert fault.build_loss().expected_loss_rate() == rate
    bursty = NetworkFault(loss_rate=rate, bursty=True)
    assert abs(bursty.build_loss().expected_loss_rate() - rate) < 0.02


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=25),
    size=st.integers(min_value=1, max_value=4000),
    loss=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=20, deadline=None)
def test_transport_without_deadline_delivers_or_fails_every_message(
    seed, count, size, loss
):
    """Every send resolves exactly once: delivered or failed, never both."""
    sim = Simulator()
    rng = np.random.default_rng(seed)
    link = Link(sim, rng, capacity_bps=1e6, loss=BernoulliLoss(loss))
    channel = ReliableChannel(sim, link)
    outcomes = {}

    def delivered(payload, rtt):
        assert payload not in outcomes
        outcomes[payload] = "delivered"

    def failed(payload, reason):
        assert payload not in outcomes
        outcomes[payload] = "failed"

    received = []
    channel.set_receiver(FORWARD, lambda payload, n: received.append(payload))
    for index in range(count):
        channel.send(FORWARD, size, payload=index, on_delivered=delivered, on_failed=failed)
    sim.run()
    assert len(outcomes) == count
    # Receiver-side delivery implies no duplicate handoffs.
    assert len(received) == len(set(received))
    # Sender-side "delivered" implies the receiver actually got it.
    for payload, outcome in outcomes.items():
        if outcome == "delivered":
            assert payload in received


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=20),
)
@settings(max_examples=20, deadline=None)
def test_clean_link_conserves_bytes(seed, sizes):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    link = Link(sim, rng, capacity_bps=1e9, max_queue_delay_s=1e6)
    channel = ReliableChannel(sim, link)
    received_sizes = []
    channel.set_receiver(FORWARD, lambda payload, n: received_sizes.append(n))
    for size in sizes:
        channel.send(FORWARD, size)
    sim.run()
    assert sorted(received_sizes) == sorted(sizes)
