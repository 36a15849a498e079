"""Performance microbenchmarks of the substrates themselves.

These are classic pytest-benchmark timings (multiple rounds) rather than
reproduction runs: event throughput of the DES kernel, produce round trips
through the full Kafka stack, and ANN training epochs.  They guard the
testbed's own performance — the reproduction sweeps run hundreds of
thousands of simulated messages.
"""

import numpy as np
import pytest

from repro.ann import SGD, build_mlp
from repro.kafka import KafkaCluster, KafkaProducer, ProducerConfig, ProducerRecord
from repro.network import ConstantLatency, Link, ReliableChannel
from repro.simulation import RngRegistry, Simulator
from repro.testbed import Scenario, run_experiment


def test_kernel_event_throughput(benchmark):
    """Schedule-and-fire throughput of the event kernel."""

    def run():
        sim = Simulator()
        count = 20_000

        def chain(remaining):
            if remaining:
                sim.schedule(0.001, chain, remaining - 1)

        chain(count)
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result > 0


def test_kernel_cancel_heavy_throughput(benchmark):
    """Timer churn: every event arms a timeout the next event cancels.

    This is the producer's per-message expiry pattern and the worst case
    for the queue — most heap entries die cancelled, so it exercises the
    lazy-skip path and periodic compaction."""

    def run():
        sim = Simulator()
        count = 20_000
        pending = [None]

        def fire(remaining):
            if pending[0] is not None:
                sim.cancel(pending[0])
            if remaining:
                pending[0] = sim.schedule(5.0, lambda: None)
                sim.schedule(0.001, fire, remaining - 1)

        fire(count)
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result > 0


def test_produce_roundtrip_throughput(benchmark):
    """Full produce→ack cycles through link, transport, broker and log."""

    def run():
        sim = Simulator()
        rng = RngRegistry(1)
        cluster = KafkaCluster(sim)
        topic = cluster.create_topic("bench")
        link = Link(sim, rng.stream("link"), capacity_bps=1e7,
                    latency=ConstantLatency(0.0001))
        channel = ReliableChannel(sim, link)
        producer = KafkaProducer(sim, cluster, channel, topic,
                                 config=ProducerConfig(message_timeout_s=10.0))
        for key in range(500):
            producer.offer(ProducerRecord(payload_bytes=200, key=key))
        producer.finish_input()
        sim.run()
        return producer.stats.acknowledged

    acknowledged = benchmark(run)
    assert acknowledged == 500


def test_experiment_harness_overhead(benchmark):
    """One small end-to-end experiment, the unit of every sweep."""

    scenario = Scenario(message_bytes=200, message_count=500, seed=3,
                        loss_rate=0.1)

    result = benchmark(lambda: run_experiment(scenario))
    assert 0.0 <= result.p_loss <= 1.0


def test_ann_training_epoch(benchmark):
    """One epoch of the paper-topology network on a 512-row batch set."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(512, 6))
    y = rng.uniform(0, 1, size=(512, 2))
    network = build_mlp(6, 2, seed=1)

    def epoch():
        network.fit(x, y, epochs=1, batch_size=32, optimizer=SGD(0.1), rng=rng)
        return True

    assert benchmark(epoch)
