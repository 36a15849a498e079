"""Producer performance model — the authors' HPCC'19 queueing model [6].

The weighted KPI (paper Eq. 2) needs two performance metrics that are
*predictable from the configuration alone* under normal network
conditions: the mean service rate μ of the producer and the utilisation φ
of the network bandwidth.  Reference [6] models the producer as a
queueing station whose service time is the sum of a serialisation stage
and a network/acknowledgement stage; we re-derive that structure against
our hardware profile so that predicted and simulated performance come
from the same constants.

All formulas assume the normal-network regime (the paper evaluates φ and
μ "under normal circumstances, i.e. good network connection").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..kafka.config import BrokerConfig, HardwareProfile, ProducerConfig
from ..network.packet import ACK_PACKET_BYTES, DEFAULT_MTU, WIRE_HEADER_BYTES

__all__ = ["PerformanceEstimate", "ProducerPerformanceModel"]


@dataclass(frozen=True)
class PerformanceEstimate:
    """Predicted performance of one producer configuration.

    Attributes
    ----------
    service_rate:
        μ — messages per second the producer can sustain.
    service_rate_norm:
        μ scaled into [0, 1] against the hardware's serialisation ceiling
        (the fastest any configuration could go); this is the μ term used
        in the weighted KPI, which needs commensurable [0, 1] summands.
    bandwidth_utilization:
        φ — fraction of link capacity consumed at the offered arrival
        rate (capped at 1).
    mean_latency_s:
        Expected time from ingest to acknowledgement for a message under
        the M/D/1 approximation (staleness estimates build on this).
    """

    service_rate: float
    service_rate_norm: float
    bandwidth_utilization: float
    mean_latency_s: float


class ProducerPerformanceModel:
    """Queueing-based predictor of (φ, μ) per configuration.

    Parameters
    ----------
    hardware:
        The fixed machine/network resources (same object the testbed uses,
        so predictions and simulations share constants).
    broker:
        Broker timing, part of the request round trip.
    """

    #: Capacity of the per-configuration prediction memo.
    PREDICT_CACHE_CAPACITY = 4096

    def __init__(
        self,
        hardware: HardwareProfile = HardwareProfile(),
        broker: BrokerConfig = BrokerConfig(),
    ) -> None:
        self.hardware = hardware
        self.broker = broker
        # The model is pure: (config, message_bytes, network_delay_s) fully
        # determines the estimate, and ProducerConfig is frozen/hashable,
        # so memoising is safe for the model's lifetime.  Config searches
        # revisit the same candidates every round — this turns those
        # re-evaluations into dict hits.
        self._predict_cache: Dict[
            Tuple[ProducerConfig, int, float], PerformanceEstimate
        ] = {}

    # ------------------------------------------------------------ pieces

    def serialization_time_per_message(self, message_bytes: int, batch_size: int) -> float:
        """CPU stage: per-message share of serialising one batch."""
        batch_bytes = message_bytes * batch_size
        return self.hardware.serialization_time_s(batch_bytes, batch_size) / batch_size

    def request_segments(self, message_bytes: int, batch_size: int) -> int:
        """TCP segments one produce request needs."""
        application_bytes = (
            message_bytes * batch_size + self.hardware.request_overhead_bytes
        )
        per_segment = DEFAULT_MTU - WIRE_HEADER_BYTES
        return max(1, -(-application_bytes // per_segment))

    def request_wire_bytes(self, message_bytes: int, batch_size: int) -> int:
        """Bytes one produce request occupies on the wire (all segments)."""
        segments = self.request_segments(message_bytes, batch_size)
        return (
            message_bytes * batch_size
            + self.hardware.request_overhead_bytes
            + segments * WIRE_HEADER_BYTES
        )

    def round_trip_bytes(self, message_bytes: int, batch_size: int, waits_for_ack: bool) -> int:
        """All bytes a request's round trip puts on the (shared) link.

        Each data segment is acknowledged at the transport level; the
        application response (when acks are required) rides one further
        segment with its own acknowledgement.
        """
        segments = self.request_segments(message_bytes, batch_size)
        total = self.request_wire_bytes(message_bytes, batch_size)
        total += segments * ACK_PACKET_BYTES
        if waits_for_ack:
            total += (
                self.hardware.response_bytes
                + WIRE_HEADER_BYTES
                + ACK_PACKET_BYTES
            )
        return total

    def request_round_trip_s(
        self, message_bytes: int, batch_size: int, waits_for_ack: bool, network_delay_s: float = 0.0
    ) -> float:
        """Latency of one request cycle on an idle link."""
        wire = self.round_trip_bytes(message_bytes, batch_size, waits_for_ack)
        transmission = wire / self.hardware.link_capacity_bps
        propagation = 2.0 * (self.hardware.link_base_delay_s + network_delay_s)
        broker = self.broker.processing_time_s + (
            message_bytes * batch_size / self.broker.append_bytes_per_s
        )
        if waits_for_ack and self.broker.replication_factor > 1:
            broker += self.broker.acks_all_extra_s
        return transmission + propagation + broker

    # ----------------------------------------------------------- headline

    def service_rate(
        self,
        config: ProducerConfig,
        message_bytes: int,
        network_delay_s: float = 0.0,
    ) -> float:
        """μ: sustainable messages/second for this configuration.

        The producer pipeline is limited by the slowest of three stages:
        serialisation (CPU), the in-flight window over the request round
        trip, and the link's byte capacity.
        """
        waits = config.semantics.waits_for_ack
        batch = config.batch_size
        cpu_rate = 1.0 / self.serialization_time_per_message(message_bytes, batch)
        round_trip = self.request_round_trip_s(
            message_bytes, batch, waits, network_delay_s
        )
        window = (
            config.max_in_flight
            if waits
            else self.hardware.socket_window_requests
        )
        window = min(
            window,
            max(
                1,
                int(
                    self.hardware.socket_buffer_bytes
                    // self.request_wire_bytes(message_bytes, batch)
                )
                or 1,
            ),
        )
        if window == 1:
            # A single-request window cannot overlap serialisation with the
            # network round trip: the stages run as one serial cycle.
            cycle = round_trip + self.hardware.serialization_time_s(
                message_bytes * batch, batch
            )
            window_rate = batch / cycle
        else:
            window_rate = window * batch / round_trip
        link_rate = (
            self.hardware.link_capacity_bps
            * batch
            / self.round_trip_bytes(message_bytes, batch, waits)
        )
        return min(cpu_rate, window_rate, link_rate)

    def arrival_rate(self, config: ProducerConfig, message_bytes: int) -> float:
        """λ: the mean offered rate under the paper's source disciplines."""
        if config.polling_interval_s > 0:
            return 1.0 / config.polling_interval_s
        peak = self.hardware.full_load_rate(
            message_bytes, config.semantics.waits_for_ack
        )
        on = self.hardware.source_burst_on_s
        off = self.hardware.source_burst_off_s
        return peak * on / (on + off)

    def predict(
        self,
        config: ProducerConfig,
        message_bytes: int,
        network_delay_s: float = 0.0,
    ) -> PerformanceEstimate:
        """Predict (φ, μ, latency) for one configuration (memoised)."""
        if message_bytes < 1:
            raise ValueError("message_bytes must be >= 1")
        key = (config, message_bytes, network_delay_s)
        cached = self._predict_cache.get(key)
        if cached is not None:
            return cached
        estimate = self._predict_uncached(config, message_bytes, network_delay_s)
        if len(self._predict_cache) >= self.PREDICT_CACHE_CAPACITY:
            self._predict_cache.clear()
        self._predict_cache[key] = estimate
        return estimate

    def _predict_uncached(
        self,
        config: ProducerConfig,
        message_bytes: int,
        network_delay_s: float,
    ) -> PerformanceEstimate:
        mu = self.service_rate(config, message_bytes, network_delay_s)
        lam = self.arrival_rate(config, message_bytes)
        throughput = min(lam, mu)
        wire_per_message = self.round_trip_bytes(
            message_bytes, config.batch_size, config.semantics.waits_for_ack
        ) / config.batch_size
        phi = min(1.0, throughput * wire_per_message / self.hardware.link_capacity_bps)
        # Normalise μ by the serialisation ceiling at B=1 — the fastest the
        # machine could ever serve this message size.
        ceiling = 1.0 / self.serialization_time_per_message(message_bytes, 1)
        mu_norm = min(1.0, mu / ceiling)
        # M/D/1 waiting time approximation for the latency estimate.
        rho = min(0.999, lam / mu) if mu > 0 else 0.999
        service_s = 1.0 / mu
        wait_s = (rho * service_s) / (2.0 * (1.0 - rho))
        latency = service_s + wait_s + self.request_round_trip_s(
            message_bytes, config.batch_size, config.semantics.waits_for_ack, network_delay_s
        )
        return PerformanceEstimate(
            service_rate=mu,
            service_rate_norm=mu_norm,
            bandwidth_utilization=phi,
            mean_latency_s=latency,
        )
