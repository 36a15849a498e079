"""Configuration surfaces of the simulated Kafka deployment.

:class:`ProducerConfig` carries exactly the tunables the paper selects as
prediction features (Section III-D) plus the secondary knobs (retries,
backoff, in-flight window) the paper holds at Kafka-like defaults.
:class:`HardwareProfile` pins the fixed machine resources the paper assumes
("we study how to obtain the best configuration in a scenario with a given
machine of fixed resources"); all reliability phenomena are driven by the
*ratios* between these constants, so they are expressed in a scaled-down
unit system that keeps discrete-event counts tractable (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .semantics import DeliverySemantics

__all__ = ["ProducerConfig", "BrokerConfig", "HardwareProfile", "DEFAULT_PRODUCER_CONFIG"]


@dataclass(frozen=True)
class ProducerConfig:
    """Producer tunables (the ``Confs`` of paper Eq. 1).

    Attributes
    ----------
    semantics:
        Delivery semantics (feature *e*); maps to ``acks``/``retries``.
    batch_size:
        ``B``, messages accumulated per produce request (feature *f*).
    polling_interval_s:
        ``δ``, seconds between polls of the upstream source (feature *g*);
        0 ingests as fast as the source and I/O allow.
    message_timeout_s:
        ``T_o``, the total delivery timeout per message including retries
        (feature *h*; Kafka's ``delivery.timeout.ms``).
    request_timeout_s:
        Time to wait for a broker response before an application-level
        retry (Kafka's ``request.timeout.ms``).
    retry_backoff_s:
        Pause before each application-level retry.
    max_retries:
        τ_r bound; ignored under at-most-once.
    max_in_flight:
        Bound on unacknowledged produce requests (back-pressure window);
        only effective when the semantics waits for acks.
    linger_s:
        Maximum time a partial batch may wait for more messages before
        being sent anyway (Kafka's ``linger.ms``).
    queue_capacity:
        Bound on the producer's accumulator queue; ``None`` = unbounded.
    """

    semantics: DeliverySemantics = DeliverySemantics.AT_LEAST_ONCE
    batch_size: int = 1
    polling_interval_s: float = 0.0
    message_timeout_s: float = 3.0
    request_timeout_s: float = 2.5
    retry_backoff_s: float = 0.05
    max_retries: int = 10
    max_in_flight: int = 5
    linger_s: float = 0.01
    queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.polling_interval_s < 0:
            raise ValueError("polling_interval_s must be >= 0")
        if self.message_timeout_s <= 0:
            raise ValueError("message_timeout_s must be positive")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.linger_s < 0:
            raise ValueError("linger_s must be >= 0")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 or None")

    @property
    def effective_retries(self) -> int:
        """Retries actually performed given the semantics."""
        return self.max_retries if self.semantics.retries_allowed else 0

    def with_(self, **changes) -> "ProducerConfig":
        """Return a copy with the given fields replaced."""
        if "semantics" in changes:
            changes["semantics"] = DeliverySemantics.parse(changes["semantics"])
        return replace(self, **changes)


#: Kafka-like out-of-the-box settings used as the "Default" column of the
#: paper's Table II: streaming mode (no batching), at-least-once with a
#: short message timeout and full-speed polling.
DEFAULT_PRODUCER_CONFIG = ProducerConfig(
    semantics=DeliverySemantics.AT_LEAST_ONCE,
    batch_size=1,
    polling_interval_s=0.0,
    message_timeout_s=1.5,
    request_timeout_s=1.0,
)


@dataclass(frozen=True)
class BrokerConfig:
    """Broker-side tunables.

    Attributes
    ----------
    processing_time_s:
        Fixed request handling latency (validation, indexing).
    append_bytes_per_s:
        Log append throughput; adds size-proportional latency.
    replication_factor:
        Copies per partition across the cluster.
    acks_all_extra_s:
        Extra latency per request when the producer requires
        acknowledgement from all in-sync replicas.
    """

    processing_time_s: float = 0.002
    append_bytes_per_s: float = 50e6
    replication_factor: int = 3
    acks_all_extra_s: float = 0.004

    def __post_init__(self) -> None:
        if self.processing_time_s < 0:
            raise ValueError("processing_time_s must be >= 0")
        if self.append_bytes_per_s <= 0:
            raise ValueError("append_bytes_per_s must be positive")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.acks_all_extra_s < 0:
            raise ValueError("acks_all_extra_s must be >= 0")


@dataclass(frozen=True)
class HardwareProfile:
    """Fixed machine resources of the producer host and its network.

    The unit system is scaled so that full-load message rates sit in the
    tens-to-hundreds per second, keeping event counts manageable; every
    figure of the paper depends on ratios (arrival/service, offered
    load/capacity), not on absolute rates.

    Attributes
    ----------
    io_bytes_per_s:
        Peak source read bandwidth; at full load (δ=0) the producer ingests
        messages at ``io_bytes_per_s / M`` during source bursts.
    ack_overhead_factor:
        Full-load ingest slowdown when the producer also processes broker
        responses (at-least-once); the paper's overloaded acks=0 producer
        reads faster than its acks=1 twin because it spends no cycles on
        response handling.
    serialization_base_s:
        Fixed per-message processing cost (key assignment, callbacks).
    serialization_bytes_per_s:
        Byte-proportional serialisation throughput.
    batch_overhead_s:
        Fixed per-request assembly cost, amortised over a batch.
    request_overhead_bytes:
        Protocol framing bytes added to every produce request (topic and
        partition metadata, record-batch headers) — the fixed cost that
        batching amortises.
    response_bytes:
        Size of a produce response message.
    socket_window_requests:
        TCP flow-control analogue for the fire-and-forget producer: how
        many produce requests may sit unacknowledged in the socket before
        further sends wait in the accumulator.
    socket_buffer_bytes:
        Byte-based in-flight cap (the socket send buffer / bandwidth-delay
        window).  Applies to both semantics on top of the request-count
        window; it is what keeps a handful of large requests from flooding
        the link queue.
    link_capacity_bps:
        Link serialisation capacity in bytes/second (per direction).
    link_base_delay_s:
        One-way propagation delay with no fault injected.
    source_burst_on_s / source_burst_off_s:
        The fully-loaded source alternates between reading at peak I/O rate
        and pausing (page cache misses, upstream batching); this burstiness
        is what makes the message-timeout knee of paper Fig. 5 possible.
    """

    io_bytes_per_s: float = 40_000.0
    ack_overhead_factor: float = 0.6
    serialization_base_s: float = 0.012
    serialization_bytes_per_s: float = 120_000.0
    batch_overhead_s: float = 0.004
    request_overhead_bytes: int = 200
    response_bytes: int = 150
    socket_window_requests: int = 12
    socket_buffer_bytes: int = 3_000
    link_capacity_bps: float = 7_500.0
    link_base_delay_s: float = 0.0005
    source_burst_on_s: float = 0.12
    source_burst_off_s: float = 1.88

    def __post_init__(self) -> None:
        positive = [
            ("io_bytes_per_s", self.io_bytes_per_s),
            ("serialization_bytes_per_s", self.serialization_bytes_per_s),
            ("link_capacity_bps", self.link_capacity_bps),
            ("source_burst_on_s", self.source_burst_on_s),
            ("socket_window_requests", self.socket_window_requests),
        ]
        for name, value in positive:
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.ack_overhead_factor <= 1:
            raise ValueError("ack_overhead_factor must be in (0, 1]")
        if self.source_burst_off_s < 0:
            raise ValueError("source_burst_off_s must be >= 0")

    def serialization_time_s(self, total_bytes: int, messages: int = 1) -> float:
        """CPU time to serialise ``messages`` totalling ``total_bytes``."""
        return (
            self.serialization_base_s * messages
            + total_bytes / self.serialization_bytes_per_s
            + self.batch_overhead_s
        )

    def full_load_rate(self, message_bytes: int, waits_for_ack: bool) -> float:
        """Peak ingest rate (messages/s) at δ=0 during a source burst."""
        rate = self.io_bytes_per_s / message_bytes
        if waits_for_ack:
            rate *= self.ack_overhead_factor
        return rate
