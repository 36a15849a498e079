"""A TCP-like reliable message transport over a lossy :class:`Link`.

Kafka speaks a binary protocol over TCP, and every reliability phenomenon
the paper reports is mediated by this layer: retransmissions mask moderate
loss, retransmission and acknowledgement traffic compete with fresh data
for bandwidth, and retransmission delay pushes messages past their
delivery timeout.  This module implements the minimum mechanism that
yields those behaviours faithfully:

* segmentation of a message into MTU-sized packets,
* per-segment cumulative-free ACKs (one ACK packet per data segment),
* Jacobson/Karn adaptive RTO with exponential backoff,
* a bounded retransmission budget and an optional per-message deadline,
* receiver-side deduplication and in-order-agnostic reassembly.

It deliberately omits congestion windows: the paper's Docker bridge runs
over loopback where loss is injected by NetEm, not by congestion control,
and NetEm loss does not trigger meaningful cwnd collapse on loopback RTTs.
Contention effects instead emerge from the finite link capacity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

from ..observability.metrics import DEFAULT_LATENCY_BUCKETS
from ..observability.trace import EventKind
from ..simulation.events import Event
from ..simulation.simulator import Simulator
from .link import FORWARD, Link, REVERSE
from .packet import ACK_PACKET_BYTES, DEFAULT_MTU, Packet, PacketKind, WIRE_HEADER_BYTES

__all__ = [
    "TransportConfig",
    "TransportStats",
    "ReliableChannel",
    "SendFailure",
]


@dataclass
class TransportConfig:
    """Tunables of the TCP-like transport.

    Attributes
    ----------
    mtu:
        Maximum payload bytes per packet (excluding the wire header).
    initial_rto_s:
        Retransmission timeout before any RTT measurement exists.
    min_rto_s / max_rto_s:
        Clamp on the adaptive RTO.
    rto_backoff:
        Multiplicative RTO backoff per retransmission of a segment.
    max_retransmits:
        Retransmissions per segment before the whole message send fails.
    """

    mtu: int = DEFAULT_MTU
    initial_rto_s: float = 0.3
    min_rto_s: float = 0.2
    max_rto_s: float = 4.0
    rto_backoff: float = 2.0
    max_retransmits: int = 5

    def __post_init__(self) -> None:
        if self.mtu <= WIRE_HEADER_BYTES:
            raise ValueError("mtu must exceed the wire header size")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be non-negative")
        if not (0 < self.min_rto_s <= self.initial_rto_s <= self.max_rto_s):
            raise ValueError("require 0 < min_rto <= initial_rto <= max_rto")


@dataclass
class TransportStats:
    """Counters for one channel direction."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_failed: int = 0
    segments_sent: int = 0
    retransmissions: int = 0
    acks_received: int = 0
    duplicate_segments: int = 0


class SendFailure:
    """Reasons a message send can fail."""

    RETRIES_EXHAUSTED = "retries_exhausted"
    DEADLINE = "deadline"
    ABORTED = "aborted"


class _OutstandingMessage:
    """Sender-side bookkeeping for one in-flight message."""

    __slots__ = (
        "message_id",
        "payload",
        "size_bytes",
        "total_segments",
        "acked",
        "timers",
        "deadline_event",
        "on_delivered",
        "on_failed",
        "failed",
        "delivered",
        "start_time",
    )

    def __init__(
        self,
        message_id: int,
        payload: Any,
        size_bytes: int,
        total_segments: int,
        on_delivered: Optional[Callable[[Any, float], None]],
        on_failed: Optional[Callable[[Any, str], None]],
        start_time: float,
    ) -> None:
        self.message_id = message_id
        self.payload = payload
        self.size_bytes = size_bytes
        self.total_segments = total_segments
        self.acked: Set[int] = set()
        self.timers: Dict[int, Event] = {}
        self.deadline_event: Optional[Event] = None
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        self.failed = False
        self.delivered = False
        self.start_time = start_time


class _DirectionEndpoint:
    """Sender state, receiver state and stats for one channel direction.

    ``on_data`` and ``on_ack`` are the link arrival callbacks of this
    direction's data segments and of their ACKs; the channel binds them
    once, so sending a segment allocates no callback.
    """

    __slots__ = (
        "direction",
        "reverse",
        "on_data",
        "on_ack",
        "outstanding",
        "received",
        "completed",
        "receiver",
        "srtt",
        "rttvar",
        "min_rtt",
        "stats",
    )

    def __init__(self, direction: str, reverse: str) -> None:
        self.direction = direction
        self.reverse = reverse
        self.on_data: Callable[[Packet], None]
        self.on_ack: Callable[[Packet], None]
        self.outstanding: Dict[int, _OutstandingMessage] = {}
        self.received: Dict[int, Set[int]] = {}
        self.completed: Set[int] = set()
        self.receiver: Optional[Callable[[Any, int], None]] = None
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.min_rtt: Optional[float] = None
        self.stats = TransportStats()


class ReliableChannel:
    """Bidirectional reliable message channel between producer and cluster.

    Messages sent ``FORWARD`` travel producer → cluster; their ACKs travel
    back on the ``REVERSE`` direction of the underlying link (and therefore
    compete with application traffic flowing that way), and vice versa.

    Use :meth:`set_receiver` to register the application-level handler for
    each direction, then :meth:`send`.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        config: Optional[TransportConfig] = None,
        telemetry=None,
    ) -> None:
        self._sim = sim
        self._link = link
        self.config = config if config is not None else TransportConfig()
        self._endpoints: Dict[str, _DirectionEndpoint] = {
            FORWARD: self._bind_endpoint(FORWARD, REVERSE),
            REVERSE: self._bind_endpoint(REVERSE, FORWARD),
        }
        # Message ids only need to be unique between this channel's two
        # endpoints, so the channel owns their sequence.
        self._message_ids = itertools.count()
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is not None:
            self._rtt_hist = telemetry.metrics.histogram(
                "transport.rtt_s", DEFAULT_LATENCY_BUCKETS
            )
        else:
            self._rtt_hist = None

    # ------------------------------------------------------------------ api

    def set_receiver(self, direction: str, callback: Callable[[Any, int], None]) -> None:
        """Register ``callback(payload, size_bytes)`` for completed messages."""
        self._endpoint(direction).receiver = callback

    def stats(self, direction: str) -> TransportStats:
        """Return the sender-side stats of ``direction``."""
        return self._endpoint(direction).stats

    def minimum_rtt(self, direction: str) -> Optional[float]:
        """Smallest first-attempt RTT observed (filters queueing delay)."""
        return self._endpoint(direction).min_rtt

    def send(
        self,
        direction: str,
        size_bytes: int,
        payload: Any = None,
        deadline: Optional[float] = None,
        on_delivered: Optional[Callable[[Any, float], None]] = None,
        on_failed: Optional[Callable[[Any, str], None]] = None,
    ) -> int:
        """Send an application message of ``size_bytes`` payload bytes.

        Parameters
        ----------
        direction:
            ``FORWARD`` (producer → cluster) or ``REVERSE``.
        size_bytes:
            Application bytes; wire overhead is added per segment.
        payload:
            Opaque object handed to the receiver callback on completion.
        deadline:
            Absolute simulated time after which the send is abandoned.
        on_delivered:
            Sender-side callback ``(payload, rtt_s)`` once every segment has
            been acknowledged.
        on_failed:
            Sender-side callback ``(payload, reason)`` on failure.

        Returns the transport message id.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        endpoint = self._endpoint(direction)
        message_id = next(self._message_ids)
        payload_per_segment = self.config.mtu - WIRE_HEADER_BYTES
        total_segments = max(1, -(-size_bytes // payload_per_segment))
        message = _OutstandingMessage(
            message_id, payload, size_bytes, total_segments, on_delivered, on_failed, self._sim.now
        )
        endpoint.outstanding[message_id] = message
        endpoint.stats.messages_sent += 1
        if deadline is not None:
            if deadline <= self._sim.now:
                # Already expired: fail on the next event tick for causality.
                self._sim.schedule(0.0, self._fail, endpoint, message, SendFailure.DEADLINE)
                return message_id
            message.deadline_event = self._sim.schedule_at(
                deadline, self._fail, endpoint, message, SendFailure.DEADLINE
            )
        remaining = size_bytes
        for index in range(total_segments):
            seg_payload = min(payload_per_segment, remaining)
            remaining -= seg_payload
            self._transmit_segment(endpoint, message, index, seg_payload + WIRE_HEADER_BYTES, 0)
        return message_id

    def abort(self, direction: str, message_id: int) -> None:
        """Abandon an in-flight send (e.g. the producer gave up on it)."""
        endpoint = self._endpoint(direction)
        message = endpoint.outstanding.get(message_id)
        if message is not None:
            self._fail(endpoint, message, SendFailure.ABORTED)

    # ------------------------------------------------------------ internals

    def _bind_endpoint(self, direction: str, reverse: str) -> _DirectionEndpoint:
        """One direction's endpoint, its arrival callbacks bound once."""
        endpoint = _DirectionEndpoint(direction, reverse)

        def on_data(packet: Packet) -> None:
            self._on_data(endpoint, packet)

        def on_ack(packet: Packet) -> None:
            self._on_ack(endpoint, packet)

        endpoint.on_data = on_data
        endpoint.on_ack = on_ack
        return endpoint

    def _endpoint(self, direction: str) -> _DirectionEndpoint:
        try:
            return self._endpoints[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None

    def _rto(self, endpoint: _DirectionEndpoint, attempt: int) -> float:
        if endpoint.srtt is None:
            base = self.config.initial_rto_s
        else:
            base = endpoint.srtt + 4.0 * endpoint.rttvar
        base = min(max(base, self.config.min_rto_s), self.config.max_rto_s)
        return min(base * (self.config.rto_backoff**attempt), self.config.max_rto_s * 4)

    def _transmit_segment(
        self,
        endpoint: _DirectionEndpoint,
        message: _OutstandingMessage,
        index: int,
        wire_bytes: int,
        attempt: int,
    ) -> None:
        if message.failed or message.delivered or index in message.acked:
            return
        stats = endpoint.stats
        stats.segments_sent += 1
        if attempt > 0:
            stats.retransmissions += 1
            if self._tracer is not None:
                self._tracer.emit(
                    EventKind.RETRANSMIT,
                    self._sim.now,
                    direction=endpoint.direction,
                    message_id=message.message_id,
                    segment=index,
                    attempt=attempt,
                )
        packet = Packet(
            PacketKind.DATA,
            wire_bytes,
            message.message_id,
            index,
            (message.payload, message.total_segments, message.size_bytes),
            attempt,
        )
        self._link.send(packet, endpoint.direction, endpoint.on_data)
        rto = self._rto(endpoint, attempt)
        message.timers[index] = self._sim.schedule(
            rto, self._on_rto, endpoint, message, index, wire_bytes, attempt
        )

    def _on_rto(
        self,
        endpoint: _DirectionEndpoint,
        message: _OutstandingMessage,
        index: int,
        wire_bytes: int,
        attempt: int,
    ) -> None:
        if message.failed or message.delivered or index in message.acked:
            return
        if attempt + 1 > self.config.max_retransmits:
            self._fail(endpoint, message, SendFailure.RETRIES_EXHAUSTED)
            return
        self._transmit_segment(endpoint, message, index, wire_bytes, attempt + 1)

    def _on_data(self, endpoint: _DirectionEndpoint, packet: Packet) -> None:
        """A data segment arrived at the receiver of ``endpoint``'s direction."""
        payload, total_segments, size_bytes = packet.payload
        message_id = packet.message_id
        index = packet.segment_index
        # Completed messages are checked first, so a late duplicate of a
        # reassembled message leaves no receiver state behind.
        complete = False
        if message_id in endpoint.completed:
            endpoint.stats.duplicate_segments += 1
        elif total_segments == 1:
            complete = True
        else:
            seen = endpoint.received.setdefault(message_id, set())
            if index in seen:
                endpoint.stats.duplicate_segments += 1
            else:
                seen.add(index)
                if len(seen) == total_segments:
                    complete = True
                    del endpoint.received[message_id]
        # Always acknowledge, even duplicates (the earlier ACK may be lost).
        ack = Packet(PacketKind.ACK, ACK_PACKET_BYTES, message_id, index, None, packet.attempt)
        self._link.send(ack, endpoint.reverse, endpoint.on_ack)
        if complete:
            endpoint.completed.add(message_id)
            if endpoint.receiver is not None:
                endpoint.receiver(payload, size_bytes)

    def _on_ack(self, endpoint: _DirectionEndpoint, packet: Packet) -> None:
        """An ACK for a segment sent in ``endpoint``'s direction returned."""
        message = endpoint.outstanding.get(packet.message_id)
        if message is None or message.failed or message.delivered:
            return
        endpoint.stats.acks_received += 1
        if packet.segment_index in message.acked:
            return
        message.acked.add(packet.segment_index)
        timer = message.timers.pop(packet.segment_index, None)
        if timer is not None:
            self._sim.cancel(timer)
        # Karn's rule: only sample RTT from first-attempt segments.
        if packet.attempt == 0:
            sample = self._sim.now - message.start_time
            if self._rtt_hist is not None:
                self._rtt_hist.observe(sample)
            if endpoint.min_rtt is None or sample < endpoint.min_rtt:
                endpoint.min_rtt = sample
            if endpoint.srtt is None:
                endpoint.srtt = sample
                endpoint.rttvar = sample / 2.0
            else:
                endpoint.rttvar = 0.75 * endpoint.rttvar + 0.25 * abs(endpoint.srtt - sample)
                endpoint.srtt = 0.875 * endpoint.srtt + 0.125 * sample
        if len(message.acked) == message.total_segments:
            self._complete(endpoint, message)

    def _complete(self, endpoint: _DirectionEndpoint, message: _OutstandingMessage) -> None:
        message.delivered = True
        self._clear_timers(message)
        endpoint.outstanding.pop(message.message_id, None)
        endpoint.stats.messages_delivered += 1
        if message.on_delivered is not None:
            message.on_delivered(message.payload, self._sim.now - message.start_time)

    def _fail(
        self, endpoint: _DirectionEndpoint, message: _OutstandingMessage, reason: str
    ) -> None:
        if message.failed or message.delivered:
            return
        message.failed = True
        self._clear_timers(message)
        endpoint.outstanding.pop(message.message_id, None)
        endpoint.stats.messages_failed += 1
        if self._tracer is not None:
            self._tracer.emit(
                EventKind.TRANSPORT_FAIL,
                self._sim.now,
                direction=endpoint.direction,
                message_id=message.message_id,
                reason=reason,
            )
        if message.on_failed is not None:
            message.on_failed(message.payload, reason)

    def _clear_timers(self, message: _OutstandingMessage) -> None:
        for timer in message.timers.values():
            self._sim.cancel(timer)
        message.timers.clear()
        if message.deadline_event is not None:
            self._sim.cancel(message.deadline_event)
            message.deadline_event = None
