"""Producer records and their testbed instrumentation.

The paper's testbed generates source data as messages with an incremental
unique key and a payload of definable length; the content is irrelevant
(Section III-E).  :class:`ProducerRecord` mirrors that: we carry the sizes
and timestamps the simulation needs, never actual payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ProducerRecord", "RecordMetadata"]


@dataclass
class ProducerRecord:
    """A message handed to the producer by an upstream application.

    Attributes
    ----------
    payload_bytes:
        Message size ``M`` in bytes (the payload string length).
    key:
        Unique key used for loss/duplicate reconciliation; whoever creates
        the record (the experiment's sources) allocates it.
    topic:
        Destination topic name.
    source_time:
        Simulated time the upstream application emitted the record.
    ingest_time:
        Simulated time the producer polled it in; the delivery-timeout and
        staleness clocks start here (the paper's "arrives to the producer").
    timeliness_s:
        Validity period ``S``: a delivery that completes more than this long
        after ``ingest_time`` is stale.  ``None`` disables staleness.
    """

    payload_bytes: int
    key: int
    topic: str = "events"
    source_time: float = 0.0
    ingest_time: Optional[float] = None
    timeliness_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.timeliness_s is not None and self.timeliness_s <= 0:
            raise ValueError("timeliness_s must be positive when given")

    def deadline(self, timeout_s: float) -> float:
        """Absolute expiry time given the message-timeout configuration."""
        if self.ingest_time is None:
            raise ValueError("record has not been ingested by a producer yet")
        return self.ingest_time + timeout_s

    def is_stale(self, delivered_at: float) -> bool:
        """Whether a delivery completed at ``delivered_at`` is stale."""
        if self.timeliness_s is None or self.ingest_time is None:
            return False
        return (delivered_at - self.ingest_time) > self.timeliness_s


@dataclass
class RecordMetadata:
    """Broker-side result of appending one record."""

    topic: str
    partition: int
    offset: int
    timestamp: float
