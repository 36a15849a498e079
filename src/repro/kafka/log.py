"""Append-only partition log.

The log is one flat list of :class:`LogEntry` records -- the unique key,
the payload size and append timestamp -- indexed by offset.  Kafka rolls
its logs into segment files so retention can delete old data; the paper's
experiments start each run on a fresh topic and read it back in full, so
nothing is ever deleted and the list index *is* the offset.  Retries of an
already-persisted message append again (Kafka brokers do not deduplicate
non-idempotent producers), which is exactly how the paper's duplicate
failures materialise in the topic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

__all__ = ["LogEntry", "PartitionLog"]


class LogEntry(NamedTuple):
    """One persisted record.

    Immutable, so the leader and every in-sync follower store the same
    object; a tuple builds several times faster than a frozen dataclass.
    """

    offset: int
    key: int
    payload_bytes: int
    timestamp: float
    producer_id: Optional[int] = None
    sequence: Optional[int] = None


class PartitionLog:
    """The append-only log backing one partition."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        # Idempotent-producer state: highest sequence seen per producer id.
        self._producer_sequences: Dict[int, int] = {}

    @property
    def next_offset(self) -> int:
        """Log end offset."""
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def append(
        self,
        key: int,
        payload_bytes: int,
        timestamp: float,
        producer_id: Optional[int] = None,
        sequence: Optional[int] = None,
    ) -> Optional[int]:
        """Append a record and return its offset.

        When ``producer_id``/``sequence`` are given (idempotent producer),
        a duplicate or out-of-date sequence is silently discarded and
        ``None`` is returned — Kafka's exactly-once fencing.
        """
        entry = self.append_entry(
            LogEntry(self.next_offset, key, payload_bytes, timestamp, producer_id, sequence)
        )
        return None if entry is None else entry.offset

    def append_entry(self, entry: LogEntry) -> Optional[LogEntry]:
        """Append the record ``entry`` describes; return the stored entry.

        Entries are immutable, so a partition builds one per record and
        hands the same object to every replica log whose end offset
        matches.  A log whose end offset differs (its history diverged,
        e.g. around a leader election) stores its own copy at its own
        offset.  Each log applies its own idempotence fencing and returns
        ``None`` for a fenced duplicate.
        """
        producer_id = entry.producer_id
        sequence = entry.sequence
        if producer_id is not None and sequence is not None:
            last = self._producer_sequences.get(producer_id)
            if last is not None and sequence <= last:
                return None
            self._producer_sequences[producer_id] = sequence
        offset = len(self._entries)
        if entry.offset != offset:
            entry = LogEntry(
                offset, entry.key, entry.payload_bytes, entry.timestamp, producer_id, sequence
            )
        self._entries.append(entry)
        return entry

    def read(self, start_offset: int = 0, max_entries: Optional[int] = None) -> List[LogEntry]:
        """Read entries from ``start_offset`` (inclusive), oldest first."""
        if start_offset < 0:
            raise ValueError("start_offset must be >= 0")
        end = None if max_entries is None else start_offset + max_entries
        return self._entries[start_offset:end]

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def key_counts(self) -> Dict[int, int]:
        """Occurrences of each unique key (the reconciliation primitive)."""
        counts: Dict[int, int] = {}
        for entry in self:
            counts[entry.key] = counts.get(entry.key, 0) + 1
        return counts
