"""Partitions: the unit of storage placement and replication."""

from __future__ import annotations

from typing import Dict, List, Optional

from .log import LogEntry, PartitionLog

__all__ = ["Partition"]


class Partition:
    """One partition of a topic, with a leader replica and followers.

    The leader broker serves produce requests; follower replicas apply the
    leader's appends (our replication is leader-push with a configurable
    lag, applied by the broker layer).  Reconciliation reads the leader log.
    """

    def __init__(
        self,
        topic: str,
        index: int,
        leader_broker_id: str,
        replica_broker_ids: Optional[List[str]] = None,
    ) -> None:
        if index < 0:
            raise ValueError("partition index must be >= 0")
        self.topic = topic
        self.index = index
        self.leader_broker_id = leader_broker_id
        self.replica_broker_ids = list(replica_broker_ids or [])
        self.leader_log = PartitionLog()
        self.replica_logs: Dict[str, PartitionLog] = {
            broker_id: PartitionLog()
            for broker_id in self.replica_broker_ids
            if broker_id != leader_broker_id
        }

    @property
    def name(self) -> str:
        """Kafka-style ``topic-partition`` name."""
        return f"{self.topic}-{self.index}"

    @property
    def high_watermark(self) -> int:
        """Highest offset replicated to every follower."""
        if not self.replica_logs:
            return self.leader_log.next_offset
        return min(
            [self.leader_log.next_offset]
            + [log.next_offset for log in self.replica_logs.values()]
        )

    def append(
        self,
        key: int,
        payload_bytes: int,
        timestamp: float,
        producer_id: Optional[int] = None,
        sequence: Optional[int] = None,
    ) -> Optional[int]:
        """Append to the leader log (and replicate); returns the offset."""
        leader = self.leader_log
        entry = leader.append_entry(
            LogEntry(leader.next_offset, key, payload_bytes, timestamp, producer_id, sequence)
        )
        if entry is None:
            return None
        # Leader-push replication: followers apply synchronously in the
        # simulation (sharing the leader's immutable entry); the broker
        # layer adds the acks=all latency cost.
        for log in self.replica_logs.values():
            log.append_entry(entry)
        return entry.offset

    def read(self, start_offset: int = 0, max_entries: Optional[int] = None) -> List[LogEntry]:
        """Read committed entries from the leader log."""
        return self.leader_log.read(start_offset, max_entries)

    def elect_new_leader(self, broker_id: str) -> None:
        """Fail the current leader over to ``broker_id`` (a follower).

        The follower's log becomes the leader log; entries beyond its high
        watermark on the old leader are lost — the broker-failure loss mode
        the paper leaves to future work.
        """
        if broker_id == self.leader_broker_id:
            return
        if broker_id not in self.replica_logs:
            raise ValueError(f"{broker_id} is not a follower of {self.name}")
        old_leader = self.leader_broker_id
        new_leader_log = self.replica_logs.pop(broker_id)
        self.replica_logs[old_leader] = self.leader_log
        self.leader_log = new_leader_log
        self.leader_broker_id = broker_id
