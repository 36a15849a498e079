"""Unit tests for logs, partitions and topics."""

import pytest

from repro.kafka import KeyHashPartitioner, Partition, PartitionLog, RoundRobinPartitioner, Topic

BROKERS = ["broker-0", "broker-1", "broker-2"]


def _contents(log):
    return [
        (e.offset, e.key, e.payload_bytes, e.timestamp, e.producer_id, e.sequence)
        for e in log
    ]


class _IndependentReplicas:
    """Reference replication: every replica log appends each record itself."""

    def __init__(self, leader):
        self.leader = leader
        self.logs = {broker: PartitionLog() for broker in BROKERS}

    def append(self, *record):
        offset = self.logs[self.leader].append(*record)
        if offset is not None:
            for broker, log in self.logs.items():
                if broker != self.leader:
                    log.append(*record)
        return offset


class TestPartitionLog:
    def test_offsets_are_contiguous(self):
        log = PartitionLog()
        assert [log.append(k, 10, 0.0) for k in (5, 6, 7)] == [0, 1, 2]
        assert log.next_offset == 3

    def test_read_from_offset(self):
        log = PartitionLog()
        for key in range(6):
            log.append(key, 10, 0.0)
        entries = log.read(start_offset=3)
        assert [entry.key for entry in entries] == [3, 4, 5]

    def test_read_with_max_entries(self):
        log = PartitionLog()
        for key in range(6):
            log.append(key, 10, 0.0)
        assert len(log.read(0, max_entries=4)) == 4

    def test_duplicate_appends_are_kept(self):
        """Non-idempotent brokers persist retries again — Case 5's substrate."""
        log = PartitionLog()
        log.append(1, 10, 0.0)
        log.append(1, 10, 0.1)
        assert log.key_counts() == {1: 2}

    def test_idempotent_sequence_fencing(self):
        log = PartitionLog()
        assert log.append(1, 10, 0.0, producer_id=9, sequence=0) == 0
        assert log.append(1, 10, 0.1, producer_id=9, sequence=0) is None
        assert log.append(2, 10, 0.2, producer_id=9, sequence=1) == 1
        assert log.key_counts() == {1: 1, 2: 1}

    def test_idempotence_is_per_producer(self):
        log = PartitionLog()
        log.append(1, 10, 0.0, producer_id=1, sequence=0)
        assert log.append(2, 10, 0.0, producer_id=2, sequence=0) is not None


class TestPartition:
    def make(self):
        return Partition("t", 0, "broker-0", ["broker-0", "broker-1", "broker-2"])

    def test_append_replicates_to_followers(self):
        partition = self.make()
        partition.append(1, 10, 0.0)
        assert partition.high_watermark == 1
        for log in partition.replica_logs.values():
            assert len(log) == 1

    def test_leader_is_not_its_own_follower(self):
        partition = self.make()
        assert "broker-0" not in partition.replica_logs
        assert set(partition.replica_logs) == {"broker-1", "broker-2"}

    def test_name(self):
        assert self.make().name == "t-0"

    def test_failover_promotes_follower(self):
        partition = self.make()
        partition.append(1, 10, 0.0)
        partition.elect_new_leader("broker-1")
        assert partition.leader_broker_id == "broker-1"
        assert len(partition.leader_log) == 1
        assert "broker-0" in partition.replica_logs

    def test_followers_share_the_leaders_entry(self):
        partition = self.make()
        partition.append(1, 10, 0.0)
        [entry] = partition.leader_log.read()
        for log in partition.replica_logs.values():
            assert log.read()[0] is entry

    def test_logs_match_independent_appends_across_an_election(self):
        partition = self.make()
        reference = _IndependentReplicas("broker-0")
        # broker-2 diverged before the run (one extra record), and
        # broker-1 already holds a later sequence of producer 7.
        for target in (partition.replica_logs["broker-2"], reference.logs["broker-2"]):
            target.append(99, 5, 0.0)
        for target in (partition.replica_logs["broker-1"], reference.logs["broker-1"]):
            target.append(98, 5, 0.0, producer_id=7, sequence=2)
        records = [(key, 10, 0.1 * key, 7, key) for key in range(5)]
        records += [(50 + key, 10, 1.0, None, None) for key in range(2)]
        for record in records[:4]:
            assert partition.append(*record) == reference.append(*record)
        partition.elect_new_leader("broker-2")
        reference.leader = "broker-2"
        # A retried batch after the election: sequences 2-3 are fenced.
        for record in records[2:]:
            assert partition.append(*record) == reference.append(*record)
        logs = {"broker-2": partition.leader_log, **partition.replica_logs}
        for broker in BROKERS:
            assert _contents(logs[broker]) == _contents(reference.logs[broker]), broker
        # Logs whose end offsets differ built their own copies.
        before, after = logs["broker-2"].read(1)[0], logs["broker-2"].read(5)[0]
        assert before.key == logs["broker-0"].read(0)[0].key
        assert before is not logs["broker-0"].read(0)[0]
        assert after.key == logs["broker-0"].read(4)[0].key
        assert after is not logs["broker-0"].read(4)[0]

    def test_exactly_once_duplicates_are_fenced_on_followers(self):
        partition = self.make()
        assert partition.append(1, 10, 0.0, producer_id=7, sequence=0) == 0
        assert partition.append(1, 10, 0.1, producer_id=7, sequence=0) is None
        # Each follower fences on its own state: one that already holds a
        # later sequence of the producer discards the leader's entry.
        ahead = partition.replica_logs["broker-2"]
        ahead.append(5, 10, 0.2, producer_id=7, sequence=4)
        assert partition.append(2, 10, 0.3, producer_id=7, sequence=1) == 1
        assert [e.key for e in partition.leader_log] == [1, 2]
        assert [e.key for e in partition.replica_logs["broker-1"]] == [1, 2]
        assert [e.key for e in ahead] == [1, 5]

    def test_failover_to_non_follower_rejected(self):
        with pytest.raises(ValueError):
            self.make().elect_new_leader("broker-9")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Partition("t", -1, "broker-0")


class TestTopic:
    def make(self, partitioner=None):
        partitions = [Partition("t", i, f"broker-{i % 2}") for i in range(3)]
        return Topic("t", partitions, partitioner)

    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            Topic("t", [])

    def test_key_hash_partitioner_is_deterministic(self):
        topic = self.make(KeyHashPartitioner())
        assert topic.partition_for(42) is topic.partition_for(42)

    def test_round_robin_cycles(self):
        partitioner = RoundRobinPartitioner()
        indices = [partitioner.select(0, 3) for _ in range(6)]
        assert indices == [0, 1, 2, 0, 1, 2]

    def test_key_counts_merge_partitions(self):
        topic = self.make()
        topic.partitions[0].append(1, 10, 0.0)
        topic.partitions[1].append(1, 10, 0.0)
        topic.partitions[2].append(2, 10, 0.0)
        assert topic.key_counts() == {1: 2, 2: 1}

    def test_total_messages(self):
        topic = self.make()
        topic.partitions[0].append(1, 10, 0.0)
        topic.partitions[0].append(2, 10, 0.0)
        assert topic.total_messages() == 2
