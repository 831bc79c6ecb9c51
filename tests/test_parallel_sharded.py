"""Shards in worker processes: byte identity with in-process shards, and
fault tolerance.

``ShardedFlowtree(pool=ShardWorkerPool)`` makes the strongest contract the
codebase has:

* it must be **byte-identical** to the same structure with in-process
  shards for any stream, any shard count and any node budget — including
  across compaction boundaries — because both run the same partition step
  and the workers fold the same ``add_aggregated`` calls in the same order
  (that both reproduce the single unsharded tree when unbounded is pinned
  per placement in ``test_batch_sharded.py``);
* a worker crash mid-stream must be invisible: the checkpoint + journal
  replay makes every sub-batch fold exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SimpleRecord, make_record

from repro.core import (
    FlowtreeConfig,
    ShardedFlowtree,
    ShardWorkerPool,
    WorkerError,
    decode_aggregated_batch,
    encode_aggregated_batch,
    to_bytes,
)
from repro.core.errors import SerializationError
from repro.core.key import FlowKey
from repro.features.schema import SCHEMA_4F


def _record(src_host, dst_host, sport, dport, packets):
    return SimpleRecord(
        src_ip=(10 << 24) | src_host,
        dst_ip=(192 << 24) | (168 << 16) | dst_host,
        src_port=1024 + sport,
        dst_port=dport,
        packets=packets,
        bytes=packets * 100,
    )


# Small domains force duplicates, shared chain prefixes and shard collisions.
records_strategy = st.lists(
    st.builds(
        _record,
        src_host=st.integers(0, 40),
        dst_host=st.integers(0, 6),
        sport=st.integers(0, 10),
        dport=st.sampled_from([53, 80, 443]),
        packets=st.integers(1, 5),
    ),
    min_size=1,
    max_size=120,
)

UNBOUNDED = FlowtreeConfig(max_nodes=None)
BOUNDED = FlowtreeConfig(max_nodes=64, victim_batch=8)


def _in_process(records, config=UNBOUNDED, num_shards=2, batch_size=0):
    reference = ShardedFlowtree(SCHEMA_4F, config, num_shards=num_shards)
    reference.add_batch(records, batch_size=batch_size)
    return reference


def _in_workers(config=UNBOUNDED, num_shards=2):
    return ShardedFlowtree(SCHEMA_4F, config, num_shards=num_shards, pool=ShardWorkerPool)


def _shard_bytes(sharded):
    return [to_bytes(shard, compress=False) for shard in sharded.shards]


class TestAggregatedBatchWireFormat:
    def test_round_trip_preserves_order_and_counts(self):
        items = [
            (FlowKey.from_record(SCHEMA_4F, make_record(src=f"10.3.{i}.1", sport=2000 + i)),
             3 * i + 1, 50 * i, i % 4)
            for i in range(25)
        ]
        payload = encode_aggregated_batch(items, record_count=123)
        decoded, record_count = decode_aggregated_batch(payload, SCHEMA_4F)
        assert record_count == 123
        assert decoded == items

    def test_negative_counters_round_trip(self):
        # Diff-like payloads carry negative counters; zig-zag must keep them.
        key = FlowKey.from_record(SCHEMA_4F, make_record())
        payload = encode_aggregated_batch([(key, -5, -1_000, -1)], record_count=0)
        decoded, _ = decode_aggregated_batch(payload, SCHEMA_4F)
        assert decoded == [(key, -5, -1_000, -1)]

    def test_bad_magic_and_truncation_raise(self):
        key = FlowKey.from_record(SCHEMA_4F, make_record())
        payload = encode_aggregated_batch([(key, 1, 0, 1)], record_count=1)
        with pytest.raises(SerializationError):
            decode_aggregated_batch(b"XXXX" + payload[4:], SCHEMA_4F)
        with pytest.raises(SerializationError):
            decode_aggregated_batch(payload[:-3], SCHEMA_4F)
        with pytest.raises(SerializationError):
            encode_aggregated_batch([], record_count=-1)


class TestPlacementEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        records=records_strategy,
        num_shards=st.sampled_from([1, 2, 4]),
        batch_size=st.sampled_from([0, 7, 50]),
    )
    def test_bounded_byte_identical_across_compaction(self, records, num_shards, batch_size):
        """Property: with a tight budget (compaction firing), worker shards
        still serialize shard-for-shard to the in-process bytes."""
        reference = _in_process(records, BOUNDED, num_shards, batch_size)
        with _in_workers(BOUNDED, num_shards) as sharded:
            sharded.add_batch(records, batch_size=batch_size)
            assert sharded.pool.shard_summaries() == _shard_bytes(reference)
            assert to_bytes(sharded.merged_tree()) == to_bytes(reference.merged_tree())

    def test_generation_reset_isolates_batches(self, packet_stream_small):
        """summarize-and-reset (the daemon's bin rollover) splits the stream
        into independent generations, each equal to a fresh in-process run."""
        half = len(packet_stream_small) // 2
        with _in_workers() as sharded:
            sharded.add_batch(packet_stream_small[:half], batch_size=0)
            pending = sharded.pool.begin_summaries(reset=True)
            sharded.add_batch(packet_stream_small[half:], batch_size=0)
            assert pending.collect() == _shard_bytes(_in_process(packet_stream_small[:half]))
            second = _in_process(packet_stream_small[half:])
            assert to_bytes(sharded.merged_tree()) == to_bytes(second.merged_tree())

    def test_reset_invalidates_cached_queries(self):
        records = [make_record(sport=3000 + i) for i in range(20)]
        with _in_workers() as sharded:
            sharded.add_batch(records, batch_size=0)
            assert sharded.total_counters().packets == 20   # populates the replicas
            sharded.pool.shard_summaries(reset=True)
            assert sharded.total_counters().packets == 0
            assert sharded.node_count() == 2   # just the shard roots

    def test_snapshot_keys_match_in_process_shards(self, packet_stream_small):
        reference = _in_process(packet_stream_small, batch_size=512)
        with _in_workers() as sharded:
            sharded.add_batch(packet_stream_small, batch_size=512)
            in_process = reference.stats_snapshot()
            in_workers = sharded.stats_snapshot()
        # The shared vocabulary benchmarks and the daemon compare on.
        assert set(in_process) <= set(in_workers)
        for key in ("updates", "inserts", "shards", "nodes", "records_ingested"):
            assert in_workers[key] == in_process[key], key
        # Pool-only queue/process stats ride along.
        assert in_workers["workers"] == 2
        assert in_workers["batches_submitted"] >= 2
        assert in_workers["submitted_payload_bytes"] > 0
        assert in_workers["worker_restarts"] == 0
        assert sharded.records_ingested == reference.records_ingested


class TestWorkerFaultTolerance:
    def test_crash_mid_stream_neither_drops_nor_double_counts(self, packet_stream_small):
        reference = _in_process(packet_stream_small, batch_size=256)
        with _in_workers() as sharded:
            third = len(packet_stream_small) // 3
            sharded.add_batch(packet_stream_small[:third], batch_size=256)
            sharded.pool.inject_worker_failure(0)
            sharded.add_batch(packet_stream_small[third:], batch_size=256)
            assert sharded.total_counters() == reference.total_counters()
            assert to_bytes(sharded.merged_tree()) == to_bytes(reference.merged_tree())
            snapshot = sharded.stats_snapshot()
            assert snapshot["worker_restarts"] == 1
            assert snapshot["records_ingested"] == len(packet_stream_small)

    def test_crash_after_checkpoint_replays_only_the_tail(self, packet_stream_small):
        """A collected summary becomes the checkpoint; the journal replayed
        after a later crash holds only the batches sent since."""
        half = len(packet_stream_small) // 2
        reference = _in_process(packet_stream_small, batch_size=128)
        with _in_workers() as sharded:
            sharded.add_batch(packet_stream_small[:half], batch_size=128)
            sharded.pool.shard_summaries()   # checkpoint both workers
            sharded.add_batch(packet_stream_small[half:], batch_size=128)
            sharded.pool.inject_worker_failure(1)
            assert sharded.total_counters() == reference.total_counters()
            assert to_bytes(sharded.merged_tree()) == to_bytes(reference.merged_tree())

    def test_crash_with_summary_in_flight_recovers_the_bin(self, packet_stream_small):
        """The daemon's worst case: a worker dies between a bin's
        summarize-and-reset and its collection, with next-bin batches
        already queued behind it.  Both generations must survive."""
        half = len(packet_stream_small) // 2
        with _in_workers() as sharded:
            sharded.add_batch(packet_stream_small[:half], batch_size=0)
            pending = sharded.pool.begin_summaries(reset=True)
            sharded.pool.inject_worker_failure(0)
            sharded.add_batch(packet_stream_small[half:], batch_size=0)
            assert pending.collect() == _shard_bytes(_in_process(packet_stream_small[:half]))
            second = _in_process(packet_stream_small[half:])
            assert to_bytes(sharded.merged_tree()) == to_bytes(second.merged_tree())
            assert sharded.stats_snapshot()["worker_restarts"] >= 1

    def test_closed_pool_refuses_work(self):
        sharded = _in_workers(num_shards=1)
        sharded.close()
        sharded.close()   # idempotent
        with pytest.raises(WorkerError):
            sharded.add_batch([make_record()])
        with pytest.raises(WorkerError):
            sharded.total_counters()

    def test_journal_is_bounded_by_periodic_checkpoints(self):
        """Long streams must not grow the replay buffer without bound: the
        pool checkpoints once any journal reaches 256 sub-batches."""
        records = [make_record(sport=1000 + i) for i in range(300)]
        with _in_workers(num_shards=1) as sharded:
            sharded.add_records(records)   # one sub-batch per record
            assert sharded.stats_snapshot()["journal_entries"] < 256
            assert sharded.total_counters().packets == len(records)

    def test_unregistered_schema_rejected_up_front(self):
        from repro.core import ConfigurationError
        from repro.features.schema import FlowSchema

        custom = FlowSchema("4f", ["src_ip", "dst_ip", "src_port", "protocol"])
        with pytest.raises(ConfigurationError):
            ShardedFlowtree(custom, UNBOUNDED, num_shards=1, pool=ShardWorkerPool)
        with pytest.raises(ConfigurationError):
            ShardedFlowtree(
                FlowSchema("no-such-schema", ["src_ip"]), UNBOUNDED,
                num_shards=1, pool=ShardWorkerPool,
            )
