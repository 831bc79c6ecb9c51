"""Batched + sharded ingestion: equivalence with the per-record update path.

The contract of the fast paths is behavioural, not just statistical:

* ``Flowtree.add_batch`` over any record stream must serialize to exactly
  the same bytes as a per-record ``add_record`` loop when compaction is
  disabled — regardless of batch size — and must stay byte-identical when
  both paths cross a compaction boundary at the same point in the stream;
* ``ShardedFlowtree`` shards merged through the paper's merge operator
  must reproduce the single unsharded tree.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SimpleRecord, make_record

from repro.core import (
    ConfigurationError,
    Counters,
    Flowtree,
    FlowtreeConfig,
    ShardedFlowtree,
    partition_aggregated,
    shard_config_for,
    shard_index,
    to_bytes,
)
from repro.core.key import FlowKey
from repro.features.schema import SCHEMA_1F_SRC, SCHEMA_2F_SRC_DST, SCHEMA_4F


def _record(src_host, dst_host, sport, dport, packets):
    return SimpleRecord(
        src_ip=(10 << 24) | src_host,
        dst_ip=(192 << 24) | (168 << 16) | dst_host,
        src_port=1024 + sport,
        dst_port=dport,
        packets=packets,
        bytes=packets * 100,
    )


# Small domains force duplicates and shared chain prefixes.
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
    max_size=150,
)


class TestAddBatchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(records=records_strategy, batch_size=st.sampled_from([0, 1, 7, 64, 10_000]))
    def test_byte_identical_to_add_loop_unbounded(self, records, batch_size):
        """Property: batch == loop, byte for byte, for any chunking."""
        loop_tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        for record in records:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        consumed = batch_tree.add_batch(records, batch_size=batch_size)
        assert consumed == len(records)
        assert to_bytes(batch_tree) == to_bytes(loop_tree)
        assert batch_tree.stats.updates == loop_tree.stats.updates == len(records)
        batch_tree.validate()

    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy)
    def test_byte_identical_on_2f_schema(self, records):
        loop_tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=None))
        for record in records:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=None))
        batch_tree.add_batch(records)
        assert to_bytes(batch_tree) == to_bytes(loop_tree)

    def test_byte_identical_across_compaction_boundary(self):
        """Both paths compact exactly once, at the same stream position.

        The stream holds 64 distinct keys against a 64-node budget; the
        +1 root means the budget is first exceeded by the final record, so
        the per-record loop's compaction fires on its last ``add`` — from
        the same fully-accumulated state the batched path compacts from.
        """
        config = FlowtreeConfig(max_nodes=64)
        records = []
        for i in range(63):
            # Every duplicate of keys 0..62 arrives before the final key.
            records.extend(
                make_record(src=f"10.1.{i}.1", dst="203.0.113.9", sport=2000 + i,
                            dport=443, packets=1 + i % 4)
                for _ in range(1 + i % 3)
            )
        records.append(make_record(src="10.9.9.9", dst="203.0.113.9", sport=4999, dport=443))

        loop_tree = Flowtree(SCHEMA_4F, config)
        for record in records:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_4F, config)
        batch_tree.add_batch(records, batch_size=0)

        assert loop_tree.stats.compactions == 1
        assert batch_tree.stats.compactions == 1
        assert to_bytes(batch_tree) == to_bytes(loop_tree)
        batch_tree.validate()
        loop_tree.validate()

    def test_bounded_batch_respects_budget_and_totals(self, packet_stream_small):
        config = FlowtreeConfig(max_nodes=128, victim_batch=16)
        loop_tree = Flowtree(SCHEMA_4F, config)
        for record in packet_stream_small:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_4F, config)
        batch_tree.add_batch(packet_stream_small, batch_size=512)
        batch_tree.validate()
        assert batch_tree.total_counters() == loop_tree.total_counters()
        # Compaction at batch boundaries may land between max_nodes and the
        # overshoot margin, but the final tree must be back under budget.
        assert len(batch_tree) <= config.max_nodes + max(config.victim_batch,
                                                         config.max_nodes // 16)

    def test_add_aggregated_matches_add_calls(self):
        items = [
            (FlowKey.from_record(SCHEMA_4F, make_record(src=f"10.2.{i}.1")), 3 * i + 1, 50 * i, 2)
            for i in range(20)
        ]
        direct = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        for key, packets, byte_count, flows in items:
            direct.add(key, packets=packets, bytes=byte_count, flows=flows)
        aggregated = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        aggregated.add_aggregated(items)
        assert to_bytes(aggregated) == to_bytes(direct)

    def test_signature_matches_key_identity(self):
        a = make_record(src="10.0.0.1", sport=1111)
        b = make_record(src="10.0.0.1", sport=1111, packets=9, bytes=9_999)
        c = make_record(src="10.0.0.2", sport=1111)
        assert SCHEMA_4F.signature_of(a) == SCHEMA_4F.signature_of(b)
        assert SCHEMA_4F.signature_of(a) != SCHEMA_4F.signature_of(c)
        assert (SCHEMA_4F.signature_of(a) == SCHEMA_4F.signature_of(b)) == (
            FlowKey.from_record(SCHEMA_4F, a) == FlowKey.from_record(SCHEMA_4F, b)
        )
        # Single-field schemas give a bare value, still usable as a dict key.
        assert SCHEMA_1F_SRC.signature_of(a) == a.src_ip


def _items_map(summary):
    """``items()`` as a per-key counter map (shard roots share one key)."""
    totals = {}
    for key, counters in summary.items():
        totals.setdefault(key, Counters()).add(counters)
    return totals


class TestShardedFlowtree:
    @settings(max_examples=20, deadline=None)
    @given(records=records_strategy, num_shards=st.sampled_from([1, 2, 4, 7]))
    def test_merge_equivalence_against_unsharded(self, records, num_shards):
        """Property: merging the shards reproduces the single tree exactly."""
        config = FlowtreeConfig(max_nodes=None)
        single = Flowtree(SCHEMA_4F, config)
        for record in records:
            single.add_record(record)
        sharded = ShardedFlowtree(SCHEMA_4F, config, num_shards=num_shards)
        consumed = sharded.add_batch(records, batch_size=32)
        assert consumed == len(records)
        sharded.validate()
        assert to_bytes(sharded.merged_tree()) == to_bytes(single)
        assert sharded.total_counters() == single.total_counters()
        assert _items_map(sharded) == _items_map(single)
        probe = FlowKey.from_record(SCHEMA_4F, records[0])
        generalized = probe.generalize_feature(0).generalize_feature(3)
        for key in (FlowKey.root(SCHEMA_4F), probe, generalized):
            assert sharded.estimate(key).counters == single.estimate(key).counters

    def test_bounded_shards_split_the_budget(self, packet_stream_small):
        config = FlowtreeConfig(max_nodes=256)
        sharded = ShardedFlowtree(SCHEMA_4F, config, num_shards=4)
        sharded.add_batch(packet_stream_small)
        for shard in sharded.shards:
            assert shard.config.max_nodes == 64
            assert len(shard) <= 64 + max(shard.config.victim_batch, 4)
        merged = sharded.merged_tree()
        assert len(merged) <= config.max_nodes
        assert merged.total_counters() == sharded.total_counters()

    def test_estimate_sums_over_shards(self, packet_stream_small):
        config = FlowtreeConfig(max_nodes=None)
        single = Flowtree(SCHEMA_4F, config)
        single.add_records(packet_stream_small)
        keys = [
            FlowKey.from_wire(SCHEMA_4F, ("*", "*", "*", "*")),
            FlowKey.from_record(SCHEMA_4F, packet_stream_small[0]),
        ]
        sharded = ShardedFlowtree(SCHEMA_4F, config, num_shards=4)
        sharded.add_batch(packet_stream_small)
        for key in keys:
            assert sharded.estimate(key).counters == single.estimate(key).counters
        assert sharded.estimate_many(keys) == {key: sharded.estimate(key) for key in keys}

    def test_every_ingest_path_agrees_on_placement_and_count(self, packet_stream_small):
        records = packet_stream_small[:600]
        config = FlowtreeConfig(max_nodes=None)
        by_batch = ShardedFlowtree(SCHEMA_4F, config, num_shards=3)
        by_batch.add_batch(records)
        mixed = ShardedFlowtree(SCHEMA_4F, config, num_shards=3)
        assert mixed.add_records(records[:200]) == 200
        assert mixed.add_batch(records[200:400]) == 200
        for record in records[400:]:
            mixed.add_record(record)
        assert mixed.records_ingested == len(records)
        assert mixed.stats_snapshot()["records_ingested"] == len(records)
        assert to_bytes(mixed.merged_tree()) == to_bytes(by_batch.merged_tree())

    def test_compact_within_budget_removes_nothing(self):
        sharded = ShardedFlowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        assert sharded.compact() == 0


def test_shard_placement_is_deterministic_and_total(packet_stream_small):
    keys = {FlowKey.from_record(SCHEMA_4F, p) for p in packet_stream_small[:500]}
    for key in keys:
        index = shard_index(key, 4)
        assert 0 <= index < 4
        assert index == shard_index(key, 4)
    # A real stream must not collapse into one shard.
    assert len({shard_index(key, 4) for key in keys}) == 4


class TestShardedStructure:
    """Budget split, placement and bookkeeping of the in-process shards."""

    @pytest.mark.parametrize("num_shards", [0, -1])
    def test_non_positive_shard_count_rejected(self, num_shards):
        with pytest.raises(ConfigurationError):
            ShardedFlowtree(SCHEMA_4F, FlowtreeConfig(), num_shards=num_shards)

    @pytest.mark.parametrize(
        "max_nodes, num_shards, expected",
        [(None, 4, None), (256, 4, 64), (100, 8, 16), (40, 1, 40)],
    )
    def test_shard_config_splits_the_budget(self, max_nodes, num_shards, expected):
        config = FlowtreeConfig(max_nodes=max_nodes, policy="field-order")
        shard_config = shard_config_for(config, num_shards)
        assert shard_config.max_nodes == expected
        assert shard_config.policy == config.policy
        sharded = ShardedFlowtree(SCHEMA_4F, config, num_shards=num_shards)
        assert all(shard.config == shard_config for shard in sharded.shards)

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_bounded_ingest_conserves_totals_within_budget(
        self, packet_stream_small, num_shards
    ):
        config = FlowtreeConfig(max_nodes=400)
        single = Flowtree(SCHEMA_4F, config)
        single.add_records(packet_stream_small)
        sharded = ShardedFlowtree(SCHEMA_4F, config, num_shards=num_shards)
        assert sharded.add_batch(packet_stream_small) == len(packet_stream_small)
        sharded.validate()
        assert sharded.total_counters() == single.total_counters()
        merged = sharded.merged_tree()
        merged.validate()
        assert len(merged) <= config.max_nodes
        assert merged.total_counters() == single.total_counters()

    def test_single_shard_matches_an_unsharded_batch(self, packet_stream_small):
        config = FlowtreeConfig(max_nodes=300)
        single = Flowtree(SCHEMA_4F, config)
        single.add_batch(packet_stream_small, batch_size=256)
        sharded = ShardedFlowtree(SCHEMA_4F, config, num_shards=1)
        sharded.add_batch(packet_stream_small, batch_size=256)
        assert to_bytes(sharded.shards[0]) == to_bytes(single)

    def test_unbounded_shards_hold_only_their_own_keys(self, packet_stream_small):
        records = packet_stream_small[:800]
        leaves = {FlowKey.from_record(SCHEMA_4F, record) for record in records}
        sharded = ShardedFlowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None), num_shards=4)
        sharded.add_batch(records)
        owners = {}
        for index, shard in enumerate(sharded.shards):
            for key, _ in shard.items():
                if key in leaves:
                    assert key not in owners
                    owners[key] = index
        assert set(owners) == leaves
        assert all(sharded.shard_for_key(key) == index for key, index in owners.items())

    def test_partition_routes_each_key_and_counts_every_record(self, packet_stream_small):
        chunk = packet_stream_small[:500]
        per_shard, per_shard_records = partition_aggregated(chunk, SCHEMA_4F, True, 3)
        assert len(per_shard) == len(per_shard_records) == 3
        assert sum(per_shard_records) == len(chunk)
        seen = set()
        for index, items in enumerate(per_shard):
            assert sum(flows for _, _, _, flows in items) == per_shard_records[index]
            for key, _, _, _ in items:
                assert shard_index(key, 3) == index
                assert key not in seen
                seen.add(key)
        assert sum(packets for items in per_shard for _, packets, _, _ in items) == sum(
            record.packets for record in chunk
        )

    def test_items_and_snapshot_sum_over_shards(self, packet_stream_small):
        sharded = ShardedFlowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=200), num_shards=4)
        sharded.add_batch(packet_stream_small[:1_000])
        total = Counters()
        for _, counters in sharded.items():
            total.add(counters)
        assert total == sharded.total_counters()
        snapshot = sharded.stats_snapshot()
        assert snapshot["shards"] == 4
        assert snapshot["nodes"] == len(sharded) == sharded.node_count()
        assert snapshot["records_ingested"] == 1_000

    def test_bounded_estimate_many_matches_estimate(self, packet_stream_small):
        sharded = ShardedFlowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=120), num_shards=3)
        sharded.add_batch(packet_stream_small)
        probe = FlowKey.from_record(SCHEMA_4F, packet_stream_small[7])
        keys = [FlowKey.root(SCHEMA_4F), probe, probe.generalize_feature(1)]
        answers = sharded.estimate_many(keys)
        for key in keys:
            assert answers[key] == sharded.estimate(key)
        assert answers[keys[0]].counters == sharded.total_counters()


_PLACEMENT_SCRIPT = """
from repro.core import shard_index
from repro.core.key import FlowKey
from repro.features.schema import SCHEMA_4F
keys = [("10.0.0.%d" % i, "192.0.2.1", str(1024 + i), "443") for i in range(64)]
print(",".join(str(shard_index(FlowKey.from_wire(SCHEMA_4F, k), 7)) for k in keys))
"""


def test_shard_placement_is_stable_across_processes():
    """Two interpreters with different hash seeds must agree on placement."""
    placements = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", _PLACEMENT_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        placements.append(result.stdout.strip())
    assert placements[0] == placements[1]
    assert len(set(placements[0].split(","))) > 1


class TestDaemonBatchedReplay:
    def test_batched_daemon_exports_identical_summaries(self, packet_stream_small):
        from repro.distributed import FlowtreeDaemon, SimulatedTransport

        def run(batch_size):
            transport = SimulatedTransport()
            daemon = FlowtreeDaemon(
                site="s", schema=SCHEMA_4F, transport=transport,
                bin_width=5.0, config=FlowtreeConfig(max_nodes=None),
            )
            daemon.consume_records(packet_stream_small, batch_size=batch_size)
            daemon.flush()
            return daemon.stats, [m.payload for _, m in transport.receive("collector")]

        # Per-record vs batched must agree on accounting and exported bytes.
        loop_stats, loop_payloads = run(batch_size=0)
        batch_stats, batch_payloads = run(batch_size=100)
        assert batch_stats.records_consumed == loop_stats.records_consumed
        assert batch_stats.bins_exported == loop_stats.bins_exported
        assert batch_stats.late_records == loop_stats.late_records
        assert batch_payloads == loop_payloads
