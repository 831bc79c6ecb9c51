"""Tests for compaction behaviour and the merge/diff operators."""

import pytest

from helpers import key2, key4, make_record
from repro.core.config import FlowtreeConfig
from repro.core.errors import SchemaMismatchError
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.node import Counters
from repro.core.operators import (
    conservation_error,
    key_union,
    merge_all,
    relative_change,
)
from repro.features.schema import SCHEMA_2F_SRC_DST, SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator


def build_tree(packets, max_nodes=200, schema=SCHEMA_4F):
    tree = Flowtree(schema, FlowtreeConfig(max_nodes=max_nodes))
    tree.add_records(packets)
    return tree


class TestCompaction:
    def test_compaction_preserves_totals(self, packet_stream_small):
        tree = build_tree(packet_stream_small, max_nodes=64)
        assert tree.total_counters().packets == len(packet_stream_small)

    def test_compaction_creates_intermediate_aggregates(self, packet_stream_small):
        tree = build_tree(packet_stream_small, max_nodes=128)
        specificities = {key.specificity for key in tree.keys()}
        full = max(specificities)
        # There must be aggregation levels strictly between root and fully specific.
        assert any(0 < spec < full for spec in specificities)

    def test_compaction_does_not_dump_everything_into_root(self, packet_stream_small):
        tree = build_tree(packet_stream_small, max_nodes=128)
        root_share = tree.root.counters.packets / max(1, tree.total_counters().packets)
        assert root_share < 0.2

    def test_explicit_compact_to_target(self, packet_stream_small):
        tree = build_tree(packet_stream_small, max_nodes=1_000)
        before = len(tree)
        removed = tree.compact(target_nodes=100)
        assert len(tree) <= 100
        assert removed >= before - 100
        tree.validate()

    def test_compact_noop_when_under_target(self, empty_tree_4f):
        empty_tree_4f.add_record(make_record())
        assert empty_tree_4f.compact(target_nodes=100) == 0

    def test_compact_unbounded_tree_is_noop(self, packet_stream_small, unbounded_config):
        tree = Flowtree(SCHEMA_4F, unbounded_config)
        tree.add_records(packet_stream_small[:500])
        assert tree.compact() == 0

    def test_heavy_flows_survive_compaction(self, packet_stream_small):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=256))
        heavy = make_record(src="9.9.9.9", dport=443)
        for packet in packet_stream_small:
            tree.add_record(packet)
            tree.add_record(heavy)
        heavy_key = FlowKey.from_record(SCHEMA_4F, heavy)
        assert heavy_key in tree
        estimate = tree.estimate(heavy_key).value()
        assert estimate >= len(packet_stream_small) * 0.9

    def test_protected_min_count_keeps_popular_leaves(self):
        config = FlowtreeConfig(max_nodes=32, protected_min_count=50, victim_batch=4)
        tree = Flowtree(SCHEMA_2F_SRC_DST, config)
        protected = make_record(src="10.0.0.1", dst="192.0.2.1", packets=100)
        tree.add_record(protected)
        for i in range(400):
            tree.add_record(make_record(src=f"172.16.{i % 250}.{i // 250 + 1}", dst="198.51.100.9"))
        protected_key = FlowKey.from_record(SCHEMA_2F_SRC_DST, protected)
        assert protected_key in tree
        assert len(tree) <= 32


class TestMergeAndDiff:
    def test_merge_adds_complementary_counters(self):
        a = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=100))
        b = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=100))
        a.add(key2("10.0.0.1", "192.0.2.1"), packets=5)
        b.add(key2("10.0.0.1", "192.0.2.1"), packets=7)
        b.add(key2("10.0.0.0/8", "*"), packets=3)
        a.merge(b)
        assert a.complementary_counters(key2("10.0.0.1", "192.0.2.1")).packets == 12
        assert a.complementary_counters(key2("10.0.0.0/8", "*")).packets == 3
        a.validate()

    def test_merge_conserves_totals(self, packet_stream_small):
        half = len(packet_stream_small) // 2
        a = build_tree(packet_stream_small[:half], max_nodes=150)
        b = build_tree(packet_stream_small[half:], max_nodes=150)
        merged = a.merged(b)
        assert merged.total_counters().packets == len(packet_stream_small)
        # Originals untouched by the pure form.
        assert a.total_counters().packets == half

    def test_merge_respects_budget(self, packet_stream_small):
        half = len(packet_stream_small) // 2
        a = build_tree(packet_stream_small[:half], max_nodes=100)
        b = build_tree(packet_stream_small[half:], max_nodes=100)
        a.merge(b)
        assert len(a) <= 100

    def test_merge_is_commutative_in_totals(self, packet_stream_small):
        half = len(packet_stream_small) // 2
        a = build_tree(packet_stream_small[:half], max_nodes=500)
        b = build_tree(packet_stream_small[half:], max_nodes=500)
        ab = a.merged(b)
        ba = b.merged(a)
        assert ab.total_counters() == ba.total_counters()

    def test_diff_then_apply_recovers_counts(self):
        before = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=100))
        after = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=100))
        before.add(key2("10.0.0.1", "192.0.2.1"), packets=10)
        after.add(key2("10.0.0.1", "192.0.2.1"), packets=25)
        after.add(key2("172.16.0.1", "192.0.2.1"), packets=4)
        delta = after.diff(before)
        assert delta.complementary_counters(key2("10.0.0.1", "192.0.2.1")).packets == 15
        recovered = before.merged(delta)
        assert recovered.total_counters() == after.total_counters()

    def test_diff_can_go_negative(self):
        before = Flowtree(SCHEMA_2F_SRC_DST)
        after = Flowtree(SCHEMA_2F_SRC_DST)
        before.add(key2("10.0.0.1", "192.0.2.1"), packets=10)
        delta = after.diff(before)
        assert delta.complementary_counters(key2("10.0.0.1", "192.0.2.1")).packets == -10

    def test_prune_zero_nodes_after_diff(self):
        a = Flowtree(SCHEMA_2F_SRC_DST)
        a.add(key2("10.0.0.1", "192.0.2.1"), packets=10)
        delta = a.diff(a)
        removed = delta.prune_zero_nodes()
        assert removed >= 1
        assert delta.total_counters().is_zero

    def test_merge_all_and_diff_chain(self, packet_stream_small):
        thirds = len(packet_stream_small) // 3
        trees = [
            build_tree(packet_stream_small[i * thirds:(i + 1) * thirds], max_nodes=200)
            for i in range(3)
        ]
        merged = merge_all(trees)
        assert merged.total_counters().packets == thirds * 3
        rebuilt = trees[0].copy()
        for previous, current in zip(trees, trees[1:]):
            rebuilt = rebuilt.merged(current.diff(previous))
        assert rebuilt.total_counters() == trees[2].total_counters()

    def test_merge_all_rejects_empty(self):
        with pytest.raises(SchemaMismatchError):
            merge_all([])

    def test_merge_all_of_one_tree_is_an_independent_copy(self):
        tree = Flowtree(SCHEMA_2F_SRC_DST)
        tree.add(key2("10.0.0.1", "192.0.2.1"), packets=5)
        result = merge_all([tree])
        assert result is not tree
        assert dict(result.items()) == dict(tree.items())
        result.add(key2("10.0.0.1", "192.0.2.1"), packets=1)
        assert tree.total_counters().packets == 5

    def test_merged_leaves_both_operands_untouched(self, packet_stream_small):
        a = build_tree(packet_stream_small[:500], max_nodes=None)
        b = build_tree(packet_stream_small[500:1_000], max_nodes=None)
        before_a, before_b = dict(a.items()), dict(b.items())
        a.merged(b)
        assert dict(a.items()) == before_a
        assert dict(b.items()) == before_b

    def test_diff_of_a_tree_with_itself_is_all_zero(self, packet_stream_small):
        tree = build_tree(packet_stream_small[:1_000], max_nodes=200)
        delta = tree.diff(tree.copy())
        assert all(counters.is_zero for _, counters in delta.items())
        delta.prune_zero_nodes()
        assert len(delta) == 1  # only the root survives

    def test_diff_rejects_schema_mismatch(self):
        with pytest.raises(SchemaMismatchError):
            Flowtree(SCHEMA_4F).diff(Flowtree(SCHEMA_2F_SRC_DST))

    def test_diff_chain_reconstructs_every_bin_exactly(self, packet_stream_small):
        """Unbounded bins: base + every delta so far gives each bin's own counters."""
        quarter = len(packet_stream_small) // 4
        bins = [
            build_tree(packet_stream_small[i * quarter:(i + 1) * quarter], max_nodes=None)
            for i in range(4)
        ]
        rebuilt = bins[0].copy()
        for previous, current in zip(bins, bins[1:]):
            rebuilt = rebuilt.merged(current.diff(previous))
            nonzero = {key: c for key, c in rebuilt.items() if not c.is_zero}
            assert nonzero == {key: c for key, c in current.items() if not c.is_zero}


class TestOperatorHelpers:
    def test_key_union(self):
        a = Flowtree(SCHEMA_2F_SRC_DST)
        b = Flowtree(SCHEMA_2F_SRC_DST)
        a.add(key2("10.0.0.1", "192.0.2.1"), packets=5)
        b.add(key2("172.16.0.1", "192.0.2.1"), packets=9)
        union = key_union([a, b])
        assert key2("10.0.0.1", "192.0.2.1") in union
        assert key2("172.16.0.1", "192.0.2.1") in union

    def test_key_union_is_sorted_and_deduplicated(self):
        a = Flowtree(SCHEMA_2F_SRC_DST)
        b = Flowtree(SCHEMA_2F_SRC_DST)
        for tree in (a, b):
            tree.add(key2("10.0.0.1", "192.0.2.1"), packets=1)
        b.add(key2("10.0.0.0/8", "*"), packets=1)
        union = key_union([a, b])
        assert len(union) == len(set(union))
        assert set(union) == set(a.keys()) | set(b.keys())
        specificities = [key.specificity for key in union]
        assert specificities == sorted(specificities)
        assert union[0].is_root

    def test_key_union_of_no_trees_is_empty(self):
        assert key_union([]) == []

    def test_heavy_keys_keep_the_dominant_flow(self):
        tree = Flowtree(SCHEMA_2F_SRC_DST)
        tree.add(key2("10.0.0.1", "192.0.2.1"), packets=900)
        tree.add(key2("172.16.0.1", "192.0.2.1"), packets=100)
        heavy = tree.heavy_keys(0.5)
        assert key2("10.0.0.1", "192.0.2.1") in heavy
        assert key2("172.16.0.1", "192.0.2.1") not in heavy
        # Cumulative popularity: every ancestor of a heavy key is heavy too.
        assert any(key.is_root for key in heavy)
        assert key2("172.16.0.1", "192.0.2.1") in tree.heavy_keys(0.1)

    def test_relative_change_skips_unpopular_keys(self):
        before = Flowtree(SCHEMA_2F_SRC_DST)
        after = Flowtree(SCHEMA_2F_SRC_DST)
        before.add(key2("10.0.0.1", "192.0.2.1"), packets=100)
        after.add(key2("10.0.0.1", "192.0.2.1"), packets=50)
        after.add(key2("172.16.0.1", "192.0.2.1"), packets=3)
        changes = relative_change(before, after, min_popularity=10)
        keys = [key for key, *_ in changes]
        assert key2("172.16.0.1", "192.0.2.1") not in keys
        entry = next(item for item in changes if item[0] == key2("10.0.0.1", "192.0.2.1"))
        assert entry[1:] == (100, 50, pytest.approx(-0.5))

    def test_relative_change_reads_the_requested_metric(self):
        before = Flowtree(SCHEMA_2F_SRC_DST)
        after = Flowtree(SCHEMA_2F_SRC_DST)
        key = key2("10.0.0.1", "192.0.2.1")
        before.add(key, packets=10, bytes=1_000)
        after.add(key, packets=10, bytes=4_000)
        by_packets = {k: change for k, _, _, change in relative_change(before, after)}
        by_bytes = {k: change for k, _, _, change in relative_change(before, after, "bytes")}
        assert by_packets[key] == 0.0
        assert by_bytes[key] == pytest.approx(3.0)

    def test_relative_change_orders_by_magnitude(self):
        before = Flowtree(SCHEMA_2F_SRC_DST)
        after = Flowtree(SCHEMA_2F_SRC_DST)
        before.add(key2("10.0.0.1", "192.0.2.1"), packets=100)
        after.add(key2("10.0.0.1", "192.0.2.1"), packets=100)
        after.add(key2("172.16.0.1", "192.0.2.1"), packets=500)
        changes = relative_change(before, after, min_popularity=10)
        assert changes[0][0] == key2("172.16.0.1", "192.0.2.1")
        assert changes[0][3] == pytest.approx(500.0)

    def test_conservation_error(self, packet_stream_small):
        tree = build_tree(packet_stream_small, max_nodes=200)
        expected = Counters(
            packets=len(packet_stream_small),
            bytes=sum(p.bytes for p in packet_stream_small),
            flows=len(packet_stream_small),
        )
        assert conservation_error(tree, expected) == {"packets": 0, "bytes": 0, "flows": 0}

    def test_conservation_error_reports_the_shortfall(self):
        tree = Flowtree(SCHEMA_2F_SRC_DST)
        tree.add(key2("10.0.0.1", "192.0.2.1"), packets=7, bytes=700)
        expected = Counters(packets=10, bytes=1_000, flows=1)
        assert conservation_error(tree, expected) == {"packets": -3, "bytes": -300, "flows": 0}

    def test_cumulative_counters_match_subtree_sums(self, packet_stream_small):
        tree = build_tree(packet_stream_small[:2_000], max_nodes=200)
        cumulative = tree.cumulative_counters()
        assert set(cumulative) == set(tree.keys())
        # Spot-check against the per-node subtree computation, including the root.
        for key in list(tree.keys())[:25]:
            assert cumulative[key] == tree.subtree_counters(key)
        root_key = next(key for key in tree.keys() if key.is_root)
        assert cumulative[root_key] == tree.total_counters()
