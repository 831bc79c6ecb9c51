"""Query-index maintenance: indexed answers vs the naive reference walker.

The indexed query engine (cached subtree aggregates + per-level token
projections, :mod:`repro.core.query`) must answer byte-identically to the
index-free walkers in :mod:`repro.core.reference` — after *every* mutation
kind a Flowtree supports.  Queries are interleaved between mutations on
purpose: a warm cache that survives a mutation it should not survive shows
up as a hard mismatch here.  A rebuild hands the index over *warm*
(primed from the fold's own signatures); ``TestPrimedIndexAfterRebuild``
pins that the primed index answers like a from-scratch build.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SimpleRecord, force_incremental, force_rebuild, key4, make_record

from repro.core import (
    Flowtree,
    FlowtreeConfig,
    children_of,
    drill_down,
    estimate_many,
    from_bytes,
    merge_all,
    to_bytes,
)
from repro.core.compaction import flatten_levels, fold_levels
from repro.core.key import FlowKey
from repro.core.query import signature_at
from repro.core.reference import (
    walk_children_of,
    walk_drill_down,
    walk_estimate,
)
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


records_strategy = st.lists(
    st.builds(
        _record,
        src_host=st.integers(0, 60),
        dst_host=st.integers(0, 5),
        sport=st.integers(0, 8),
        dport=st.sampled_from([53, 80, 443]),
        packets=st.integers(1, 6),
    ),
    min_size=1,
    max_size=100,
)

config_strategy = st.sampled_from(
    [
        FlowtreeConfig(max_nodes=None),
        FlowtreeConfig(max_nodes=64, victim_batch=8),
    ]
)


def _query_keys(records):
    """Kept, absent-specific, generalized on/off-trajectory, and root keys."""
    keys = [FlowKey.from_record(SCHEMA_4F, record) for record in records[:6]]
    keys.append(
        FlowKey.from_record(SCHEMA_4F, _record(61, 6, 9, 8080, 1))
    )  # never in the stream
    generalized = []
    for index, key in enumerate(keys):
        for feature_index in range(index % 4 + 1):
            key = key.generalize_feature(feature_index)
        generalized.append(key)
        # A clearly off-trajectory lattice point: one feature wide open.
        generalized.append(key.generalize_feature_to(index % 4, 0))
    keys.extend(generalized)
    keys.append(key4("10.0.0.0/8", "*", "*", "*"))
    keys.append(FlowKey.root(SCHEMA_4F))
    return keys


def _assert_same_estimate(tree, key):
    indexed = tree.estimate(key)
    naive = walk_estimate(tree, key)
    assert indexed.counters == naive.counters, key.pretty()
    assert indexed.exact_node == naive.exact_node, key.pretty()
    assert indexed.from_descendants == naive.from_descendants, key.pretty()
    assert indexed.from_ancestor == naive.from_ancestor, key.pretty()


def _assert_indexed_matches_reference(tree, records):
    keys = _query_keys(records)
    for key in keys:
        _assert_same_estimate(tree, key)
    answers = estimate_many(tree, keys)
    for key in keys:
        single = tree.estimate(key)
        assert answers[key].counters == single.counters
        assert answers[key].exact_node == single.exact_node
    root = FlowKey.root(SCHEMA_4F)
    for feature_index in range(4):
        assert children_of(tree, root, feature_index, step=4) == walk_children_of(
            tree, root, feature_index, step=4
        )
    path = drill_down(tree, root, 0, step=4, dominance=0.4)
    naive_path = walk_drill_down(tree, root, 0, step=4, dominance=0.4)
    assert [(s.key, s.value, s.share_of_parent, s.depth) for s in path] == naive_path
    # The cached root aggregate must equal the sum of every kept counter.
    total = tree.total_counters()
    packets = sum(counters.packets for _, counters in tree.items())
    assert total.packets == packets


class TestIndexMaintenance:
    @settings(max_examples=20, deadline=None)
    @given(records=records_strategy, config=config_strategy)
    def test_add_batch_then_per_record_adds(self, records, config):
        tree = Flowtree(SCHEMA_4F, config)
        half = max(1, len(records) // 2)
        tree.add_batch(records[:half], batch_size=0)
        _assert_indexed_matches_reference(tree, records)
        # Mutate *after* the caches are warm, one record at a time.
        for record in records[half:]:
            tree.add_record(record)
            _assert_same_estimate(tree, FlowKey.from_record(SCHEMA_4F, record))
        _assert_indexed_matches_reference(tree, records)

    @pytest.mark.parametrize("forced", [force_incremental, force_rebuild])
    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy)
    def test_compaction_invalidates(self, forced, records):
        """Either compaction strategy, run on a tree with warm caches."""
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=4096))
        tree.add_batch(records, batch_size=0)
        _assert_indexed_matches_reference(tree, records)
        with forced():
            tree.compact(target_nodes=max(16, len(tree) // 2))
        tree.validate()
        _assert_indexed_matches_reference(tree, records)

    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy, config=config_strategy)
    def test_merge_after_queries(self, records, config):
        half = max(1, len(records) // 2)
        left = Flowtree(SCHEMA_4F, config)
        left.add_batch(records[:half], batch_size=0)
        right = Flowtree(SCHEMA_4F, config)
        right.add_batch(records[half:], batch_size=0)
        _assert_indexed_matches_reference(left, records)
        left.merge(right)
        _assert_indexed_matches_reference(left, records)

    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy, config=config_strategy)
    def test_deserialization_round_trip(self, records, config):
        tree = Flowtree(SCHEMA_4F, config)
        tree.add_batch(records, batch_size=0)
        decoded = from_bytes(to_bytes(tree))
        _assert_indexed_matches_reference(decoded, records)
        for key in _query_keys(records):
            assert decoded.estimate(key).counters == tree.estimate(key).counters

    @settings(max_examples=10, deadline=None)
    @given(records=records_strategy)
    def test_diff_and_prune_invalidate(self, records):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        tree.add_batch(records, batch_size=0)
        _assert_indexed_matches_reference(tree, records)
        delta = tree.diff(tree)
        assert delta.total_counters().is_zero
        delta.prune_zero_nodes()
        _assert_indexed_matches_reference(delta, records)


def _skewed_records(n, seed=11):
    rng = random.Random(seed)
    return [
        make_record(
            src=f"10.{rng.randint(0, 40)}.{rng.randint(0, 80)}.{rng.randint(0, 255)}",
            dst=f"192.168.{rng.randint(0, 3)}.{rng.randint(0, 255)}",
            sport=rng.randint(1024, 1024 + 2000),
            dport=rng.choice([53, 80, 443, 8080]),
            protocol=rng.choice([6, 17]),
            packets=rng.randint(1, 40),
            bytes=rng.randint(40, 1500),
        )
        for _ in range(n)
    ]


def _over_target_tree():
    """A 300-node-budget tree sitting a little over its compaction target."""
    tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=300))
    tree.add_records(_skewed_records(4000))
    return tree


def _rebuilt_tree():
    tree = _over_target_tree()
    tree.compact()
    return tree


@force_rebuild()
class TestPrimedIndexAfterRebuild:
    def test_rebuild_leaves_index_warm(self):
        assert _rebuilt_tree()._query_index.warm

    def test_primed_index_answers_match_cold_rebuild(self):
        primed = _rebuilt_tree()
        cold = _rebuilt_tree()
        cold._query_index.invalidate()    # force the from-scratch O(n) build
        keys = [node.key for node in cold._all_nodes()]
        assert estimate_many(primed, keys) == estimate_many(cold, keys)

    def test_primed_index_tracks_later_mutations(self):
        tree = _rebuilt_tree()
        tree.add_records(_skewed_records(500, seed=99))
        reference = _rebuilt_tree()
        reference.add_records(_skewed_records(500, seed=99))
        reference._query_index.invalidate()
        keys = [node.key for node in reference._all_nodes()][:200]
        assert estimate_many(tree, keys) == estimate_many(reference, keys)

    def test_fold_levels_signatures_cover_every_survivor(self):
        tree = _over_target_tree()
        levels, before = flatten_levels(tree, ())
        survivors, _ = fold_levels(
            levels, before, tree.root.counters, 300,
            tree.schema, tree.chain_builder,
        )
        for key, _entry, sig in survivors:
            assert sig == signature_at(key, key.specificity_vector)


class TestQueryApiContracts:
    def test_wrong_arity_keys_raise_query_error(self):
        import pytest

        from repro.core.errors import QueryError
        from repro.features.schema import SCHEMA_2F_SRC_DST

        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        tree.add_record(_record(1, 1, 1, 80, 1))
        bad = FlowKey.root(SCHEMA_2F_SRC_DST)
        with pytest.raises(QueryError):
            tree.estimate(bad)
        with pytest.raises(QueryError):
            estimate_many(tree, [bad])

    def test_estimate_equality_is_field_based(self):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        tree.add_record(_record(1, 1, 1, 80, 3))
        key = FlowKey.from_record(SCHEMA_4F, _record(1, 1, 1, 80, 3))
        assert tree.estimate(key) == tree.estimate(key)
        assert tree.estimate(key) != tree.estimate(FlowKey.root(SCHEMA_4F))


class TestMergeMany:
    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy, parts=st.integers(4, 6))
    def test_fold_path_identical_to_pairwise_when_unbounded(self, records, parts):
        config = FlowtreeConfig(max_nodes=None)
        trees = []
        for index in range(parts):
            tree = Flowtree(SCHEMA_4F, config)
            tree.add_batch(records[index::parts], batch_size=0)
            trees.append(tree)
        slow = Flowtree(SCHEMA_4F, config)
        for tree in trees:
            slow.merge(tree)
        fast = Flowtree(SCHEMA_4F, config)
        fast.merge_many(trees)
        assert fast.stats.rebuilds == 1  # the token-space fold actually ran
        assert to_bytes(fast) == to_bytes(slow)
        assert fast.stats.merged_trees == slow.stats.merged_trees
        _assert_indexed_matches_reference(fast, records)

    @settings(max_examples=10, deadline=None)
    @given(records=records_strategy, parts=st.integers(4, 5))
    def test_fold_path_conserves_counters_when_bounded(self, records, parts):
        config = FlowtreeConfig(max_nodes=64, victim_batch=8)
        trees = []
        for index in range(parts):
            tree = Flowtree(SCHEMA_4F, config)
            tree.add_batch(records[index::parts], batch_size=0)
            trees.append(tree)
        slow = Flowtree(SCHEMA_4F, config)
        for tree in trees:
            slow.merge(tree)
        fast = Flowtree(SCHEMA_4F, config)
        fast.merge_many(trees)
        fast.validate()
        assert fast.total_counters() == slow.total_counters()
        assert len(fast) <= config.max_nodes
        _assert_indexed_matches_reference(fast, records)

    def test_small_inputs_use_the_pairwise_path(self):
        config = FlowtreeConfig(max_nodes=None)
        trees = []
        for index in range(3):
            tree = Flowtree(SCHEMA_4F, config)
            tree.add(key4(f"10.0.0.{index + 1}", "*", "*", "*"), packets=index + 1)
            trees.append(tree)
        merged = merge_all(trees)
        assert merged.stats.rebuilds == 0  # below MERGE_FOLD_MIN_TREES
        assert merged.total_counters().packets == 6
