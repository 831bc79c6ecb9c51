"""Estimator invariants (property tests).

The batch and exploratory helpers' contracts, for any tree — bounded or
not — and any query key (kept, absent-specific, generalized on- or
off-trajectory):

* ``estimate_many`` / ``estimate_values`` are literally the per-key
  ``estimate()`` answers;
* ``children_of`` buckets partition the parent's estimate (with the
  remainder reported under the parent), and ``drill_down`` steps are
  consistent with the breakdown they were derived from.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SimpleRecord

from repro.core import Flowtree, FlowtreeConfig, estimate_many, estimate_values
from repro.core.estimator import children_of, drill_down
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
    max_size=120,
)

# Bounded configs force compaction, so queries hit folded aggregates too.
config_strategy = st.sampled_from(
    [FlowtreeConfig(max_nodes=None), FlowtreeConfig(max_nodes=64, victim_batch=8)]
)


def _build_tree(records, config):
    tree = Flowtree(SCHEMA_4F, config)
    tree.add_batch(records, batch_size=0)
    return tree


def _query_keys(tree, records, generalize_steps):
    """Kept keys, absent fully-specific keys, and (possibly off-trajectory)
    generalizations — the three shapes ``estimate`` answers differently."""
    keys = [FlowKey.from_record(SCHEMA_4F, record) for record in records[:8]]
    keys.append(FlowKey.from_record(
        SCHEMA_4F, _record(61, 6, 9, 8080, 1)))   # never in the stream
    for base_index, steps in enumerate(generalize_steps):
        key = keys[base_index % len(keys)]
        for feature_index in steps:
            key = key.generalize_feature(feature_index)
        keys.append(key)
    keys.append(FlowKey.root(SCHEMA_4F))
    return keys


class TestBatchEstimates:
    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy, config=config_strategy)
    def test_estimate_many_agrees_with_per_key_estimate(self, records, config):
        tree = _build_tree(records, config)
        keys = _query_keys(tree, records, [[0], [1, 1], [0, 2, 3]])
        answers = estimate_many(tree, keys)
        assert set(answers) == set(keys)
        for key in keys:
            single = tree.estimate(key)
            assert answers[key].counters == single.counters
            assert answers[key].exact_node == single.exact_node
        for metric in ("packets", "bytes", "flows"):
            values = estimate_values(tree, keys, metric=metric)
            assert values == {key: tree.estimate(key).value(metric) for key in keys}


class TestDrilldown:
    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy, config=config_strategy,
           feature_index=st.integers(0, 3))
    def test_children_partition_the_parent_estimate(self, records, config, feature_index):
        tree = _build_tree(records, config)
        parent = FlowKey.root(SCHEMA_4F)
        total = tree.estimate(parent).value("packets")
        breakdown = children_of(tree, parent, feature_index, step=4, metric="packets")
        for bucket_key, value in breakdown:
            assert value > 0
            assert parent.contains(bucket_key)
        # With the remainder reported under the parent itself, the buckets
        # partition the estimate exactly; without it they can only undershoot.
        accounted = sum(value for _, value in breakdown)
        if any(bucket_key == parent for bucket_key, _ in breakdown):
            assert accounted == total
        else:
            assert accounted <= total

    @settings(max_examples=10, deadline=None)
    @given(records=records_strategy, config=config_strategy)
    def test_drill_down_steps_agree_with_estimates(self, records, config):
        tree = _build_tree(records, config)
        start = FlowKey.root(SCHEMA_4F)
        path = drill_down(tree, start, feature_index=0, metric="packets",
                          step=4, dominance=0.4)
        previous_key, previous_value = start, tree.estimate(start).value("packets")
        for depth, step in enumerate(path, start=1):
            assert step.depth == depth
            assert previous_key.contains(step.key)
            breakdown = dict(children_of(tree, previous_key, 0, step=4, metric="packets"))
            assert breakdown[step.key] == step.value
            assert step.share_of_parent >= 0.4
            assert step.share_of_parent * previous_value == step.value or (
                abs(step.share_of_parent - step.value / previous_value) < 1e-9
            )
            previous_key, previous_value = step.key, step.value
