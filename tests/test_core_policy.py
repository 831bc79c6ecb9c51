"""Tests for generalization policies and the canonical chain builder."""

from types import SimpleNamespace

import pytest

from helpers import key2, key4
from repro.core.config import FlowtreeConfig
from repro.core.errors import ConfigurationError
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.policy import (
    ChainBuilder,
    CoarsestFirstPolicy,
    FieldOrderPolicy,
    PriorityOrderPolicy,
    ReverseFieldOrderPolicy,
    RoundRobinPolicy,
    available_policies,
    get_policy,
    schema_max_specificity,
)
from repro.features.schema import SCHEMA_2F_SRC_DST, SCHEMA_4F, SCHEMA_5F


class TestPolicyRegistry:
    def test_available_policies(self):
        names = available_policies()
        assert "round-robin" in names
        assert "field-order" in names
        assert "reverse-field-order" in names
        assert "coarsest-first" in names

    def test_get_policy(self):
        assert isinstance(get_policy("round-robin"), RoundRobinPolicy)
        assert isinstance(get_policy("field-order"), FieldOrderPolicy)

    def test_get_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            get_policy("alphabetical")

    def test_get_priority_policy(self):
        policy = get_policy("priority:0,2,3,1")
        assert isinstance(policy, PriorityOrderPolicy)
        assert policy.choose_feature((32, 32, 16, 16), (32, 32, 16, 16)) == 0
        assert policy.choose_feature((0, 32, 16, 16), (32, 32, 16, 16)) == 2

    def test_get_priority_policy_rejects_malformed_order(self):
        with pytest.raises(ConfigurationError):
            get_policy("priority:0,x")
        with pytest.raises(ConfigurationError):
            get_policy("priority:1,1")


class TestSchemaMaxSpecificity:
    def test_4f(self):
        assert schema_max_specificity(SCHEMA_4F) == (32, 32, 16, 16)

    def test_5f_includes_protocol(self):
        assert schema_max_specificity(SCHEMA_5F) == (1, 32, 32, 16, 16)

    def test_rejects_unknown_feature_type(self):
        schema = SimpleNamespace(fields=[SimpleNamespace(feature_type=str)])
        with pytest.raises(ConfigurationError):
            schema_max_specificity(schema)


class TestPolicyChoices:
    def test_round_robin_prefers_highest_ratio(self):
        policy = RoundRobinPolicy()
        assert policy.choose_feature((32, 16, 16, 16), (32, 32, 16, 16)) in (0, 2, 3)
        # When src is half generalized but ports are full, ports win.
        assert policy.choose_feature((16, 16, 16, 16), (32, 32, 16, 16)) == 2

    def test_field_order_walks_left_to_right(self):
        policy = FieldOrderPolicy()
        assert policy.choose_feature((4, 32, 16, 16), (32, 32, 16, 16)) == 0
        assert policy.choose_feature((0, 32, 16, 16), (32, 32, 16, 16)) == 1

    def test_reverse_field_order(self):
        policy = ReverseFieldOrderPolicy()
        assert policy.choose_feature((32, 32, 16, 16), (32, 32, 16, 16)) == 3
        assert policy.choose_feature((32, 32, 16, 0), (32, 32, 16, 16)) == 2

    def test_coarsest_first(self):
        policy = CoarsestFirstPolicy()
        assert policy.choose_feature((4, 32, 0, 0), (32, 32, 16, 16)) == 0

    def test_priority_order_generalizes_unlisted_features_last(self):
        policy = PriorityOrderPolicy([3])
        assert policy.choose_feature((32, 32, 16, 16), (32, 32, 16, 16)) == 3
        assert policy.choose_feature((32, 32, 16, 0), (32, 32, 16, 16)) == 0

    def test_priority_order_rejects_out_of_range_index(self):
        with pytest.raises(ConfigurationError):
            PriorityOrderPolicy([7]).choose_feature((32, 32), (32, 32))

    @pytest.mark.parametrize(
        "policy", [FieldOrderPolicy(), ReverseFieldOrderPolicy(), PriorityOrderPolicy([1, 0])]
    )
    def test_ordered_policies_reject_the_root(self, policy):
        with pytest.raises(ConfigurationError):
            policy.choose_feature((0, 0), (32, 32))


class TestChainBuilder:
    @pytest.fixture
    def builder(self):
        return ChainBuilder.for_schema(SCHEMA_4F, RoundRobinPolicy(), ip_stride=4, port_stride=4)

    def test_level_sets_respect_strides(self, builder):
        assert builder.level_sets[0] == tuple(range(32, -1, -4))
        assert builder.level_sets[2] == tuple(range(16, -1, -4))

    def test_max_specificity(self, builder):
        assert builder.max_specificity == (32, 32, 16, 16)

    def test_parent_snaps_to_grid(self, builder):
        key = key4("10.1.2.3", "192.0.2.9", "1234", "443")
        parent = builder.parent(key)
        assert parent.contains(key)
        assert parent != key
        assert parent.specificity < key.specificity

    def test_parent_of_off_grid_key_snaps_down(self, builder):
        key = key4("10.0.0.0/30", "*", "*", "*")
        parent = builder.parent(key)
        assert parent.specificity_vector == (28, 0, 0, 0)

    def test_chain_reaches_root(self, builder):
        key = key4("10.1.2.3", "192.0.2.9", "1234", "443")
        chain = list(builder.chain(key))
        assert chain[-1].is_root
        # Every element contains its predecessor (monotone generalization).
        previous = key
        for ancestor in chain:
            assert ancestor.contains(previous)
            previous = ancestor

    def test_chain_length_matches_trajectory(self, builder):
        key = key4("10.1.2.3", "192.0.2.9", "1234", "443")
        assert len(list(builder.chain(key))) == len(builder.trajectory()) - 1

    def test_trajectory_starts_full_ends_root(self, builder):
        trajectory = builder.trajectory()
        assert trajectory[0] == (32, 32, 16, 16)
        assert trajectory[-1] == (0, 0, 0, 0)
        # Strictly decreasing total specificity.
        totals = [sum(level) for level in trajectory]
        assert totals == sorted(totals, reverse=True)
        assert len(set(trajectory)) == len(trajectory)

    def test_trajectory_length_follows_strides(self, builder):
        # One level per stride step of every feature, plus the full key.
        assert len(builder.trajectory()) == 8 + 8 + 4 + 4 + 1
        fine = ChainBuilder.for_schema(SCHEMA_4F, RoundRobinPolicy(), ip_stride=2, port_stride=4)
        assert len(fine.trajectory()) == 16 + 16 + 4 + 4 + 1

    def test_containment_implies_chain_membership(self, builder):
        """The structural property the Flowtree relies on (DESIGN.md §5)."""
        key = key4("10.1.2.3", "192.0.2.9", "1234", "443")
        chain = list(builder.chain(key))
        trajectory = set(builder.trajectory())
        for ancestor in chain:
            assert ancestor.specificity_vector in trajectory
        # Any trajectory-aligned generalization of the key equals the chain
        # element at that level.
        for level in builder.trajectory()[1:]:
            projected = key.generalize_to_vector(level)
            assert projected in chain

    def test_different_policies_give_different_chains(self):
        key = key4("10.1.2.3", "192.0.2.9", "1234", "443")
        chains = {}
        for name in ("round-robin", "field-order", "reverse-field-order"):
            builder = ChainBuilder.for_schema(SCHEMA_4F, get_policy(name), 4, 4)
            chains[name] = tuple(k.specificity_vector for k in builder.chain(key))
        assert chains["field-order"] != chains["reverse-field-order"]
        assert chains["round-robin"] != chains["field-order"]

    def test_rejects_level_set_without_root(self):
        with pytest.raises(ConfigurationError):
            ChainBuilder(RoundRobinPolicy(), [(32, 16), (32, 16, 0)])

    @pytest.mark.parametrize("name", available_policies())
    def test_every_policy_walks_each_level_once(self, name):
        """A trajectory lowers one feature by one level per step, whatever the policy."""
        builder = ChainBuilder.for_schema(SCHEMA_4F, get_policy(name), ip_stride=4, port_stride=4)
        trajectory = builder.trajectory()
        assert trajectory[0] == builder.max_specificity
        assert trajectory[-1] == (0, 0, 0, 0)
        assert len(trajectory) == 25
        for upper, lower in zip(trajectory, trajectory[1:]):
            changed = [i for i, (a, b) in enumerate(zip(upper, lower)) if a != b]
            assert len(changed) == 1
            levels = builder.level_sets[changed[0]]
            assert levels.index(lower[changed[0]]) == levels.index(upper[changed[0]]) + 1

    def test_fold_step_names_the_parent(self, builder):
        key = key4("10.1.2.3", "192.0.2.9", "1234", "443")
        index, target, vector = builder.fold_step(key.specificity_vector)
        parent = builder.parent(key)
        assert parent.specificity_vector == vector
        assert parent[index].specificity == target
        assert builder.fold_step(key.specificity_vector) == (index, target, vector)

    def test_root_has_an_empty_chain(self, builder):
        assert list(builder.chain(key4("*", "*", "*", "*"))) == []

    def test_tree_builder_follows_config_strides(self):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(ip_stride=8, port_stride=8))
        assert tree.chain_builder.level_sets == (
            (32, 24, 16, 8, 0), (32, 24, 16, 8, 0), (16, 8, 0), (16, 8, 0)
        )
        assert len(tree.chain_builder.trajectory()) == 4 + 4 + 2 + 2 + 1

    def test_builder_for_two_feature_schema(self):
        builder = ChainBuilder.for_schema(SCHEMA_2F_SRC_DST, RoundRobinPolicy(), 8, 8)
        key = key2("10.1.2.3", "192.0.2.9")
        assert len(list(builder.chain(key))) == 8
