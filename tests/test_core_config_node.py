"""Tests for FlowtreeConfig validation and node/counter primitives."""

from dataclasses import replace

import pytest

from helpers import key2
from repro.core.config import EXACT_CONFIG, PAPER_EVAL_CONFIG, FlowtreeConfig
from repro.core.errors import ConfigurationError
from repro.core.node import Counters, FlowtreeNode


class TestFlowtreeConfig:
    def test_defaults_match_paper_shape(self):
        config = FlowtreeConfig()
        assert config.max_nodes == 40_000
        assert config.policy == "round-robin"
        assert config.compaction_enabled

    def test_paper_eval_config(self):
        assert PAPER_EVAL_CONFIG.max_nodes == 40_000

    def test_exact_config_disables_compaction(self):
        assert EXACT_CONFIG.max_nodes is None
        assert not EXACT_CONFIG.compaction_enabled
        assert EXACT_CONFIG.target_nodes is None

    def test_target_nodes(self):
        config = FlowtreeConfig(max_nodes=1_000, target_fill=0.5)
        assert config.target_nodes == 500

    def test_target_nodes_floor(self):
        config = FlowtreeConfig(max_nodes=20, target_fill=0.1)
        assert config.target_nodes == 16

    def test_rejects_tiny_budget(self):
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(max_nodes=4)

    def test_rejects_non_integer_budget(self):
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(max_nodes=2.5)

    def test_rejects_bad_target_fill(self):
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(target_fill=0.0)
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(target_fill=1.5)

    def test_rejects_bad_victim_batch(self):
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(victim_batch=0)

    def test_rejects_negative_protection(self):
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(protected_min_count=-1)

    def test_rejects_bad_strides(self):
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(ip_stride=0)
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(ip_stride=40)
        with pytest.raises(ConfigurationError):
            FlowtreeConfig(port_stride=17)


    def test_replace_copies_and_keeps_other_fields(self):
        config = FlowtreeConfig(max_nodes=1_000, ip_stride=8)
        changed = replace(config, policy="field-order")
        assert changed.policy == "field-order"
        assert (changed.max_nodes, changed.ip_stride) == (1_000, 8)
        assert config.policy == "round-robin"

    def test_replace_is_validated(self):
        with pytest.raises(ConfigurationError):
            replace(FlowtreeConfig(), max_nodes=4)
        with pytest.raises(ConfigurationError):
            replace(FlowtreeConfig(), port_stride=0)

class TestCounters:
    def test_add_and_subtract_in_place(self):
        a = Counters(10, 1_000, 2)
        a.add(Counters(5, 500, 1))
        assert a == Counters(15, 1_500, 3)
        a.subtract(Counters(20, 0, 0))
        assert a.packets == -5

    def test_operators_return_new_objects(self):
        a = Counters(1, 2, 3)
        b = Counters(4, 5, 6)
        assert a + b == Counters(5, 7, 9)
        assert b - a == Counters(3, 3, 3)
        assert a == Counters(1, 2, 3)  # unchanged

    def test_scaled_rounds(self):
        assert Counters(10, 100, 4).scaled(0.25) == Counters(2, 25, 1)
        assert Counters(3, 3, 3).scaled(0.5) == Counters(2, 2, 2)

    def test_copy_is_independent(self):
        a = Counters(1, 1, 1)
        b = a.copy()
        b.packets = 99
        assert a.packets == 1

    def test_is_zero(self):
        assert Counters().is_zero
        assert not Counters(packets=1).is_zero

    def test_weight_by_metric(self):
        counters = Counters(7, 700, 3)
        assert counters.weight("packets") == 7
        assert counters.weight("bytes") == 700
        assert counters.weight("flows") == 3
        with pytest.raises(ValueError):
            counters.weight("hops")


class TestFlowtreeNode:
    def test_attach_and_detach(self):
        parent = FlowtreeNode(key2("10.0.0.0/8", "*"))
        child = FlowtreeNode(key2("10.1.0.0/16", "*"))
        parent.attach_child(child)
        assert child.parent is parent
        assert not parent.is_leaf
        child.detach()
        assert child.parent is None
        assert parent.is_leaf

    def test_reattach_moves_between_parents(self):
        first = FlowtreeNode(key2("10.0.0.0/8", "*"))
        second = FlowtreeNode(key2("10.1.0.0/16", "*"))
        child = FlowtreeNode(key2("10.1.2.0/24", "*"))
        first.attach_child(child)
        second.attach_child(child)
        assert child.parent is second
        assert child.key not in first.children

    def test_depth(self):
        a = FlowtreeNode(key2("*", "*"))
        b = FlowtreeNode(key2("10.0.0.0/8", "*"))
        c = FlowtreeNode(key2("10.1.0.0/16", "*"))
        a.attach_child(b)
        b.attach_child(c)
        assert a.depth == 0
        assert c.depth == 2

    def test_iter_subtree_and_sum(self):
        root = FlowtreeNode(key2("*", "*"))
        mid = FlowtreeNode(key2("10.0.0.0/8", "*"))
        leaf = FlowtreeNode(key2("10.1.0.0/16", "*"))
        root.attach_child(mid)
        mid.attach_child(leaf)
        root.counters.packets = 1
        mid.counters.packets = 2
        leaf.counters.packets = 3
        keys = {node.key for node in root.iter_subtree()}
        assert len(keys) == 3
        assert root.subtree_counters().packets == 6
        assert mid.subtree_counters().packets == 5

    def test_repr_mentions_key_and_count(self):
        node = FlowtreeNode(key2("10.0.0.0/8", "*"))
        node.counters.packets = 42
        assert "10.0.0.0/8" in repr(node)
        assert "42" in repr(node)
