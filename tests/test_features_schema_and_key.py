"""Tests for flow schemas and FlowKey lattice operations."""

import pytest

from helpers import key2, key4, make_record
from repro.core.errors import KeyError_
from repro.core.key import FlowKey
from repro.features.base import FeatureError
from repro.features.ipaddr import IPv4Prefix
from repro.features.ports import PortRange
from repro.features.protocol import Protocol
from repro.features.schema import (
    SCHEMA_1F_SRC,
    SCHEMA_2F_SRC_DST,
    SCHEMA_4F,
    SCHEMA_5F,
    FlowSchema,
    schema_by_name,
)


class TestFlowSchema:
    def test_builtin_schema_arities(self):
        assert len(SCHEMA_1F_SRC) == 1
        assert len(SCHEMA_2F_SRC_DST) == 2
        assert len(SCHEMA_4F) == 4
        assert len(SCHEMA_5F) == 5

    def test_schema_by_name(self):
        assert schema_by_name("4f") is SCHEMA_4F
        with pytest.raises(FeatureError):
            schema_by_name("no-such-schema")

    def test_features_of_record(self):
        record = make_record(src="10.0.0.1", dst="192.0.2.5", sport=1234, dport=443)
        features = SCHEMA_4F.features_of(record)
        assert features[0] == IPv4Prefix.host("10.0.0.1")
        assert features[1] == IPv4Prefix.host("192.0.2.5")
        assert features[2] == PortRange.single(1234)
        assert features[3] == PortRange.single(443)

    def test_five_feature_schema_includes_protocol(self):
        record = make_record(protocol=17)
        features = SCHEMA_5F.features_of(record)
        assert features[0] == Protocol.udp()

    def test_root_features_are_all_wildcards(self):
        assert all(feature.is_root for feature in SCHEMA_4F.root_features())

    def test_rejects_unknown_field(self):
        with pytest.raises(FeatureError):
            FlowSchema("bad", ["src_ip", "colour"])

    def test_rejects_duplicate_fields(self):
        with pytest.raises(FeatureError):
            FlowSchema("bad", ["src_ip", "src_ip"])

    def test_rejects_empty_schema(self):
        with pytest.raises(FeatureError):
            FlowSchema("bad", [])

    def test_equality_by_fields(self):
        clone = FlowSchema("other-name", ["src_ip", "dst_ip"])
        assert clone == SCHEMA_2F_SRC_DST
        assert hash(clone) == hash(SCHEMA_2F_SRC_DST)

    def test_feature_from_wire(self):
        feature = SCHEMA_4F.feature_from_wire(3, "443")
        assert feature == PortRange.single(443)


class TestFlowKey:
    def test_from_record_round_trip(self):
        record = make_record()
        key = FlowKey.from_record(SCHEMA_4F, record)
        assert key.arity == 4
        assert not key.is_root
        assert FlowKey.from_wire(SCHEMA_4F, key.to_wire()) == key

    def test_root_key(self):
        root = FlowKey.root(SCHEMA_4F)
        assert root.is_root
        assert root.specificity == 0
        assert root.cardinality == (2 ** 32) ** 2 * 65536 ** 2

    def test_specificity_vector(self):
        key = key4("10.0.0.0/8", "*", "80", "*")
        assert key.specificity_vector == (8, 0, 16, 0)
        assert key.specificity == 24

    def test_contains_per_feature(self):
        parent = key4("10.0.0.0/8", "*", "*", "*")
        child = key4("10.1.2.3", "192.0.2.1", "1234", "443")
        assert parent.contains(child)
        assert not child.contains(parent)

    def test_contains_requires_all_features(self):
        a = key4("10.0.0.0/8", "192.0.2.0/24", "*", "*")
        b = key4("10.1.0.0/16", "198.51.100.0/24", "*", "*")
        assert not a.contains(b)

    def test_contains_different_arity_is_false(self):
        assert not key2("10.0.0.0/8", "*").contains(key4("10.0.0.1", "1.2.3.4", "1", "2"))

    def test_generalize_feature(self):
        key = key4("10.0.0.0/8", "*", "*", "*")
        parent = key.generalize_feature(0)
        assert parent.specificity_vector == (7, 0, 0, 0)

    def test_generalize_feature_at_root_is_identity(self):
        key = key4("*", "*", "*", "*")
        assert key.generalize_feature(1) == key

    def test_generalize_feature_bad_index(self):
        with pytest.raises(KeyError_):
            key2("*", "*").generalize_feature(5)

    def test_generalize_to_vector(self):
        key = key4("10.1.2.3", "192.0.2.9", "1234", "443")
        projected = key.generalize_to_vector((8, 0, 0, 16))
        assert projected.specificity_vector == (8, 0, 0, 16)
        assert projected[0].to_wire() == "10.0.0.0/8"
        assert projected[3] == PortRange.single(443)

    def test_generalize_to_vector_rejects_specialization(self):
        with pytest.raises(KeyError_):
            key4("10.0.0.0/8", "*", "*", "*").generalize_to_vector((16, 0, 0, 0))

    def test_generalize_feature_to(self):
        key = key4("10.1.2.3", "*", "*", "*")
        assert key.generalize_feature_to(0, 24).specificity_vector == (24, 0, 0, 0)

    def test_common_ancestor(self):
        a = key2("10.0.0.1", "192.0.2.1")
        b = key2("10.0.0.2", "192.0.2.1")
        ancestor = a.common_ancestor(b)
        assert ancestor.contains(a) and ancestor.contains(b)
        assert ancestor[1] == IPv4Prefix.host("192.0.2.1")

    def test_common_ancestor_arity_mismatch(self):
        with pytest.raises(KeyError_):
            key2("*", "*").common_ancestor(key4("*", "*", "*", "*"))

    def test_equality_hash_and_ordering(self):
        a = key2("10.0.0.1", "192.0.2.1")
        b = key2("10.0.0.1", "192.0.2.1")
        assert a == b and hash(a) == hash(b)
        assert sorted([key2("9.0.0.0/8", "*"), a]) == sorted([a, key2("9.0.0.0/8", "*")])

    def test_pretty_rendering(self):
        assert key2("10.0.0.0/8", "*").pretty() == "(10.0.0.0/8, 0.0.0.0/0)"

    def test_iteration_and_indexing(self):
        key = key4("10.0.0.1", "192.0.2.1", "80", "443")
        assert len(key) == 4
        assert key[2] == PortRange.single(80)
        assert [feature.specificity for feature in key] == [32, 32, 16, 16]

    def test_empty_key_rejected(self):
        with pytest.raises(KeyError_):
            FlowKey(())

    def test_wire_arity_mismatch(self):
        with pytest.raises(KeyError_):
            FlowKey.from_wire(SCHEMA_4F, ("*", "*"))
