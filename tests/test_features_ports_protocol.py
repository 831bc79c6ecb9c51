"""Tests for port-range, protocol and categorical features."""

import pytest

from repro.features.base import FeatureError, ParseError
from repro.features.ports import MAX_PORT, PORT_BITS, PortRange, well_known_service
from repro.features.protocol import Protocol


class TestPortRange:
    def test_single_port(self):
        port = PortRange.single(443)
        assert port.low == port.high == 443
        assert port.is_single
        assert port.cardinality == 1
        assert port.specificity == PORT_BITS

    def test_root_covers_everything(self):
        root = PortRange.root()
        assert root.low == 0
        assert root.high == MAX_PORT
        assert root.is_root
        assert root.cardinality == 65536

    def test_rejects_out_of_range_port(self):
        with pytest.raises(FeatureError):
            PortRange.single(70_000)

    def test_rejects_misaligned_base(self):
        with pytest.raises(FeatureError):
            PortRange(81, 15)

    def test_generalize_doubles_width(self):
        port = PortRange.single(80)
        wider = port.generalize()
        assert wider.cardinality == 2
        assert wider.contains(port)

    def test_generalize_to(self):
        port = PortRange.single(1500)
        wide = port.generalize_to(6)
        assert wide.cardinality == 1 << 10
        assert wide.contains(port)

    def test_generalize_to_rejects_specialization(self):
        with pytest.raises(FeatureError):
            PortRange.root().generalize_to(4)

    def test_covering_range(self):
        covering = PortRange.covering(1024, 1536)
        assert covering.low <= 1024
        assert covering.high >= 1536
        assert covering.low % covering.cardinality == 0

    def test_covering_single_value(self):
        assert PortRange.covering(80, 80) == PortRange.single(80)

    def test_contains_port(self):
        port_range = PortRange(1024, 6)
        assert port_range.contains_port(1500)
        assert not port_range.contains_port(80)

    def test_contains_rejects_other_feature_types(self):
        assert not PortRange.root().contains(Protocol.tcp())

    def test_wire_round_trip_single(self):
        assert PortRange.from_wire("8080") == PortRange.single(8080)

    def test_wire_round_trip_range(self):
        original = PortRange(1024, 6)
        assert PortRange.from_wire(original.to_wire()) == original

    def test_wire_wildcard(self):
        assert PortRange.from_wire("*").is_root

    def test_wire_rejects_unaligned_range(self):
        with pytest.raises(ParseError):
            PortRange.from_wire("100-200")

    def test_wire_rejects_garbage(self):
        with pytest.raises(ParseError):
            PortRange.from_wire("http")

    def test_equality_and_hash(self):
        assert PortRange.single(53) == PortRange.single(53)
        assert hash(PortRange.single(53)) == hash(PortRange.single(53))
        assert PortRange.single(53) != PortRange.single(54)

    def test_well_known_service_names(self):
        assert well_known_service(443) == "https"
        assert well_known_service(PortRange.single(22)) == "ssh"
        assert well_known_service(PortRange(1024, 6)) == "1024-2047"
        assert well_known_service(6100) == "6100"


class TestProtocol:
    def test_named_constructors(self):
        assert Protocol.tcp().number == 6
        assert Protocol.udp().number == 17
        assert Protocol.icmp().number == 1

    def test_root_is_wildcard(self):
        root = Protocol.root()
        assert root.is_root
        assert root.number is None
        assert root.cardinality == 256

    def test_parse_by_name_and_number(self):
        assert Protocol("tcp") == Protocol(6)
        assert Protocol("17") == Protocol.udp()

    def test_rejects_unknown_name(self):
        with pytest.raises(ParseError):
            Protocol("carrier-pigeon")

    def test_rejects_out_of_range(self):
        with pytest.raises(FeatureError):
            Protocol(300)

    def test_generalize_goes_to_root(self):
        assert Protocol.tcp().generalize().is_root

    def test_contains(self):
        assert Protocol.root().contains(Protocol.tcp())
        assert not Protocol.tcp().contains(Protocol.udp())
        assert Protocol.tcp().contains(Protocol.tcp())

    def test_wire_round_trip(self):
        assert Protocol.from_wire(Protocol.tcp().to_wire()) == Protocol.tcp()
        assert Protocol.from_wire("*").is_root

    def test_name_rendering(self):
        assert Protocol.tcp().name == "tcp"
        assert Protocol(123).name == "proto-123"
        assert Protocol.root().name == "*"
