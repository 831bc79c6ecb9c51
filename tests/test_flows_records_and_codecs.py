"""Tests for flow/packet records, the flow cache and the NetFlow/IPFIX codecs."""

import io

import pytest

from repro.core.errors import SerializationError
from repro.features.base import FeatureError
from repro.features.ipaddr import ipv4_to_int
from repro.flows.ipfix import (
    FLOW_RECORD_SIZE,
    IpfixDecoder,
    encode_message,
    encode_messages,
)
from repro.flows.ipfix import raw_export_size as ipfix_raw_size
from repro.flows.netflow import (
    HEADER_SIZE,
    MAX_RECORDS_PER_DATAGRAM,
    RECORD_SIZE,
    decode_datagram,
    decode_stream,
    encode_datagram,
    encode_datagrams,
    raw_export_size,
)
from repro.flows.records import FlowRecord, PacketRecord, packets_to_flows


class TestRecords:
    def test_packet_record_defaults(self):
        packet = PacketRecord(1.0, 1, 2, 3, 4)
        assert packet.packets == 1
        assert packet.protocol == 6
        assert packet.five_tuple == (6, 1, 2, 3, 4)

    def test_packet_validation(self):
        packet = PacketRecord(1.0, 1, 2, 3, 99999)
        with pytest.raises(FeatureError):
            packet.validate()

    def test_flow_record_properties(self):
        flow = FlowRecord(10.0, 20.0, 1, 2, 3, 4, packets=7, bytes=700)
        assert flow.duration == 10.0
        assert flow.timestamp == 10.0
        assert flow.five_tuple == (6, 1, 2, 3, 4)

    def test_flow_validation_rejects_reversed_times(self):
        flow = FlowRecord(20.0, 10.0, 1, 2, 3, 4)
        with pytest.raises(FeatureError):
            flow.validate()

    def test_flow_dict_round_trip(self):
        flow = FlowRecord(
            10.0, 20.0,
            ipv4_to_int("10.0.0.1"), ipv4_to_int("192.0.2.1"),
            1234, 443, protocol=17, packets=5, bytes=500, exporter="edge-1",
        )
        restored = FlowRecord.from_dict(flow.to_dict())
        assert restored.src_ip == flow.src_ip
        assert restored.dst_ip == flow.dst_ip
        assert restored.packets == 5
        assert restored.exporter == "edge-1"

    def test_packets_to_flows_aggregates_five_tuples(self, packet_records_small):
        flows = list(packets_to_flows(iter(packet_records_small)))
        # All packets share src/dst/protocol and cycle over 4 source ports.
        assert len(flows) == 4
        assert sum(flow.packets for flow in flows) == len(packet_records_small)
        assert sum(flow.bytes for flow in flows) == sum(p.bytes for p in packet_records_small)

    def test_packets_to_flows_active_timeout_splits_long_flows(self):
        packets = [PacketRecord(t, 1, 2, 3, 4, bytes=10) for t in (0.0, 10.0, 400.0)]
        flows = list(packets_to_flows(iter(packets), active_timeout=300.0))
        assert len(flows) == 2
        assert [flow.packets for flow in sorted(flows, key=lambda f: f.start_time)] == [2, 1]

    def test_packets_to_flows_sets_exporter(self, packet_records_small):
        flows = list(packets_to_flows(iter(packet_records_small), exporter="r1"))
        assert all(flow.exporter == "r1" for flow in flows)


class TestNetflowV5:
    def test_datagram_round_trip(self, flow_records_small):
        header, decoded = decode_datagram(
            encode_datagram(flow_records_small[:10], flow_sequence=5, base_time=1000.0)
        )
        assert header.version == 5
        assert header.count == 10
        assert header.flow_sequence == 5
        assert len(decoded) == 10
        for original, restored in zip(flow_records_small[:10], decoded):
            assert restored.src_ip == original.src_ip
            assert restored.dst_ip == original.dst_ip
            assert restored.src_port == original.src_port
            assert restored.dst_port == original.dst_port
            assert restored.protocol == original.protocol
            assert restored.packets == original.packets
            assert restored.bytes == original.bytes
            assert restored.start_time == pytest.approx(original.start_time, abs=0.002)

    def test_datagram_size_formula(self, flow_records_small):
        payload = encode_datagram(flow_records_small[:7])
        assert len(payload) == HEADER_SIZE + 7 * RECORD_SIZE

    def test_rejects_oversized_datagram(self, flow_records_small):
        too_many = flow_records_small * 2
        assert len(too_many) > MAX_RECORDS_PER_DATAGRAM
        with pytest.raises(SerializationError):
            encode_datagram(too_many)

    def test_stream_chunking(self, flow_records_small):
        flows = flow_records_small * 4  # 80 flows -> 3 datagrams
        datagrams = list(encode_datagrams(flows, base_time=990.0))
        assert len(datagrams) == 3
        decoded = list(decode_stream(datagrams, exporter="edge"))
        assert len(decoded) == len(flows)
        assert all(flow.exporter == "edge" for flow in decoded)

    def test_decode_rejects_wrong_version(self, flow_records_small):
        payload = bytearray(encode_datagram(flow_records_small[:1]))
        payload[1] = 9  # corrupt the version field
        with pytest.raises(SerializationError):
            decode_datagram(bytes(payload))

    def test_decode_rejects_truncation(self, flow_records_small):
        payload = encode_datagram(flow_records_small[:3])
        with pytest.raises(SerializationError):
            decode_datagram(payload[: HEADER_SIZE + RECORD_SIZE])

    def test_uptime_past_u32_raises_serialization_error(self):
        """Epoch-timestamped flows with the default ``base_time=0.0`` need
        an uptime of ~1.7e12 ms, which the header's u32 field cannot hold;
        the encoder used to let ``struct.error`` escape."""
        epoch_flows = [FlowRecord(1.7e9, 1.7e9 + 1.0, 1, 2, 3, 4)]
        with pytest.raises(SerializationError, match="sys_uptime"):
            encode_datagram(epoch_flows)
        with pytest.raises(SerializationError, match="sys_uptime"):
            list(encode_datagrams(epoch_flows))
        header, _ = decode_datagram(encode_datagram(epoch_flows, base_time=1.7e9))
        assert header.sys_uptime_ms == 1_000

    def test_uptime_bound_is_the_u32_range(self):
        fits = [FlowRecord(0.0, 4_294_967.0, 1, 2, 3, 4)]
        header, _ = decode_datagram(encode_datagram(fits))
        assert header.sys_uptime_ms == 4_294_967_000
        with pytest.raises(SerializationError, match="sys_uptime"):
            encode_datagram([FlowRecord(0.0, 4_294_968.0, 1, 2, 3, 4)])

    def test_raw_export_size(self):
        assert raw_export_size(0) == 0
        assert raw_export_size(1) == HEADER_SIZE + RECORD_SIZE
        assert raw_export_size(30) == HEADER_SIZE + 30 * RECORD_SIZE
        assert raw_export_size(31) == 2 * HEADER_SIZE + 31 * RECORD_SIZE
        # Exactly matches what encoding actually produces.
        flows = [FlowRecord(0, 1, 1, 2, 3, 4) for _ in range(75)]
        actual = sum(len(d) for d in encode_datagrams(flows))
        assert raw_export_size(75) == actual


class TestIpfix:
    def test_message_round_trip_with_template(self, flow_records_small):
        message = encode_message(flow_records_small, include_template=True)
        decoder = IpfixDecoder(exporter="edge-2")
        header, decoded = decoder.decode_message(message)
        assert header.version == 10
        assert len(decoded) == len(flow_records_small)
        assert decoded[0].exporter == "edge-2"
        assert decoded[0].packets == flow_records_small[0].packets
        assert decoded[0].bytes == flow_records_small[0].bytes

    def test_data_without_template_rejected(self, flow_records_small):
        message = encode_message(flow_records_small, include_template=False)
        with pytest.raises(SerializationError):
            IpfixDecoder().decode_message(message)

    def test_decoder_remembers_template_across_messages(self, flow_records_small):
        decoder = IpfixDecoder()
        first = encode_message(flow_records_small[:5], include_template=True)
        second = encode_message(flow_records_small[5:10], include_template=False)
        decoder.decode_message(first)
        _, decoded = decoder.decode_message(second)
        assert len(decoded) == 5

    def test_stream_encoding_batches(self, flow_records_small):
        messages = list(encode_messages(flow_records_small, records_per_message=8))
        assert len(messages) == 3
        decoded = list(IpfixDecoder().decode_stream(messages))
        assert len(decoded) == len(flow_records_small)

    def test_length_mismatch_rejected(self, flow_records_small):
        message = encode_message(flow_records_small[:2])
        with pytest.raises(SerializationError):
            IpfixDecoder().decode_message(message + b"extra")

    def test_rejects_bad_batch_size(self, flow_records_small):
        with pytest.raises(SerializationError):
            list(encode_messages(flow_records_small, records_per_message=0))

    def test_raw_export_size_close_to_actual(self, flow_records_small):
        flows = flow_records_small * 10  # 200 flows
        actual = sum(len(m) for m in encode_messages(flows, records_per_message=100))
        assert ipfix_raw_size(len(flows), records_per_message=100) == actual
        assert ipfix_raw_size(0) == 0
        assert ipfix_raw_size(1) > FLOW_RECORD_SIZE
