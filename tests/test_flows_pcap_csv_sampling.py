"""Tests for the pcap reader/writer and CSV archives."""

import io

import pytest

from repro.core.errors import SerializationError
from repro.features.ipaddr import ipv4_to_int
from repro.flows.csv_io import csv_export_size, flows_to_csv_text, read_csv, write_csv
from repro.flows.pcap import read_pcap, write_pcap
from repro.flows.records import FlowRecord, PacketRecord


class TestPcap:
    def test_round_trip_tcp_and_udp(self, packet_records_small):
        tcp = PacketRecord(1.5, ipv4_to_int("10.0.0.1"), ipv4_to_int("192.0.2.1"),
                           12345, 443, protocol=6, bytes=600, tcp_flags=0x12)
        packets = [tcp] + packet_records_small[:5]
        buffer = io.BytesIO()
        assert write_pcap(buffer, packets) == len(packets)
        buffer.seek(0)
        decoded = list(read_pcap(buffer))
        assert len(decoded) == len(packets)
        assert decoded[0].src_port == 12345
        assert decoded[0].dst_port == 443
        assert decoded[0].protocol == 6
        assert decoded[0].tcp_flags == 0x12
        assert decoded[1].protocol == 17
        assert decoded[1].src_ip == packet_records_small[0].src_ip

    def test_timestamps_preserved(self):
        packet = PacketRecord(1234.5678, 1, 2, 3, 4, bytes=100)
        buffer = io.BytesIO()
        write_pcap(buffer, [packet])
        buffer.seek(0)
        decoded = next(read_pcap(buffer))
        assert decoded.timestamp == pytest.approx(1234.5678, abs=1e-4)

    def test_icmp_packet_has_zero_ports(self):
        packet = PacketRecord(1.0, 1, 2, 0, 0, protocol=1, bytes=64)
        buffer = io.BytesIO()
        write_pcap(buffer, [packet])
        buffer.seek(0)
        decoded = next(read_pcap(buffer))
        assert decoded.protocol == 1
        assert decoded.src_port == 0 and decoded.dst_port == 0

    def test_file_round_trip(self, tmp_path, packet_records_small):
        path = tmp_path / "capture.pcap"
        write_pcap(path, packet_records_small)
        decoded = list(read_pcap(path))
        assert len(decoded) == len(packet_records_small)

    def test_rejects_non_pcap_data(self):
        with pytest.raises(SerializationError):
            list(read_pcap(io.BytesIO(b"definitely not a capture file")))

    def test_rejects_truncated_packet(self, packet_records_small):
        buffer = io.BytesIO()
        write_pcap(buffer, packet_records_small[:1])
        data = buffer.getvalue()
        with pytest.raises(SerializationError):
            list(read_pcap(io.BytesIO(data[:-5])))


class TestCsv:
    def test_round_trip(self, flow_records_small, tmp_path):
        path = tmp_path / "flows.csv"
        assert write_csv(path, flow_records_small) == len(flow_records_small)
        decoded = list(read_csv(path))
        assert len(decoded) == len(flow_records_small)
        assert decoded[0].src_ip == flow_records_small[0].src_ip
        assert decoded[0].dst_port == flow_records_small[0].dst_port
        assert decoded[-1].packets == flow_records_small[-1].packets

    def test_text_helpers(self, flow_records_small):
        text = flows_to_csv_text(flow_records_small)
        assert text.splitlines()[0].startswith("start_time,")
        assert csv_export_size(flow_records_small) == len(text.encode("utf-8"))

    def test_read_rejects_empty_file(self):
        with pytest.raises(SerializationError):
            list(read_csv(io.StringIO("")))

    def test_read_rejects_missing_columns(self):
        with pytest.raises(SerializationError):
            list(read_csv(io.StringIO("src_ip,dst_ip\n1.1.1.1,2.2.2.2\n")))

    def test_read_reports_malformed_line(self):
        text = (
            "start_time,end_time,src_ip,dst_ip,src_port,dst_port,protocol,packets,bytes\n"
            "1,2,10.0.0.1,192.0.2.1,80,not-a-port,6,1,100\n"
        )
        with pytest.raises(SerializationError) as excinfo:
            list(read_csv(io.StringIO(text)))
        assert "line 2" in str(excinfo.value)
