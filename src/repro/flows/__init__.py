"""Flow record substrate: records and codecs.

This package provides everything between "bytes on the wire / bytes on
disk" and "records a Flowtree can consume":

* :mod:`repro.flows.records` — :class:`PacketRecord` / :class:`FlowRecord`
  plus a flow-cache aggregation helper,
* :mod:`repro.flows.netflow` — NetFlow v5 binary codec,
* :mod:`repro.flows.ipfix` — template-based IPFIX codec,
* :mod:`repro.flows.pcap` — libpcap file reader/writer,
* :mod:`repro.flows.csv_io` — CSV archives.
"""

from repro.flows.records import FlowRecord, PacketRecord, packets_to_flows
from repro.flows.csv_io import csv_export_size, read_csv, write_csv
from repro.flows.netflow import (
    decode_datagram,
    decode_stream,
    encode_datagram,
    encode_datagrams,
)
from repro.flows.ipfix import IpfixDecoder, encode_message, encode_messages
from repro.flows.pcap import read_pcap, write_pcap

__all__ = [
    "PacketRecord",
    "FlowRecord",
    "packets_to_flows",
    "read_csv",
    "write_csv",
    "csv_export_size",
    "encode_datagram",
    "encode_datagrams",
    "decode_datagram",
    "decode_stream",
    "IpfixDecoder",
    "encode_message",
    "encode_messages",
    "read_pcap",
    "write_pcap",
]
