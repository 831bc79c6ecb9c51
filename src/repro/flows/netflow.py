"""NetFlow v5 encoder/decoder.

NetFlow v5 is the lowest common denominator of flow export and the format
the paper's architecture (Fig. 1) assumes routers speak to their nearby
Flowtree daemon.  The codec implements the full binary layout: a 24-byte
header followed by up to 30 fixed 48-byte records per datagram.  Fields we
do not model (input/output SNMP interfaces, AS numbers, next hop) are
emitted as zero and ignored on decode, exactly how most collectors treat
them.

The raw-capture sizes produced by :func:`encode_datagrams` are what the
storage-reduction experiment (CLAIM-STORAGE) compares Flowtree summaries
against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import SerializationError
from repro.flows.records import FlowRecord

HEADER_FORMAT = "!HHIIIIBBH"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)
RECORD_FORMAT = "!IIIHHIIIIHHBBBBHHBBH"
RECORD_SIZE = struct.calcsize(RECORD_FORMAT)
MAX_RECORDS_PER_DATAGRAM = 30
NETFLOW_V5 = 5


@dataclass(frozen=True)
class NetflowHeader:
    """Decoded NetFlow v5 datagram header."""

    version: int
    count: int
    sys_uptime_ms: int
    unix_secs: int
    unix_nsecs: int
    flow_sequence: int
    engine_type: int = 0
    engine_id: int = 0
    sampling_interval: int = 0


def encode_datagram(
    flows: Sequence[FlowRecord],
    flow_sequence: int = 0,
    base_time: float = 0.0,
) -> bytes:
    """Encode up to 30 flow records as one NetFlow v5 datagram.

    ``base_time`` anchors the router's uptime clock; record first/last
    switched timestamps are expressed relative to it, as on a real router.
    The uptime must fit the header's u32 milliseconds (about 49.7 days), so
    epoch-timestamped flows need a ``base_time`` near their start.
    """
    if len(flows) > MAX_RECORDS_PER_DATAGRAM:
        raise SerializationError(
            f"a NetFlow v5 datagram holds at most {MAX_RECORDS_PER_DATAGRAM} records, "
            f"got {len(flows)}"
        )
    if flows:
        export_time = max(flow.end_time for flow in flows)
    else:
        export_time = base_time
    sys_uptime_ms = int(max(0.0, export_time - base_time) * 1000)
    if sys_uptime_ms > 0xFFFFFFFF:
        raise SerializationError(
            f"uptime of {sys_uptime_ms} ms since base_time={base_time} does not "
            f"fit NetFlow v5's u32 sys_uptime field; pass a later base_time"
        )
    header = struct.pack(
        HEADER_FORMAT,
        NETFLOW_V5,
        len(flows),
        sys_uptime_ms,
        int(export_time),
        int((export_time % 1.0) * 1e9),
        flow_sequence,
        0,
        0,
        0,
    )
    body = bytearray()
    for flow in flows:
        first_ms = int(max(0.0, flow.start_time - base_time) * 1000)
        last_ms = int(max(0.0, flow.end_time - base_time) * 1000)
        body.extend(
            struct.pack(
                RECORD_FORMAT,
                flow.src_ip,
                flow.dst_ip,
                0,  # next hop
                0,  # input interface
                0,  # output interface
                flow.packets & 0xFFFFFFFF,
                flow.bytes & 0xFFFFFFFF,
                first_ms & 0xFFFFFFFF,
                last_ms & 0xFFFFFFFF,
                flow.src_port,
                flow.dst_port,
                0,  # pad1
                flow.tcp_flags & 0xFF,
                flow.protocol & 0xFF,
                0,  # ToS
                0,  # src AS
                0,  # dst AS
                0,  # src mask
                0,  # dst mask
                0,  # pad2
            )
        )
    return header + bytes(body)


def encode_datagrams(
    flows: Iterable[FlowRecord],
    base_time: float = 0.0,
) -> Iterator[bytes]:
    """Pack an arbitrary number of flows into a sequence of v5 datagrams."""
    batch: List[FlowRecord] = []
    sequence = 0
    for flow in flows:
        batch.append(flow)
        if len(batch) == MAX_RECORDS_PER_DATAGRAM:
            yield encode_datagram(batch, flow_sequence=sequence, base_time=base_time)
            sequence += len(batch)
            batch = []
    if batch:
        yield encode_datagram(batch, flow_sequence=sequence, base_time=base_time)


def decode_datagram(
    data: bytes, exporter: Optional[str] = None
) -> Tuple[NetflowHeader, List[FlowRecord]]:
    """Decode one NetFlow v5 datagram into its header and flow records."""
    if len(data) < HEADER_SIZE:
        raise SerializationError(
            f"datagram too short for a NetFlow v5 header ({len(data)} bytes)"
        )
    fields = struct.unpack(HEADER_FORMAT, data[:HEADER_SIZE])
    header = NetflowHeader(
        version=fields[0],
        count=fields[1],
        sys_uptime_ms=fields[2],
        unix_secs=fields[3],
        unix_nsecs=fields[4],
        flow_sequence=fields[5],
        engine_type=fields[6],
        engine_id=fields[7],
        sampling_interval=fields[8],
    )
    if header.version != NETFLOW_V5:
        raise SerializationError(f"unsupported NetFlow version {header.version}")
    expected = HEADER_SIZE + header.count * RECORD_SIZE
    if len(data) < expected:
        raise SerializationError(
            f"truncated NetFlow v5 datagram: header says {header.count} records "
            f"({expected} bytes), got {len(data)} bytes"
        )
    base_time = header.unix_secs + header.unix_nsecs / 1e9 - header.sys_uptime_ms / 1000.0
    flows = []
    offset = HEADER_SIZE
    for _ in range(header.count):
        record = struct.unpack(RECORD_FORMAT, data[offset: offset + RECORD_SIZE])
        offset += RECORD_SIZE
        flows.append(
            FlowRecord(
                start_time=base_time + record[7] / 1000.0,
                end_time=base_time + record[8] / 1000.0,
                src_ip=record[0],
                dst_ip=record[1],
                src_port=record[9],
                dst_port=record[10],
                protocol=record[13],
                packets=record[5],
                bytes=record[6],
                tcp_flags=record[12],
                exporter=exporter,
            )
        )
    return header, flows


def decode_stream(datagrams: Iterable[bytes], exporter: str = None) -> Iterator[FlowRecord]:
    """Decode a sequence of datagrams into one stream of flow records."""
    for datagram in datagrams:
        _, flows = decode_datagram(datagram, exporter=exporter)
        yield from flows


def raw_export_size(flow_count: int) -> int:
    """Exact number of NetFlow v5 bytes needed to export ``flow_count`` flows.

    Used by the storage experiment to compute the raw-capture baseline
    without materializing gigabytes of datagrams.
    """
    if flow_count <= 0:
        return 0
    full, remainder = divmod(flow_count, MAX_RECORDS_PER_DATAGRAM)
    size = full * (HEADER_SIZE + MAX_RECORDS_PER_DATAGRAM * RECORD_SIZE)
    if remainder:
        size += HEADER_SIZE + remainder * RECORD_SIZE
    return size
