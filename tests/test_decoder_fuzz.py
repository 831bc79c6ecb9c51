"""Seeded mutation fuzz of the record and frame decoders.

Every decoder that reads bytes from outside the process promises one typed
error for malformed input: the flow codecs (NetFlow v5, IPFIX, pcap) raise
:class:`SerializationError`, the TCP frame decoder raises
:class:`TransportError`.  Callers drop or disconnect on exactly those
types, so an ``IndexError`` or ``struct.error`` escaping from a torn or
bit-flipped input would take a code path nobody wrote.  Each test mutates
a valid input 1,000 times per seed (overwrites, inserts, deletes,
truncations and random length fields) and lets only the typed error out.
The FTRE summary decoder has its own fuzz in
``test_core_serialization_estimator.py``.
"""

import io
import random

import pytest

from repro.core import Flowtree, FlowtreeConfig, to_bytes
from repro.core.errors import SerializationError, TransportError
from repro.distributed.messages import SUMMARY_FULL, SummaryMessage
from repro.distributed.net.framing import (
    AckFrame,
    FrameDecoder,
    HelloFrame,
    SummaryFrame,
    encode_ack,
    encode_frame,
    encode_hello,
    encode_summary,
    encode_summary_body,
)
from repro.features.schema import SCHEMA_4F
from repro.flows.ipfix import IpfixDecoder, encode_message
from repro.flows.netflow import decode_datagram, encode_datagram
from repro.flows.pcap import read_pcap, write_pcap
from repro.flows.records import FlowRecord, PacketRecord

SEEDS = [11, 22, 33]
MUTATIONS_PER_SEED = 1_000


def mutate(data, rng):
    """1-4 random edits of ``data``: the shapes torn and corrupt input takes."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        choice = rng.randrange(5)
        if choice == 0 and out:
            out[rng.randrange(len(out))] = rng.randrange(256)
        elif choice == 1:
            out.insert(rng.randrange(len(out) + 1), rng.randrange(256))
        elif choice == 2 and out:
            del out[rng.randrange(len(out))]
        elif choice == 3 and out:
            del out[rng.randrange(len(out)):]
        elif len(out) >= 4:
            # A random length-sized field: where hostile sizes hide.
            at = rng.randrange(len(out) - 3)
            width = rng.choice((2, 4))
            value = rng.randrange(1 << (8 * width))
            out[at:at + width] = value.to_bytes(width, "big")
    return bytes(out)


def fuzz(valid, decode, allowed, seed):
    """Decode mutations of ``valid``; return how many were rejected."""
    rng = random.Random(seed)
    rejected = 0
    for _ in range(MUTATIONS_PER_SEED):
        try:
            decode(mutate(valid, rng))
        except allowed:
            rejected += 1
    return rejected


def flows(count=12):
    return [
        FlowRecord(
            start_time=1_000.0 + i,
            end_time=1_000.5 + i,
            src_ip=0x0A000001 + i,
            dst_ip=0xC0000201,
            src_port=40_000 + i,
            dst_port=443,
            protocol=6 if i % 2 else 17,
            packets=3 + i,
            bytes=1_500 * (3 + i),
            tcp_flags=0x18,
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_netflow_v5_decoder_raises_only_serialization_errors(seed):
    valid = encode_datagram(flows(), flow_sequence=7, base_time=990.0)
    decode_datagram(valid)
    assert fuzz(valid, decode_datagram, SerializationError, seed) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_ipfix_decoder_raises_only_serialization_errors(seed):
    valid = encode_message(flows(), include_template=True)
    IpfixDecoder().decode_message(valid)

    def decode(data):
        IpfixDecoder(exporter="edge").decode_message(data)

    assert fuzz(valid, decode, SerializationError, seed) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_pcap_reader_raises_only_serialization_errors(seed):
    packets = [
        PacketRecord(
            timestamp=1_000.0 + i / 10,
            src_ip=0x0A000001 + i,
            dst_ip=0xC0000201,
            src_port=40_000 + i,
            dst_port=80,
            protocol=(6, 17, 1)[i % 3],
            bytes=60 + i,
        )
        for i in range(8)
    ]
    buffer = io.BytesIO()
    write_pcap(buffer, packets)
    valid = buffer.getvalue()
    assert len(list(read_pcap(io.BytesIO(valid)))) == len(packets)

    def decode(data):
        list(read_pcap(io.BytesIO(data)))

    assert fuzz(valid, decode, SerializationError, seed) > 0


def _feed_in_chunks(frame_bytes, rng):
    decoder = FrameDecoder()
    cut = rng.randrange(len(frame_bytes) + 1)
    return decoder.feed(frame_bytes[:cut]) + decoder.feed(frame_bytes[cut:])


def _summary_body():
    tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=32))
    tree.add_records(
        PacketRecord(
            timestamp=0.0, src_ip=0x0A000001, dst_ip=0xC0000201,
            src_port=40_000 + port, dst_port=443, protocol=6, bytes=100,
        )
        for port in range(20)
    )
    message = SummaryMessage(
        site="edge-1", bin_index=3, bin_start=0.3, bin_end=0.4,
        kind=SUMMARY_FULL, payload=to_bytes(tree), record_count=20, sequence=9,
    )
    return encode_summary(1, encode_summary_body(message))


FRAME_BODIES = {
    "ack": (lambda: encode_ack(41), AckFrame),
    "hello": (lambda: encode_hello("edge-1", "collector-0"), HelloFrame),
    "summary": (_summary_body, SummaryFrame),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(FRAME_BODIES))
def test_frame_decoder_raises_only_transport_errors(kind, seed):
    """Two fuzz passes per frame kind: mutations of the whole wire frame
    (mostly caught by the length and CRC checks), and mutations of the
    body re-framed with a valid CRC, which reach the body parser."""
    build, frame_type = FRAME_BODIES[kind]
    body = build()
    (frame,) = FrameDecoder().feed(encode_frame(body))
    assert isinstance(frame, frame_type)
    chunks = random.Random(seed)

    def decode_wire(data):
        _feed_in_chunks(data, chunks)

    def decode_body(data):
        _feed_in_chunks(encode_frame(data), chunks)

    assert fuzz(encode_frame(body), decode_wire, TransportError, seed) > 0
    assert fuzz(body, decode_body, TransportError, seed) > 0

