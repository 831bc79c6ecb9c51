"""Serialization of Flowtree summaries.

The **compact binary format** (magic ``FTRE``, varint-encoded counters,
per-feature wire strings in a shared string table) is what sites ship, the
collector stores and the storage and transfer-cost experiments measure.  It
round-trips keys, complementary counters, the schema, the policy and
``max_nodes`` exactly; every other :class:`~repro.core.config.FlowtreeConfig`
field (``ip_stride``, ``port_stride``, ``count_bytes``, ...) reverts to its
default on decode.  The decoded tree rebuilds its structure through the
normal insertion path so all invariants hold.

:func:`to_json` writes the same content as a human-readable JSON document.
It exists for the size comparisons of :func:`size_report` (``flowtree
info``) and the storage report; there is no JSON decoder.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import FlowtreeError, SerializationError
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.node import Counters
from repro.features.schema import schema_by_name

MAGIC = b"FTRE"
FORMAT_VERSION = 2

#: A compressed body may inflate to at most this many times its own size.
#: Summaries of the caida and ddos traces inflate 1.9-3.7x, a tree of keys
#: that differ in one port only ~16x; the cap bounds what a decompression
#: bomb behind a valid header can make :func:`from_bytes` allocate.
MAX_INFLATE_RATIO = 64


# -- varint helpers -------------------------------------------------------------


def encode_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise SerializationError(f"cannot varint-encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode an unsigned varint at ``offset``; return ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SerializationError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def encode_zigzag(value: int, out: bytearray) -> None:
    """Append a signed varint (zig-zag encoding, so diffs with negative counters work)."""
    encode_varint(value << 1 if value >= 0 else ((-value) << 1) - 1, out)


def decode_zigzag(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode a signed (zig-zag) varint."""
    raw, offset = decode_varint(data, offset)
    value = (raw >> 1) ^ -(raw & 1)
    return value, offset


def _encode_string(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    encode_varint(len(raw), out)
    out.extend(raw)


def _decode_string(data: bytes, offset: int) -> Tuple[str, int]:
    length, offset = decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise SerializationError("truncated string")
    return data[offset:end].decode("utf-8"), end


# -- binary format --------------------------------------------------------------


def to_bytes(tree: Flowtree, compress: bool = True) -> bytes:
    """Encode a Flowtree into the compact binary summary format.

    With ``compress=True`` (the default) the payload is deflate-compressed,
    which is what a daemon would ship over the network; the header records
    whether compression was applied so :func:`from_bytes` is self-contained.
    """
    payload = bytearray()
    _encode_string(tree.schema.name, payload)
    _encode_string(tree.config.policy, payload)
    encode_varint(tree.config.max_nodes or 0, payload)

    items: List[Tuple[FlowKey, Counters]] = sorted(
        tree.items(), key=lambda item: (item[0].specificity, item[0].to_wire())
    )
    encode_varint(len(items), payload)
    for key, counters in items:
        parts = key.to_wire()
        encode_varint(len(parts), payload)
        for part in parts:
            _encode_string(part, payload)
        encode_zigzag(counters.packets, payload)
        encode_zigzag(counters.bytes, payload)
        encode_zigzag(counters.flows, payload)

    body = bytes(payload)
    flags = 0
    if compress:
        body = zlib.compress(body, level=6)
        flags |= 1
    header = MAGIC + struct.pack(">BBI", FORMAT_VERSION, flags, len(body))
    return header + body


def summary_header(data: bytes) -> Dict[str, int]:
    """Parse and validate a binary summary's header without decoding the body.

    Returns ``{"version", "compressed", "body_bytes"}``.  The storage
    backends use this to sanity-check payloads cheaply (a stored blob that
    fails here was torn or corrupted) and the store tooling uses it to
    report per-bin sizes without materializing trees.
    """
    if len(data) < len(MAGIC) + 6 or data[: len(MAGIC)] != MAGIC:
        raise SerializationError("not a Flowtree binary summary (bad magic)")
    version, flags, body_length = struct.unpack(
        ">BBI", data[len(MAGIC): len(MAGIC) + 6]
    )
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported Flowtree format version {version}")
    if len(data) - len(MAGIC) - 6 != body_length:
        raise SerializationError(
            f"truncated summary: header says {body_length} bytes, "
            f"got {len(data) - len(MAGIC) - 6}"
        )
    return {
        "version": version,
        "compressed": flags & 1,
        "body_bytes": body_length,
    }


def _inflate(body: bytes) -> bytes:
    """Decompress a summary body, refusing output past the inflate cap."""
    limit = MAX_INFLATE_RATIO * len(body)
    inflater = zlib.decompressobj()
    inflated = inflater.decompress(body, limit)
    if not inflater.eof:
        if inflater.unconsumed_tail or len(inflated) == limit:
            raise SerializationError(
                f"summary body inflates past {limit} bytes "
                f"({MAX_INFLATE_RATIO}x its {len(body)} compressed bytes)"
            )
        raise SerializationError("truncated deflate stream in summary body")
    return inflated


def from_bytes(data: bytes) -> Flowtree:
    """Decode a Flowtree produced by :func:`to_bytes`.

    Malformed input raises :class:`SerializationError` and nothing else.
    A body behind a valid header can still be a bad or oversized deflate
    stream, hold strings that are not UTF-8, or name keys, schemas or
    configurations the library rejects.  Collectors drop a summary on
    ``SerializationError`` and retry on any other exception, so an untyped
    escape would pin the bad message at the head of their backlog forever.
    """
    header = summary_header(data)
    body = data[len(MAGIC) + 6:]
    try:
        if header["compressed"]:
            body = _inflate(body)

        offset = 0
        schema_name, offset = _decode_string(body, offset)
        policy_name, offset = _decode_string(body, offset)
        max_nodes_raw, offset = decode_varint(body, offset)
        schema = schema_by_name(schema_name)
        config = FlowtreeConfig(
            max_nodes=max_nodes_raw or None,
            policy=policy_name,
        )
        tree = Flowtree(schema, config)

        count, offset = decode_varint(body, offset)
        for _ in range(count):
            arity, offset = decode_varint(body, offset)
            parts = []
            for _ in range(arity):
                part, offset = _decode_string(body, offset)
                parts.append(part)
            packets, offset = decode_zigzag(body, offset)
            byte_count, offset = decode_zigzag(body, offset)
            flows, offset = decode_zigzag(body, offset)
            key = FlowKey.from_wire(schema, parts)
            if key.is_root:
                node = tree.root
            else:
                node = tree._get_or_create_node(key)
            node.counters.packets += packets
            node.counters.bytes += byte_count
            node.counters.flows += flows
            node.invalidate_subtree_cache()
        return tree
    except SerializationError:
        raise
    except (zlib.error, ValueError, FlowtreeError) as exc:
        raise SerializationError(f"corrupt Flowtree summary: {exc}") from exc


# -- JSON format ----------------------------------------------------------------


def to_json(tree: Flowtree, indent: int = None) -> str:
    """Encode a Flowtree as a JSON document (larger but human-readable)."""
    items = sorted(tree.items(), key=lambda item: (item[0].specificity, item[0].to_wire()))
    document = {
        "format": "flowtree-json",
        "version": FORMAT_VERSION,
        "schema": tree.schema.name,
        "policy": tree.config.policy,
        "max_nodes": tree.config.max_nodes,
        "nodes": [
            {
                "key": list(key.to_wire()),
                "packets": counters.packets,
                "bytes": counters.bytes,
                "flows": counters.flows,
            }
            for key, counters in items
        ],
    }
    return json.dumps(document, indent=indent)


# -- size accounting -------------------------------------------------------------


def summary_size_bytes(tree: Flowtree, compress: bool = True) -> int:
    """Size of the binary summary in bytes (used by the storage benchmarks)."""
    return len(to_bytes(tree, compress=compress))


def size_report(tree: Flowtree) -> Dict[str, int]:
    """Sizes of every representation, for the storage-reduction experiment."""
    return {
        "nodes": tree.node_count(),
        "binary_bytes": len(to_bytes(tree, compress=False)),
        "binary_compressed_bytes": len(to_bytes(tree, compress=True)),
        "json_bytes": len(to_json(tree).encode("utf-8")),
    }
