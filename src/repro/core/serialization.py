"""Serialization of Flowtree summaries.

Three formats are provided:

* a **compact binary format** (magic ``FTRE``, varint-encoded counters,
  per-feature wire strings in a shared string table) used for the storage
  and transfer-cost experiments, and
* a **JSON format** for interoperability, debugging and long-term archival,
* a **compact sub-batch format** (magic ``FTAB``) carrying pre-aggregated
  ``(key, packets, bytes, flows)`` tuples across the process boundary of
  the parallel ingestion executor (:mod:`repro.core.parallel`).

All round-trip exactly: keys, complementary counters, schema and
configuration are preserved, and the decoded tree rebuilds its structure
through the normal insertion path so all invariants hold.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import SerializationError
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.node import Counters
from repro.features.ipaddr import IPV4_WIDTH, IPV6_WIDTH, IPv4Prefix, IPv6Prefix
from repro.features.ports import PORT_BITS, PortRange
from repro.features.protocol import MAX_PROTOCOL, Protocol
from repro.features.schema import FlowSchema, schema_by_name

MAGIC = b"FTRE"
FORMAT_VERSION = 2


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


def from_bytes(data: bytes) -> Flowtree:
    """Decode a Flowtree produced by :func:`to_bytes`."""
    if len(data) < len(MAGIC) + 6 or data[: len(MAGIC)] != MAGIC:
        raise SerializationError("not a Flowtree binary summary (bad magic)")
    version, flags, body_length = struct.unpack(
        ">BBI", data[len(MAGIC): len(MAGIC) + 6]
    )
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported Flowtree format version {version}")
    body = data[len(MAGIC) + 6:]
    if len(body) != body_length:
        raise SerializationError(
            f"truncated summary: header says {body_length} bytes, got {len(body)}"
        )
    if flags & 1:
        body = zlib.decompress(body)

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


# -- aggregated sub-batch format -------------------------------------------------

BATCH_MAGIC = b"FTAB"
#: Version 3 has the version-2 section layout; the bump marks the removal
#: of the version-1 reader — a decoder accepts exactly the version it writes
#: (sub-batches only cross pipes between a parent and its own workers).
BATCH_FORMAT_VERSION = 3

#: Section modes inside a payload.  A payload is a sequence of
#: sections, each a run of consecutive entries sharing one layout, so one
#: sub-batch may mix fully specific keys (fixed-width) with wildcarded keys
#: (varint strings) while preserving the original entry order exactly.
SECTION_VARINT = 0
SECTION_FIXED = 1

#: Counter bounds of the fixed-width layout (int64).  Entries outside the
#: range fall back to a varint section, which is unbounded.
_COUNTER_MIN = -(1 << 63)
_COUNTER_MAX = (1 << 63) - 1

# Per-field kind codes of the fixed-width codec (internal).
_F_IPV4 = 0
_F_PORT = 1
_F_PROTO = 2
_F_IPV6 = 3

#: Shared fully-specific Protocol instances; decoding re-uses them instead
#: of constructing (and range-checking) one object per entry.
_PROTOCOL_BY_NUMBER = tuple(Protocol(number) for number in range(MAX_PROTOCOL + 1))


class _FixedCodec:
    """Schema-derived fixed-width entry layout for fully specific keys.

    One entry is ``struct`` packed as the concatenation of its per-field
    tokens followed by three int64 counters: 4 bytes for an IPv4 host
    address, 16 (two u64 words) for an IPv6 host, 2 for a single port,
    1 for a concrete protocol number.  The layout is a pure function of the
    schema's feature types, so both ends derive it independently — nothing
    about it travels on the wire beyond the section mode byte.
    """

    __slots__ = ("kinds", "entry", "size")

    def __init__(self, kinds: Tuple[int, ...], fmt: str) -> None:
        self.kinds = kinds
        self.entry = struct.Struct(fmt)
        self.size = self.entry.size


#: feature-type tuple -> codec (``None`` when a field type has no
#: fixed-width form and the schema must always use varint sections).
_FIXED_CODECS: Dict[Tuple[type, ...], Optional[_FixedCodec]] = {}


def _fixed_codec_for_types(types: Tuple[type, ...]) -> Optional[_FixedCodec]:
    try:
        return _FIXED_CODECS[types]
    except KeyError:
        pass
    kinds: List[int] = []
    fmt = ">"
    codec: Optional[_FixedCodec] = None
    for feature_type in types:
        if issubclass(feature_type, IPv4Prefix):
            kinds.append(_F_IPV4)
            fmt += "I"
        elif issubclass(feature_type, IPv6Prefix):
            kinds.append(_F_IPV6)
            fmt += "QQ"
        elif issubclass(feature_type, PortRange):
            kinds.append(_F_PORT)
            fmt += "H"
        elif issubclass(feature_type, Protocol):
            kinds.append(_F_PROTO)
            fmt += "B"
        else:
            break
    else:
        codec = _FixedCodec(tuple(kinds), fmt + "qqq")
    _FIXED_CODECS[types] = codec
    return codec


def fixed_codec_for(schema: FlowSchema) -> Optional[_FixedCodec]:
    """The fixed-width codec of ``schema``, or ``None`` if it has none."""
    return _fixed_codec_for_types(tuple(spec.feature_type for spec in schema.fields))


def _fixed_entry_values(
    entry: Tuple[FlowKey, int, int, int], kinds: Tuple[int, ...]
) -> Optional[List[int]]:
    """Flat fixed-width field values of one entry, ``None`` if ineligible.

    An entry is eligible when every feature is fully specific (host
    address, single port, concrete protocol) and its counters fit int64;
    anything else is encoded through the varint fallback instead.
    """
    key, packets, byte_count, flows = entry
    features = key.features
    if len(features) != len(kinds):
        return None
    values: List[int] = []
    append = values.append
    for feature, kind in zip(features, kinds):
        if kind == _F_IPV4:
            network, length = feature.as_tuple()
            if length != IPV4_WIDTH:
                return None
            append(network)
        elif kind == _F_PORT:
            base, prefix_len = feature.as_tuple()
            if prefix_len != PORT_BITS:
                return None
            append(base)
        elif kind == _F_PROTO:
            number = feature.number
            if number is None:
                return None
            append(number)
        else:
            network, length = feature.as_tuple()
            if length != IPV6_WIDTH:
                return None
            append(network >> 64)
            append(network & 0xFFFFFFFFFFFFFFFF)
    for counter in (packets, byte_count, flows):
        if not _COUNTER_MIN <= counter <= _COUNTER_MAX:
            return None
    append(packets)
    append(byte_count)
    append(flows)
    return values


def _encode_varint_entry(entry: Tuple[FlowKey, int, int, int], payload: bytearray) -> None:
    key, packets, byte_count, flows = entry
    parts = key.to_wire()
    encode_varint(len(parts), payload)
    for part in parts:
        _encode_string(part, payload)
    encode_zigzag(packets, payload)
    encode_zigzag(byte_count, payload)
    encode_zigzag(flows, payload)


def _decode_varint_entry(
    data: bytes, offset: int, schema: FlowSchema
) -> Tuple[Tuple[FlowKey, int, int, int], int]:
    arity, offset = decode_varint(data, offset)
    parts = []
    for _ in range(arity):
        part, offset = _decode_string(data, offset)
        parts.append(part)
    packets, offset = decode_zigzag(data, offset)
    byte_count, offset = decode_zigzag(data, offset)
    flows, offset = decode_zigzag(data, offset)
    return (FlowKey.from_wire(schema, parts), packets, byte_count, flows), offset


def encode_aggregated_batch(
    items: Iterable[Tuple[FlowKey, int, int, int]],
    record_count: int,
    allow_fixed: bool = True,
) -> bytes:
    """Encode pre-aggregated ``(key, packets, bytes, flows)`` tuples.

    This is the wire form one shard's slice of a batch takes on its way to
    a worker process: no pickling, no per-record payload — one entry per
    distinct key, exactly what :meth:`Flowtree.add_aggregated` consumes on
    the other side.  ``record_count`` is how many raw records the items
    summarize, carried so the worker's ``updates`` stat advances the same
    way the in-process path's does.

    The payload is a sequence of *sections*: runs of consecutive entries
    whose fully specific keys take the fixed-width struct layout
    (:class:`_FixedCodec`), with wildcarded keys (and counters outside
    int64) falling back to a varint-string entry layout.  The
    negotiation is automatic and per run, so mixed batches round-trip in
    their original order.  ``allow_fixed=False`` forces every section onto
    the varint layout (the equivalence baseline used by tests and the
    CLAIM-WIRE benchmark).
    """
    if record_count < 0:
        raise SerializationError(f"record_count must be non-negative, got {record_count}")
    entries = list(items)
    payload = bytearray()
    encode_varint(record_count, payload)
    encode_varint(len(entries), payload)
    codec: Optional[_FixedCodec] = None
    if allow_fixed and entries:
        codec = _fixed_codec_for_types(
            tuple(type(feature) for feature in entries[0][0].features)
        )
    index = 0
    total = len(entries)
    if codec is None:
        if entries:
            payload.append(SECTION_VARINT)
            encode_varint(total, payload)
            for entry in entries:
                _encode_varint_entry(entry, payload)
        return BATCH_MAGIC + struct.pack(">B", BATCH_FORMAT_VERSION) + bytes(payload)
    kinds = codec.kinds
    pack = codec.entry.pack
    while index < total:
        values = _fixed_entry_values(entries[index], kinds)
        if values is not None:
            run: List[List[int]] = [values]
            index += 1
            while index < total:
                values = _fixed_entry_values(entries[index], kinds)
                if values is None:
                    break
                run.append(values)
                index += 1
            payload.append(SECTION_FIXED)
            encode_varint(len(run), payload)
            for entry_values in run:
                payload += pack(*entry_values)
        else:
            start = index
            index += 1
            while index < total and _fixed_entry_values(entries[index], kinds) is None:
                index += 1
            payload.append(SECTION_VARINT)
            encode_varint(index - start, payload)
            for entry in entries[start:index]:
                _encode_varint_entry(entry, payload)
    return BATCH_MAGIC + struct.pack(">B", BATCH_FORMAT_VERSION) + bytes(payload)


def _decode_fixed_section(
    view: memoryview,
    offset: int,
    count: int,
    codec: _FixedCodec,
    items: List[Tuple[FlowKey, int, int, int]],
) -> int:
    """Decode ``count`` fixed-width entries from ``view`` into ``items``.

    Zero-copy hot path: the section is sliced out of the payload's
    ``memoryview`` and unpacked straight into integers — no intermediate
    byte strings, no wire-string formatting or parsing — and the features
    are built through the unvalidated ``_fast`` constructors (every value a
    fixed-width field can hold is a valid fully specific token, so there is
    nothing to validate).
    """
    end = offset + count * codec.size
    if end > len(view):
        raise SerializationError("truncated fixed-width section")
    kinds = codec.kinds
    ipv4_fast = IPv4Prefix._fast
    ipv6_fast = IPv6Prefix._fast
    port_fast = PortRange._fast
    protocols = _PROTOCOL_BY_NUMBER
    append = items.append
    for values in codec.entry.iter_unpack(view[offset:end]):
        features: List[object] = []
        add = features.append
        position = 0
        for kind in kinds:
            if kind == _F_IPV4:
                add(ipv4_fast(values[position], IPV4_WIDTH))
                position += 1
            elif kind == _F_PORT:
                add(port_fast(values[position], PORT_BITS))
                position += 1
            elif kind == _F_PROTO:
                add(protocols[values[position]])
                position += 1
            else:
                add(
                    ipv6_fast(
                        (values[position] << 64) | values[position + 1], IPV6_WIDTH
                    )
                )
                position += 2
        append((FlowKey(features), values[-3], values[-2], values[-1]))
    return end


def decode_aggregated_batch(
    data: bytes, schema: FlowSchema
) -> Tuple[List[Tuple[FlowKey, int, int, int]], int]:
    """Decode a sub-batch produced by :func:`encode_aggregated_batch`.

    Returns ``(items, record_count)`` with the items in their original
    order, so a worker replays exactly the ``add_aggregated`` call the
    in-process sharded path would have made.  Only the version this build
    writes is accepted.  Payloads decode section by section, with
    fixed-width sections unpacked zero-copy through a :func:`memoryview`
    (see :func:`_decode_fixed_section`).
    """
    if len(data) < len(BATCH_MAGIC) + 1 or data[: len(BATCH_MAGIC)] != BATCH_MAGIC:
        raise SerializationError("not an aggregated sub-batch (bad magic)")
    version = data[len(BATCH_MAGIC)]
    offset = len(BATCH_MAGIC) + 1
    items: List[Tuple[FlowKey, int, int, int]] = []
    if version != BATCH_FORMAT_VERSION:
        raise SerializationError(f"unsupported sub-batch format version {version}")
    record_count, offset = decode_varint(data, offset)
    total, offset = decode_varint(data, offset)
    view = memoryview(data)
    codec = fixed_codec_for(schema)
    size = len(data)
    while len(items) < total:
        if offset >= size:
            raise SerializationError("truncated sub-batch (missing section)")
        mode = data[offset]
        offset += 1
        count, offset = decode_varint(data, offset)
        if count == 0 or len(items) + count > total:
            raise SerializationError(
                f"corrupt sub-batch section: {count} entries with "
                f"{total - len(items)} outstanding"
            )
        if mode == SECTION_FIXED:
            if codec is None:
                raise SerializationError(
                    f"fixed-width section under schema {schema.name!r}, "
                    f"which has no fixed-width layout"
                )
            offset = _decode_fixed_section(view, offset, count, codec, items)
        elif mode == SECTION_VARINT:
            for _ in range(count):
                entry, offset = _decode_varint_entry(data, offset, schema)
                items.append(entry)
        else:
            raise SerializationError(f"unknown sub-batch section mode {mode}")
    if offset != size:
        raise SerializationError(
            f"sub-batch carries {size - offset} trailing bytes"
        )
    return items, record_count


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


def from_json(text: str) -> Flowtree:
    """Decode a Flowtree produced by :func:`to_json`."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON summary: {exc}") from exc
    if document.get("format") != "flowtree-json":
        raise SerializationError("not a Flowtree JSON summary")
    schema = schema_by_name(document["schema"])
    config = FlowtreeConfig(
        max_nodes=document.get("max_nodes"),
        policy=document.get("policy", "round-robin"),
    )
    tree = Flowtree(schema, config)
    for entry in document.get("nodes", []):
        key = FlowKey.from_wire(schema, entry["key"])
        node = tree.root if key.is_root else tree._get_or_create_node(key)
        node.counters.packets += int(entry.get("packets", 0))
        node.counters.bytes += int(entry.get("bytes", 0))
        node.counters.flows += int(entry.get("flows", 0))
        node.invalidate_subtree_cache()
    return tree


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
