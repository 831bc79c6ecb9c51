"""Length-prefixed wire framing for the site -> collector TCP transport.

Every frame is ``u32 body-length | u32 body-crc32 | body``; the first
body byte is the frame type.  The CRC-32 covers the body and is verified
by :class:`FrameDecoder` before any body byte is parsed, so a corrupted
frame — a flipped bit on the wire, a buggy middlebox, an injected
``net.client.frame-corrupt`` fault — is detected deterministically at the
framing layer: the connection is killed, the frame is never acknowledged,
and the client's resend delivers the clean bytes.  Three frame types make
up the protocol:

* ``HELLO`` — sent once per connection by the client: protocol version,
  the sending site's endpoint name, the destination collector name, and
  the summary format version the site emits, so the server can reject a
  connection whose payloads it could not decode *before* any summary
  bytes flow.
* ``SUMMARY`` — one :class:`~repro.distributed.messages.SummaryMessage`
  with a per-connection frame number (1, 2, 3, ...).  The frame number
  lets the server enforce in-order, gap-free delivery per connection and
  lets the client match cumulative acknowledgements to its unacked
  backlog for resend-on-reconnect.  End-to-end dedup across reconnects is
  the collector's job (the ``(site, bin, sequence)`` idempotency guard).
* ``ACK`` — server -> client: cumulative count of summary frames accepted
  on this connection.

The summary payload bytes travel verbatim — the framing wraps the existing
binary summary format, it never re-encodes it — so bytes-on-wire equals
payload plus a small, exactly-accountable envelope.

:class:`FrameDecoder` is an incremental decoder: feed it arbitrary chunks
(half a header, a header plus half a body, three frames at once) and it
yields exactly the completed frames, keeping any torn tail buffered.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Union

from repro.core.errors import TransportError
from repro.core.serialization import FORMAT_VERSION
from repro.distributed.messages import SUMMARY_DIFF, SUMMARY_FULL, SummaryMessage

#: Bumped on any incompatible change to the frame layout below.
#: Version 3 added the per-frame CRC-32 trailer to the envelope
#: (``length | crc | body``).  Version 4 dropped the sub-batch format byte
#: from HELLO: sub-batches never reach a collector, so the advertisement is
#: the summary format alone.
PROTOCOL_VERSION = 4

FRAME_HELLO = 1
FRAME_SUMMARY = 2
FRAME_ACK = 3

#: Upper bound on one frame body; a length above this is a corrupt or
#: hostile stream, not a big summary (summaries are node-budget bounded).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")
_CRC = struct.Struct("!I")
_HELLO_HEAD = struct.Struct("!BIH")
_HELLO_FORMAT = struct.Struct("!B")
_SUMMARY_HEAD = struct.Struct("!BQ")
_SUMMARY_META = struct.Struct("!qddBBQqI")
_ACK = struct.Struct("!BQ")

_KIND_CODES = {SUMMARY_FULL: 0, SUMMARY_DIFF: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

#: Wire bytes of a SUMMARY frame that are pure envelope (length prefix +
#: CRC trailer + type + frame number); the rest of the non-payload bytes
#: depend on the message (site name length), so senders compute overhead
#: as ``SUMMARY_FRAME_ENVELOPE + (len(body) - len(payload))``.
SUMMARY_FRAME_ENVELOPE = _LENGTH.size + _CRC.size + struct.calcsize("!BQ")


@dataclass(frozen=True)
class HelloFrame:
    """Connection preamble: who is sending, to which collector endpoint.

    ``summary_format`` advertises the FTRE summary format version the
    client encodes with; the server rejects the connection up front if it
    is newer than what this build decodes (see
    :meth:`CollectorServer._handle`).
    """

    site: str
    destination: str
    version: int
    summary_format: int = FORMAT_VERSION
    wire_bytes: int = 0


@dataclass(frozen=True)
class SummaryFrame:
    """One summary message plus its per-connection frame number."""

    frame_no: int
    message: SummaryMessage
    wire_bytes: int = 0


@dataclass(frozen=True)
class AckFrame:
    """Cumulative count of summary frames the server accepted on this connection."""

    acked: int
    wire_bytes: int = 0


Frame = Union[HelloFrame, SummaryFrame, AckFrame]


def _encode_name(name: str) -> bytes:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise TransportError(f"endpoint name too long for the wire ({len(encoded)} bytes)")
    return encoded


def encode_frame(body: bytes) -> bytes:
    """Wrap one frame body with its length prefix and CRC-32."""
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} byte limit"
        )
    return _LENGTH.pack(len(body)) + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF) + body


def encode_hello(site: str, destination: str, summary_format: int = FORMAT_VERSION) -> bytes:
    """HELLO body: version + site + destination + summary format advertisement.

    ``summary_format`` defaults to what this build encodes; tests override
    it to exercise the server-side rejection path.
    """
    site_bytes = _encode_name(site)
    dest_bytes = _encode_name(destination)
    return (
        _HELLO_HEAD.pack(FRAME_HELLO, PROTOCOL_VERSION, len(site_bytes))
        + site_bytes
        + struct.pack("!H", len(dest_bytes))
        + dest_bytes
        + _HELLO_FORMAT.pack(summary_format)
    )


def encode_summary_body(message: SummaryMessage) -> bytes:
    """The connection-independent part of a SUMMARY frame (no frame number).

    The client encodes each message once at ``send()`` time and keeps this
    body in its unacked backlog; only the frame number differs between the
    original transmission and a resend on a later connection.
    """
    site_bytes = _encode_name(message.site)
    kind_code = _KIND_CODES.get(message.kind)
    if kind_code is None:
        raise TransportError(f"cannot encode summary kind {message.kind!r}")
    has_sequence = 1 if message.sequence >= 0 else 0
    return (
        struct.pack("!H", len(site_bytes))
        + site_bytes
        + _SUMMARY_META.pack(
            message.bin_index,
            message.bin_start,
            message.bin_end,
            kind_code,
            has_sequence,
            message.sequence if has_sequence else 0,
            message.record_count,
            len(message.payload),
        )
        + message.payload
    )


def encode_summary(frame_no: int, body: bytes) -> bytes:
    """SUMMARY frame body: type + frame number + encoded message body."""
    if frame_no < 1:
        raise TransportError(f"summary frame numbers start at 1, got {frame_no}")
    return _SUMMARY_HEAD.pack(FRAME_SUMMARY, frame_no) + body


def encode_ack(acked: int) -> bytes:
    """ACK frame body: cumulative accepted summary-frame count."""
    return _ACK.pack(FRAME_ACK, acked)


def _decode_hello(body: bytes, wire_bytes: int) -> HelloFrame:
    try:
        _, version, site_len = _HELLO_HEAD.unpack_from(body, 0)
    except struct.error as exc:
        raise TransportError(f"malformed HELLO frame: {exc}") from exc
    # Version first: HELLO bodies of other versions have a different tail,
    # so parsing on would report a confusing truncation error instead of
    # the actual version mismatch.
    if version != PROTOCOL_VERSION:
        raise TransportError(
            f"peer speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
        )
    try:
        offset = _HELLO_HEAD.size
        site = body[offset : offset + site_len].decode("utf-8")
        offset += site_len
        (dest_len,) = struct.unpack_from("!H", body, offset)
        offset += 2
        destination = body[offset : offset + dest_len].decode("utf-8")
        offset += dest_len
        (summary_format,) = _HELLO_FORMAT.unpack_from(body, offset)
        offset += _HELLO_FORMAT.size
    except (struct.error, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed HELLO frame: {exc}") from exc
    if offset != len(body):
        raise TransportError(f"HELLO frame carries {len(body) - offset} trailing bytes")
    return HelloFrame(
        site=site,
        destination=destination,
        version=version,
        summary_format=summary_format,
        wire_bytes=wire_bytes,
    )


def _decode_summary(body: bytes, wire_bytes: int) -> SummaryFrame:
    try:
        _, frame_no = _SUMMARY_HEAD.unpack_from(body, 0)
        offset = _SUMMARY_HEAD.size
        (site_len,) = struct.unpack_from("!H", body, offset)
        offset += 2
        site = body[offset : offset + site_len].decode("utf-8")
        offset += site_len
        (bin_index, bin_start, bin_end, kind_code, has_sequence, sequence,
         record_count, payload_len) = _SUMMARY_META.unpack_from(body, offset)
        offset += _SUMMARY_META.size
        payload = bytes(body[offset : offset + payload_len])
        offset += payload_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed SUMMARY frame: {exc}") from exc
    if len(payload) != payload_len or offset != len(body):
        raise TransportError(
            f"SUMMARY frame length mismatch: declared {payload_len} payload bytes, "
            f"frame holds {len(body) - (offset - payload_len)}"
        )
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise TransportError(f"unknown summary kind code {kind_code}")
    message = SummaryMessage(
        site=site,
        bin_index=bin_index,
        bin_start=bin_start,
        bin_end=bin_end,
        kind=kind,
        payload=payload,
        record_count=record_count,
        sequence=sequence if has_sequence else -1,
    )
    return SummaryFrame(frame_no=frame_no, message=message, wire_bytes=wire_bytes)


def _decode_ack(body: bytes, wire_bytes: int) -> AckFrame:
    try:
        _, acked = _ACK.unpack(body)
    except struct.error as exc:
        raise TransportError(f"malformed ACK frame: {exc}") from exc
    return AckFrame(acked=acked, wire_bytes=wire_bytes)


def decode_body(body: bytes) -> Frame:
    """Decode one complete frame body into its typed frame object."""
    if not body:
        raise TransportError("empty frame body")
    wire_bytes = _LENGTH.size + _CRC.size + len(body)
    frame_type = body[0]
    if frame_type == FRAME_HELLO:
        return _decode_hello(body, wire_bytes)
    if frame_type == FRAME_SUMMARY:
        return _decode_summary(body, wire_bytes)
    if frame_type == FRAME_ACK:
        return _decode_ack(body, wire_bytes)
    raise TransportError(f"unknown frame type {frame_type}")


class FrameDecoder:
    """Incremental frame decoder tolerant of arbitrary chunk boundaries.

    TCP delivers a byte stream, not messages: one ``read()`` may return
    half a length prefix, a torn body, or several frames back to back.
    ``feed()`` consumes whatever arrived and returns only the frames that
    completed, buffering the rest for the next chunk.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        """Bytes of incomplete frame currently held back."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb one chunk; return every frame it completed (maybe none).

        Raises :class:`~repro.core.errors.TransportError` on a CRC
        mismatch; frames decoded earlier in the same chunk are discarded
        with the connection — none of them were acknowledged yet, so the
        peer's resend redelivers them.
        """
        self._buffer.extend(data)
        frames: List[Frame] = []
        header = _LENGTH.size + _CRC.size
        while True:
            if len(self._buffer) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack_from(bytes(self._buffer[: _LENGTH.size]), 0)
            if length > MAX_FRAME_BYTES:
                raise TransportError(
                    f"frame length {length} exceeds the {MAX_FRAME_BYTES} byte limit "
                    "(corrupt or non-protocol stream)"
                )
            if len(self._buffer) < header + length:
                break
            (crc,) = _CRC.unpack_from(bytes(self._buffer[_LENGTH.size : header]), 0)
            body = bytes(self._buffer[header : header + length])
            if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                raise TransportError(
                    "frame CRC mismatch (corrupted bytes or a peer speaking "
                    f"a pre-{PROTOCOL_VERSION} protocol)"
                )
            del self._buffer[: header + length]
            frames.append(decode_body(body))
        return frames
