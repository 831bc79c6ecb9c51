"""Fixed-width FTAB sub-batch format and its versioning.

Covers the satellite contract of the fixed-width fast path:

* mixed payloads — fully specific runs encode as fixed-width sections,
  wildcarded runs as varint sections, inside ONE sub-batch, and decode in
  the original entry order;
* equivalence — decoding the fixed-width payload yields byte-identical
  trees to decoding the forced-varint payload of the same batch;
* versioning — the reader accepts exactly the version this build writes;
  any other version byte (older layouts included) is a typed
  ``SerializationError``, never a misparse.
"""

from __future__ import annotations

import pytest

from helpers import key2, key4, make_record

from repro.core.config import FlowtreeConfig
from repro.core.errors import SerializationError
from repro.core.flowtree import Flowtree
from repro.core.serialization import (
    BATCH_FORMAT_VERSION,
    BATCH_MAGIC,
    SECTION_FIXED,
    SECTION_VARINT,
    decode_aggregated_batch,
    encode_aggregated_batch,
    encode_varint,
    fixed_codec_for,
    to_bytes,
)
from repro.features.schema import (
    SCHEMA_1F_SRC,
    SCHEMA_2F_SRC_DST,
    SCHEMA_4F,
    SCHEMA_5F,
)


def specific_items(n: int = 40):
    """Fully specific 4f entries (eligible for the fixed-width layout)."""
    return [
        (
            key4(f"10.0.{i // 256}.{i % 256}/32", "2.2.2.2/32", f"{1000 + i}", "80"),
            i + 1,
            (i + 1) * 100,
            1,
        )
        for i in range(n)
    ]


def wildcard_items(n: int = 10):
    """Wildcarded 4f entries (must ride the varint fallback)."""
    return [
        (key4(f"10.{i}.0.0/16", "*", "*", "80"), i + 1, (i + 1) * 10, 1)
        for i in range(n)
    ]


def section_modes(payload: bytes):
    """Parse just the section framing of a payload: [(mode, count), ...]."""
    assert payload[: len(BATCH_MAGIC)] == BATCH_MAGIC
    assert payload[len(BATCH_MAGIC)] == BATCH_FORMAT_VERSION
    offset = len(BATCH_MAGIC) + 1
    from repro.core.serialization import decode_varint, fixed_codec_for as _codec

    _, offset = decode_varint(payload, offset)        # record_count
    total, offset = decode_varint(payload, offset)
    codec = _codec(SCHEMA_4F)
    modes = []
    seen = 0
    while seen < total:
        mode = payload[offset]
        offset += 1
        count, offset = decode_varint(payload, offset)
        modes.append((mode, count))
        seen += count
        if mode == SECTION_FIXED:
            offset += count * codec.size
        else:
            for _ in range(count):
                from repro.core.serialization import _decode_varint_entry

                _, offset = _decode_varint_entry(payload, offset, SCHEMA_4F)
    return modes


class TestMixedBatches:
    def test_mixed_payload_has_both_section_kinds(self):
        items = specific_items(8) + wildcard_items(3) + specific_items(5)
        payload = encode_aggregated_batch(items, record_count=16)
        modes = section_modes(payload)
        assert [mode for mode, _ in modes] == [
            SECTION_FIXED, SECTION_VARINT, SECTION_FIXED,
        ]
        assert [count for _, count in modes] == [8, 3, 5]

    def test_mixed_payload_decodes_in_original_order(self):
        items = wildcard_items(2) + specific_items(6) + wildcard_items(1)
        payload = encode_aggregated_batch(items, record_count=9)
        decoded, record_count = decode_aggregated_batch(payload, SCHEMA_4F)
        assert record_count == 9
        assert decoded == items

    @pytest.mark.parametrize("schema,key_builder", [
        (SCHEMA_4F, lambda i: key4(f"10.0.0.{i}/32", "2.2.2.2/32", str(i), "80")),
        (SCHEMA_2F_SRC_DST, lambda i: key2(f"10.0.0.{i}/32", "2.2.2.2/32")),
        (SCHEMA_1F_SRC, None),
        (SCHEMA_5F, None),
    ])
    def test_every_builtin_schema_round_trips(self, schema, key_builder):
        from repro.core.key import FlowKey

        if key_builder is None:
            records = [make_record(src=f"10.0.0.{i}", sport=i) for i in range(20)]
            items = [
                (FlowKey.from_record(schema, record), i + 1, 100, 1)
                for i, record in enumerate(records)
            ]
        else:
            items = [(key_builder(i), i + 1, 100, 1) for i in range(20)]
        payload = encode_aggregated_batch(items, record_count=20)
        decoded, _ = decode_aggregated_batch(payload, schema)
        assert decoded == items

    def test_big_counters_fall_back_to_varint(self):
        items = specific_items(3)
        items[1] = (items[1][0], 1 << 70, 5, 1)      # exceeds int64
        payload = encode_aggregated_batch(items, record_count=3)
        modes = [mode for mode, _ in section_modes(payload)]
        assert SECTION_VARINT in modes
        decoded, _ = decode_aggregated_batch(payload, SCHEMA_4F)
        assert decoded == items

    def test_fixed_payload_is_smaller(self):
        items = specific_items(200)
        fixed = encode_aggregated_batch(items, record_count=200)
        varint = encode_aggregated_batch(items, record_count=200, allow_fixed=False)
        assert len(fixed) < len(varint)


class TestEquivalence:
    def test_decoded_trees_byte_identical_to_varint_path(self):
        items = specific_items(60) + wildcard_items(8)
        fixed_payload = encode_aggregated_batch(items, record_count=68)
        varint_payload = encode_aggregated_batch(
            items, record_count=68, allow_fixed=False
        )
        assert fixed_payload != varint_payload    # genuinely different layouts

        config = FlowtreeConfig(max_nodes=10_000)
        via_fixed = Flowtree(SCHEMA_4F, config)
        decoded, record_count = decode_aggregated_batch(fixed_payload, SCHEMA_4F)
        via_fixed.add_aggregated(decoded, record_count=record_count)
        via_varint = Flowtree(SCHEMA_4F, config)
        decoded, record_count = decode_aggregated_batch(varint_payload, SCHEMA_4F)
        via_varint.add_aggregated(decoded, record_count=record_count)
        assert to_bytes(via_fixed) == to_bytes(via_varint)

    def test_forced_varint_payload_is_pure_varint(self):
        items = specific_items(10)
        payload = encode_aggregated_batch(items, record_count=10, allow_fixed=False)
        assert all(mode == SECTION_VARINT for mode, _ in section_modes(payload))


class TestVersioning:
    def test_new_payloads_carry_the_current_version(self):
        # Readers check this byte with strict equality, so a bump alone
        # guarantees other builds reject the layout instead of misparsing it.
        payload = encode_aggregated_batch(specific_items(4), record_count=4)
        assert payload[len(BATCH_MAGIC)] == BATCH_FORMAT_VERSION == 3

    def test_version_1_payload_rejected_with_typed_error(self):
        # Hand-build a v1 payload: one implicit varint section, no section
        # framing — the layout PRs 1-7 shipped.  Nothing writes it any more
        # and the reader must refuse it by the version byte, not trip over
        # its body with an IndexError/struct.error.
        from repro.core.serialization import _encode_varint_entry

        items = wildcard_items(5)
        body = bytearray()
        encode_varint(7, body)            # record_count
        encode_varint(len(items), body)
        for entry in items:
            _encode_varint_entry(entry, body)
        payload = BATCH_MAGIC + bytes([1]) + bytes(body)
        with pytest.raises(SerializationError, match="version 1"):
            decode_aggregated_batch(payload, SCHEMA_4F)

    @pytest.mark.parametrize("version", [0, 2, 4, 255])
    def test_other_versions_rejected(self, version):
        payload = bytearray(encode_aggregated_batch(specific_items(4), record_count=4))
        payload[len(BATCH_MAGIC)] = version
        with pytest.raises(SerializationError, match=f"version {version}"):
            decode_aggregated_batch(bytes(payload), SCHEMA_4F)

    def test_truncated_fixed_section_rejected(self):
        payload = encode_aggregated_batch(specific_items(4), record_count=4)
        with pytest.raises(SerializationError):
            decode_aggregated_batch(payload[:-3], SCHEMA_4F)

    def test_trailing_bytes_rejected(self):
        payload = encode_aggregated_batch(specific_items(4), record_count=4)
        with pytest.raises(SerializationError, match="trailing"):
            decode_aggregated_batch(payload + b"\x00", SCHEMA_4F)

    def test_codecs_exist_exactly_for_builtin_schemas(self):
        for schema in (SCHEMA_1F_SRC, SCHEMA_2F_SRC_DST, SCHEMA_4F, SCHEMA_5F):
            assert fixed_codec_for(schema) is not None
