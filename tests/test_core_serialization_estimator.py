"""Tests for summary serialization and the query-helper layer."""

import json
import random
import struct
import tracemalloc
import zlib

import pytest

from helpers import key2, key4, make_record
from repro.core.config import FlowtreeConfig
from repro.core.errors import SerializationError
from repro.core.estimator import (
    children_of,
    drill_down,
    estimate_many,
    estimate_values,
)
from repro.core.flowtree import Flowtree
from repro.core.policy import available_policies
from repro.core.serialization import (
    FORMAT_VERSION,
    MAGIC,
    MAX_INFLATE_RATIO,
    decode_varint,
    decode_zigzag,
    encode_varint,
    encode_zigzag,
    from_bytes,
    size_report,
    summary_header,
    to_bytes,
    to_json,
)
from repro.features.schema import (
    SCHEMA_1F_SRC,
    SCHEMA_2F_SRC_DST,
    SCHEMA_4F,
    SCHEMA_5F,
)
from repro.traces import CaidaLikeTraceGenerator, DdosTraceGenerator


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 21, 2 ** 40, 2 ** 63])
    def test_unsigned_round_trip(self, value):
        buffer = bytearray()
        encode_varint(value, buffer)
        decoded, offset = decode_varint(bytes(buffer), 0)
        assert decoded == value
        assert offset == len(buffer)

    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 12345, -98765, 2 ** 40, -(2 ** 40)])
    def test_signed_round_trip(self, value):
        buffer = bytearray()
        encode_zigzag(value, buffer)
        decoded, _ = decode_zigzag(bytes(buffer), 0)
        assert decoded == value

    def test_negative_unsigned_rejected(self):
        with pytest.raises(SerializationError):
            encode_varint(-1, bytearray())

    def test_truncated_varint(self):
        with pytest.raises(SerializationError):
            decode_varint(b"\x80", 0)


class TestBinaryFormat:
    @pytest.fixture
    def tree(self, packet_stream_small):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=300))
        tree.add_records(packet_stream_small)
        return tree

    def test_round_trip_preserves_everything(self, tree):
        decoded = from_bytes(to_bytes(tree))
        assert decoded.schema == tree.schema
        assert decoded.config.policy == tree.config.policy
        assert decoded.config.max_nodes == tree.config.max_nodes
        assert len(decoded) == len(tree)
        assert decoded.total_counters() == tree.total_counters()
        for key, counters in tree.items():
            assert decoded.complementary_counters(key) == counters
        decoded.validate()

    def test_uncompressed_round_trip(self, tree):
        decoded = from_bytes(to_bytes(tree, compress=False))
        assert decoded.total_counters() == tree.total_counters()

    def test_compression_helps(self, tree):
        assert len(to_bytes(tree, compress=True)) < len(to_bytes(tree, compress=False))

    def test_diff_with_negative_counters_round_trips(self):
        a = Flowtree(SCHEMA_2F_SRC_DST)
        b = Flowtree(SCHEMA_2F_SRC_DST)
        a.add(key2("10.0.0.1", "192.0.2.1"), packets=10)
        delta = b.diff(a)
        decoded = from_bytes(to_bytes(delta))
        assert decoded.complementary_counters(key2("10.0.0.1", "192.0.2.1")).packets == -10

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncated_payload_rejected(self, tree):
        payload = to_bytes(tree)
        with pytest.raises(SerializationError):
            from_bytes(payload[:-10])

    def test_empty_tree_round_trip(self):
        tree = Flowtree(SCHEMA_2F_SRC_DST)
        decoded = from_bytes(to_bytes(tree))
        assert len(decoded) == 1
        assert decoded.total_counters().is_zero

    def test_size_report_keys(self, tree):
        report = size_report(tree)
        assert set(report) == {"nodes", "binary_bytes", "binary_compressed_bytes", "json_bytes"}
        assert report["nodes"] == len(tree)
        assert report["binary_compressed_bytes"] <= report["binary_bytes"]


def _with_version(payload, version):
    """``payload`` with its header's format-version byte replaced."""
    return payload[: len(MAGIC)] + bytes([version]) + payload[len(MAGIC) + 1:]


class TestBinaryFormatContract:
    """The FTRE header and body rules every stored or shipped summary obeys."""

    @pytest.fixture
    def tree(self, packet_stream_small):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=200))
        tree.add_records(packet_stream_small[:1_500])
        return tree

    @pytest.mark.parametrize(
        "schema",
        [SCHEMA_1F_SRC, SCHEMA_2F_SRC_DST, SCHEMA_4F, SCHEMA_5F],
        ids=lambda schema: schema.name,
    )
    def test_every_builtin_schema_round_trips_byte_identically(
        self, schema, packet_stream_small
    ):
        tree = Flowtree(schema, FlowtreeConfig(max_nodes=120))
        tree.add_records(packet_stream_small[:800])
        payload = to_bytes(tree)
        decoded = from_bytes(payload)
        decoded.validate()
        assert decoded.schema == schema
        assert decoded.total_counters() == tree.total_counters()
        assert to_bytes(decoded) == payload

    @pytest.mark.parametrize("policy", available_policies())
    def test_every_policy_survives_round_trip(self, policy, packet_stream_small):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=150, policy=policy))
        tree.add_records(packet_stream_small[:800])
        decoded = from_bytes(to_bytes(tree))
        assert decoded.config.policy == policy
        assert decoded.config.max_nodes == 150
        assert dict(decoded.items()) == dict(tree.items())

    def test_new_payloads_carry_the_current_version(self, tree):
        payload = to_bytes(tree)
        assert payload[: len(MAGIC)] == MAGIC
        assert FORMAT_VERSION == 2
        assert payload[len(MAGIC)] == FORMAT_VERSION

    @pytest.mark.parametrize("version", [0, 1, 3, 255])
    def test_other_versions_rejected(self, tree, version):
        payload = _with_version(to_bytes(tree), version)
        with pytest.raises(SerializationError, match="version"):
            from_bytes(payload)
        with pytest.raises(SerializationError, match="version"):
            summary_header(payload)

    def test_trailing_bytes_rejected(self, tree):
        with pytest.raises(SerializationError, match="truncated"):
            from_bytes(to_bytes(tree) + b"\x00")

    @pytest.mark.parametrize("compress", [True, False])
    def test_header_describes_the_body(self, tree, compress):
        payload = to_bytes(tree, compress=compress)
        header = summary_header(payload)
        assert header == {
            "version": FORMAT_VERSION,
            "compressed": int(compress),
            "body_bytes": len(payload) - len(MAGIC) - 6,
        }
        assert struct.unpack(">I", payload[len(MAGIC) + 2: len(MAGIC) + 6])[0] == (
            header["body_bytes"]
        )

    @pytest.mark.parametrize("payload", [b"", b"FTRE", b"NOPE" + b"\x00" * 16])
    def test_header_rejects_non_summaries(self, payload):
        with pytest.raises(SerializationError):
            summary_header(payload)

    def test_header_rejects_torn_body(self, tree):
        with pytest.raises(SerializationError, match="truncated"):
            summary_header(to_bytes(tree)[:-1])

    @pytest.mark.parametrize("compress", [True, False])
    def test_corrupt_bodies_raise_only_serialization_errors(
        self, packet_stream_small, compress
    ):
        """Seeded fuzz: byte mutations behind a valid header stay typed.

        Collectors drop a summary on ``SerializationError`` and retry on
        anything else, so an untyped escape would wedge their backlog.
        """
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        tree.add_batch(packet_stream_small[:800])
        payload = to_bytes(tree, compress=compress)
        body_start = len(MAGIC) + 6
        rng = random.Random(31)
        rejected = 0
        for _ in range(300):
            mutated = bytearray(payload)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(body_start, len(mutated))] = rng.randrange(256)
            try:
                from_bytes(bytes(mutated))
            except SerializationError:
                rejected += 1
        assert rejected > 0

    def test_encoding_is_independent_of_insertion_order(self):
        keys = [
            key2("10.0.0.1", "192.0.2.1"),
            key2("10.0.0.2", "192.0.2.1"),
            key2("10.0.1.7", "192.0.2.9"),
        ]
        forward = Flowtree(SCHEMA_2F_SRC_DST)
        backward = Flowtree(SCHEMA_2F_SRC_DST)
        for packets, key in enumerate(keys, start=1):
            forward.add(key, packets=packets)
        for packets, key in reversed(list(enumerate(keys, start=1))):
            backward.add(key, packets=packets)
        assert to_bytes(forward) == to_bytes(backward)


def _compressed_payload(body):
    """A version-2 FTRE payload whose header announces deflated ``body``."""
    return MAGIC + struct.pack(">BBI", FORMAT_VERSION, 1, len(body)) + body


def _zero_bomb(inflated_mib):
    """Deflate ``inflated_mib`` MiB of zeros without ever holding them."""
    packer = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    return b"".join(packer.compress(chunk) for _ in range(inflated_mib)) + packer.flush()


class TestBoundedInflate:
    """A compressed body may inflate to at most ``MAX_INFLATE_RATIO`` times
    its size, so a small hostile payload cannot make the decoder allocate
    without limit before it is rejected."""

    def test_decompression_bomb_rejected_within_bounded_memory(self):
        # 65 kB on the wire, 64 MiB once inflated: the unbounded decoder
        # peaked at ~141 MiB before rejecting it.
        payload = _compressed_payload(_zero_bomb(64))
        assert len(payload) < 70_000
        tracemalloc.start()
        try:
            with pytest.raises(SerializationError) as caught:
                from_bytes(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert "inflates past" in str(caught.value)

    def test_highly_compressible_unbounded_tree_round_trips(self):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        for port in range(1_024, 3_024):
            tree.add(key4("10.1.2.3", "192.0.2.10", str(port), "443"), packets=1)
        payload = to_bytes(tree)
        raw = to_bytes(tree, compress=False)
        ratio = (len(raw) - len(MAGIC) - 6) / (len(payload) - len(MAGIC) - 6)
        assert 5 <= ratio < MAX_INFLATE_RATIO
        decoded = from_bytes(payload)
        assert dict(decoded.items()) == dict(tree.items())
        assert to_bytes(decoded) == payload

    def test_cap_is_a_fixed_multiple_of_the_compressed_length(self):
        # Bytes after the end of the deflate stream are ignored by the
        # decoder but count as compressed length, which places the cap
        # exactly: 64 * len(body) >= inflated passes the inflate step
        # (and then fails on the empty schema name), one byte less does not.
        inflated = 200_000
        stream = zlib.compress(bytes(inflated), 9)
        at_cap = -(-inflated // MAX_INFLATE_RATIO)
        assert len(stream) < at_cap - 1
        padded = stream + bytes(at_cap - len(stream))
        with pytest.raises(SerializationError, match="unknown schema"):
            from_bytes(_compressed_payload(padded))
        with pytest.raises(SerializationError, match="inflates past"):
            from_bytes(_compressed_payload(padded[:-1]))

    @pytest.mark.parametrize("budget", [128, 560, 4_000, None])
    @pytest.mark.parametrize("generator", [CaidaLikeTraceGenerator, DdosTraceGenerator])
    def test_honest_summaries_inflate_far_below_the_cap(self, generator, budget):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=budget))
        tree.add_batch(generator(seed=5).packets(20_000))
        payload = to_bytes(tree)
        raw = to_bytes(tree, compress=False)
        ratio = (len(raw) - len(MAGIC) - 6) / (len(payload) - len(MAGIC) - 6)
        assert ratio < MAX_INFLATE_RATIO / 8
        assert to_bytes(from_bytes(payload)) == payload

    def test_truncated_deflate_stream_rejected(self, packet_stream_small):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        tree.add_batch(packet_stream_small[:800])
        body = to_bytes(tree)[len(MAGIC) + 6:]
        for cut in (1, len(body) // 2, len(body) - 1):
            with pytest.raises(SerializationError, match="truncated deflate"):
                from_bytes(_compressed_payload(body[:cut]))


class TestJsonFormat:
    def test_document_lists_every_node(self, packet_stream_small):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=200))
        tree.add_records(packet_stream_small[:1_000])
        document = json.loads(to_json(tree))
        assert document["format"] == "flowtree-json"
        assert document["max_nodes"] == 200
        assert len(document["nodes"]) == len(tree)
        assert sum(node["packets"] for node in document["nodes"]) == tree.total_counters().packets

    def test_document_keys_are_the_tree_keys(self, packet_stream_small):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=200))
        tree.add_records(packet_stream_small[:1_000])
        document = json.loads(to_json(tree))
        assert {tuple(node["key"]) for node in document["nodes"]} == {
            key.to_wire() for key in tree.keys()
        }
        # Most general first, so the root leads the list.
        root = next(key for key in tree.keys() if key.is_root)
        assert document["nodes"][0]["key"] == list(root.to_wire())

    def test_document_names_schema_policy_and_version(self):
        tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=None, policy="field-order"))
        document = json.loads(to_json(tree))
        assert document["schema"] == SCHEMA_2F_SRC_DST.name
        assert document["policy"] == "field-order"
        assert document["max_nodes"] is None
        assert document["version"] == FORMAT_VERSION
        assert len(document["nodes"]) == 1  # an empty tree holds only its root

    def test_indentation_option(self):
        tree = Flowtree(SCHEMA_2F_SRC_DST)
        tree.add(key2("10.0.0.1", "192.0.2.1"))
        assert "\n" in to_json(tree, indent=2)


class TestEstimatorHelpers:
    @pytest.fixture
    def tree(self):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=10_000))
        tree.add_record(make_record(src="10.1.1.1", dport=443, packets=60))
        tree.add_record(make_record(src="10.1.2.1", dport=443, packets=30))
        tree.add_record(make_record(src="10.9.0.1", dport=80, packets=10))
        tree.add_record(make_record(src="192.0.2.1", dport=22, packets=5))
        return tree

    def test_estimate_many_and_values(self, tree):
        keys = [key4("10.0.0.0/8", "*", "*", "*"), key4("192.0.2.0/24", "*", "*", "*")]
        estimates = estimate_many(tree, keys)
        assert estimates[keys[0]].value() == 100
        values = estimate_values(tree, keys)
        assert values[keys[1]] == 5

    def test_estimate_many_of_nothing_is_empty(self, tree):
        assert estimate_many(tree, []) == {}
        assert estimate_values(tree, iter(())) == {}

    def test_estimate_many_rejects_wrong_arity(self, tree):
        from repro.core.errors import QueryError

        with pytest.raises(QueryError):
            estimate_many(tree, [key2("10.0.0.0/8", "*")])

    def test_estimate_many_answers_duplicates_once(self, tree):
        key = key4("10.0.0.0/8", "*", "*", "*")
        estimates = estimate_many(tree, [key, key, key])
        assert list(estimates) == [key]
        assert estimates[key].value() == tree.estimate(key).value() == 100

    def test_estimate_values_reads_the_requested_metric(self, tree):
        key = key4("10.0.0.0/8", "*", "*", "*")
        assert estimate_values(tree, [key], metric="bytes")[key] == 300
        assert estimate_values(tree, [key], metric="flows")[key] == 3

    def test_children_of_folds_small_buckets_into_the_remainder(self, tree):
        parent = key4("10.0.0.0/8", "*", "*", "*")
        breakdown = children_of(tree, parent, feature_index=0, step=8, min_value=20)
        rendered = {key.pretty(): value for key, value in breakdown}
        assert not any("10.9.0.0/16" in name for name in rendered)
        assert breakdown[-1] == (parent, 10)
        assert sum(rendered.values()) == 100

    def test_children_of_breaks_down_by_feature(self, tree):
        breakdown = children_of(tree, key4("10.0.0.0/8", "*", "*", "*"), feature_index=0, step=8)
        rendered = {key.pretty(): value for key, value in breakdown}
        assert any("10.1.0.0/16" in name for name in rendered)
        assert sum(rendered.values()) == 100

    def test_children_of_bad_index(self, tree):
        from repro.core.errors import QueryError

        with pytest.raises(QueryError):
            children_of(tree, key4("*", "*", "*", "*"), feature_index=9)

    def test_drill_down_follows_dominant_branch(self, tree):
        path = drill_down(tree, key4("*", "*", "*", "*"), feature_index=0, step=8, dominance=0.5)
        assert path, "expected at least one drill-down step"
        assert path[0].key[0].to_wire() == "10.0.0.0/8"
        # Shares are within (0, 1].
        assert all(0 < step.share_of_parent <= 1 for step in path)

    def test_drill_down_stops_when_nothing_dominates(self, tree):
        path = drill_down(tree, key4("*", "*", "*", "*"), feature_index=0, step=8, dominance=0.99)
        assert path == []
