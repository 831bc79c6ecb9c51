"""Batched ingestion: equivalence with the per-record update path.

The contract of the fast path is behavioural, not just statistical:

* ``Flowtree.add_batch`` over any record stream must serialize to exactly
  the same bytes as a per-record ``add_record`` loop when compaction is
  disabled — regardless of batch size — and must stay byte-identical when
  both paths cross a compaction boundary at the same point in the stream;
* ``preaggregate_records`` must count every record exactly once, per
  signature, in first-seen order;
* trees built from disjoint parts of a stream and combined with the
  paper's merge operator must reproduce the tree built from the whole
  stream, and conserve its totals under a node budget.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SimpleRecord, make_record

from repro.core import Counters, Flowtree, FlowtreeConfig, merge_all, to_bytes
from repro.core.flowtree import preaggregate_records
from repro.core.key import FlowKey
from repro.features.schema import SCHEMA_1F_SRC, SCHEMA_2F_SRC_DST, SCHEMA_4F


def _record(src_host, dst_host, sport, dport, packets):
    return SimpleRecord(
        src_ip=(10 << 24) | src_host,
        dst_ip=(192 << 24) | (168 << 16) | dst_host,
        src_port=1024 + sport,
        dst_port=dport,
        packets=packets,
        bytes=packets * 100,
    )


# Small domains force duplicates and shared chain prefixes.
records_strategy = st.lists(
    st.builds(
        _record,
        src_host=st.integers(0, 40),
        dst_host=st.integers(0, 6),
        sport=st.integers(0, 10),
        dport=st.sampled_from([53, 80, 443]),
        packets=st.integers(1, 5),
    ),
    min_size=1,
    max_size=150,
)


class TestAddBatchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(records=records_strategy, batch_size=st.sampled_from([0, 1, 7, 64, 10_000]))
    def test_byte_identical_to_add_loop_unbounded(self, records, batch_size):
        """Property: batch == loop, byte for byte, for any chunking."""
        loop_tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        for record in records:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        consumed = batch_tree.add_batch(records, batch_size=batch_size)
        assert consumed == len(records)
        assert to_bytes(batch_tree) == to_bytes(loop_tree)
        assert batch_tree.stats.updates == loop_tree.stats.updates == len(records)
        batch_tree.validate()

    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy)
    def test_byte_identical_on_2f_schema(self, records):
        loop_tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=None))
        for record in records:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=None))
        batch_tree.add_batch(records)
        assert to_bytes(batch_tree) == to_bytes(loop_tree)

    def test_byte_identical_across_compaction_boundary(self):
        """Both paths compact exactly once, at the same stream position.

        The stream holds 64 distinct keys against a 64-node budget; the
        +1 root means the budget is first exceeded by the final record, so
        the per-record loop's compaction fires on its last ``add`` — from
        the same fully-accumulated state the batched path compacts from.
        """
        config = FlowtreeConfig(max_nodes=64)
        records = []
        for i in range(63):
            # Every duplicate of keys 0..62 arrives before the final key.
            records.extend(
                make_record(src=f"10.1.{i}.1", dst="203.0.113.9", sport=2000 + i,
                            dport=443, packets=1 + i % 4)
                for _ in range(1 + i % 3)
            )
        records.append(make_record(src="10.9.9.9", dst="203.0.113.9", sport=4999, dport=443))

        loop_tree = Flowtree(SCHEMA_4F, config)
        for record in records:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_4F, config)
        batch_tree.add_batch(records, batch_size=0)

        assert loop_tree.stats.compactions == 1
        assert batch_tree.stats.compactions == 1
        assert to_bytes(batch_tree) == to_bytes(loop_tree)
        batch_tree.validate()
        loop_tree.validate()

    def test_bounded_batch_respects_budget_and_totals(self, packet_stream_small):
        config = FlowtreeConfig(max_nodes=128, victim_batch=16)
        loop_tree = Flowtree(SCHEMA_4F, config)
        for record in packet_stream_small:
            loop_tree.add_record(record)
        batch_tree = Flowtree(SCHEMA_4F, config)
        batch_tree.add_batch(packet_stream_small, batch_size=512)
        batch_tree.validate()
        assert batch_tree.total_counters() == loop_tree.total_counters()
        # Compaction at batch boundaries may land between max_nodes and the
        # overshoot margin, but the final tree must be back under budget.
        assert len(batch_tree) <= config.max_nodes + max(config.victim_batch,
                                                         config.max_nodes // 16)

    def test_add_aggregated_matches_add_calls(self):
        items = [
            (FlowKey.from_record(SCHEMA_4F, make_record(src=f"10.2.{i}.1")), 3 * i + 1, 50 * i, 2)
            for i in range(20)
        ]
        direct = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        for key, packets, byte_count, flows in items:
            direct.add(key, packets=packets, bytes=byte_count, flows=flows)
        aggregated = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        aggregated.add_aggregated(items)
        assert to_bytes(aggregated) == to_bytes(direct)

    def test_every_ingest_path_agrees_on_bytes_and_count(self, packet_stream_small):
        records = packet_stream_small[:600]
        config = FlowtreeConfig(max_nodes=None)
        by_batch = Flowtree(SCHEMA_4F, config)
        assert by_batch.add_batch(records) == len(records)
        mixed = Flowtree(SCHEMA_4F, config)
        assert mixed.add_records(records[:200]) == 200
        assert mixed.add_batch(records[200:400], batch_size=64) == 200
        for record in records[400:]:
            mixed.add_record(record)
        assert mixed.stats.updates == by_batch.stats.updates == len(records)
        assert to_bytes(mixed) == to_bytes(by_batch)

    @pytest.mark.parametrize("batch_size", [0, 1, 64, 512, 2048])
    def test_bounded_batch_conserves_totals_for_any_batch_size(
        self, packet_stream_small, batch_size
    ):
        config = FlowtreeConfig(max_nodes=200, victim_batch=16)
        loop_tree = Flowtree(SCHEMA_4F, config)
        loop_tree.add_records(packet_stream_small)
        batch_tree = Flowtree(SCHEMA_4F, config)
        assert batch_tree.add_batch(packet_stream_small, batch_size=batch_size) == len(
            packet_stream_small
        )
        batch_tree.validate()
        assert batch_tree.stats.updates == len(packet_stream_small)
        assert batch_tree.total_counters() == loop_tree.total_counters()
        assert len(batch_tree) <= config.max_nodes + max(config.victim_batch,
                                                         config.max_nodes // 16)

    @pytest.mark.parametrize("max_nodes", [None, 64])
    def test_pending_signatures_match_keyed_items(self, packet_stream_small, max_nodes):
        """``add_aggregated(pending=)`` charges what the keyed items would.

        With a 64-node budget the 5 000-record batch lands on the rebuild
        side, so the raw-signature fold is what is compared.
        """
        records = packet_stream_small
        config = FlowtreeConfig(max_nodes=max_nodes)
        pending = preaggregate_records(records, SCHEMA_4F.signature_of, config.count_bytes)
        items = [
            (FlowKey.from_record(SCHEMA_4F, sample), packets, byte_count, flows)
            for packets, byte_count, flows, sample in pending.values()
        ]
        by_items = Flowtree(SCHEMA_4F, config)
        by_items.add_aggregated(items, record_count=len(records))
        by_pending = Flowtree(SCHEMA_4F, config)
        by_pending.add_aggregated((), record_count=len(records), pending=pending)
        by_pending.validate()
        assert by_pending.stats.updates == by_items.stats.updates == len(records)
        assert by_pending.stats.rebuilds == by_items.stats.rebuilds
        assert (by_pending.stats.rebuilds >= 1) == (max_nodes is not None)
        assert to_bytes(by_pending) == to_bytes(by_items)

    def test_signature_matches_key_identity(self):
        a = make_record(src="10.0.0.1", sport=1111)
        b = make_record(src="10.0.0.1", sport=1111, packets=9, bytes=9_999)
        c = make_record(src="10.0.0.2", sport=1111)
        assert SCHEMA_4F.signature_of(a) == SCHEMA_4F.signature_of(b)
        assert SCHEMA_4F.signature_of(a) != SCHEMA_4F.signature_of(c)
        assert (SCHEMA_4F.signature_of(a) == SCHEMA_4F.signature_of(b)) == (
            FlowKey.from_record(SCHEMA_4F, a) == FlowKey.from_record(SCHEMA_4F, b)
        )
        # Single-field schemas give a bare value, still usable as a dict key.
        assert SCHEMA_1F_SRC.signature_of(a) == a.src_ip


class TestPreaggregate:
    def test_counts_every_record_once_per_signature(self, packet_stream_small):
        chunk = packet_stream_small[:500]
        pending = preaggregate_records(chunk, SCHEMA_4F.signature_of, True)
        assert sum(flows for _, _, flows, _ in pending.values()) == len(chunk)
        assert sum(packets for packets, _, _, _ in pending.values()) == sum(
            record.packets for record in chunk
        )
        assert sum(byte_count for _, byte_count, _, _ in pending.values()) == sum(
            record.bytes for record in chunk
        )
        keys = {FlowKey.from_record(SCHEMA_4F, record) for record in chunk}
        assert len(pending) == len(keys)
        for signature, (_, _, _, sample) in pending.items():
            assert SCHEMA_4F.signature_of(sample) == signature

    def test_first_seen_order_is_kept(self):
        records = [make_record(src=f"10.3.0.{i % 5 + 1}") for i in (3, 1, 3, 4, 0, 1, 2)]
        pending = preaggregate_records(records, SCHEMA_4F.signature_of, True)
        first_seen = []
        for record in records:
            signature = SCHEMA_4F.signature_of(record)
            if signature not in first_seen:
                first_seen.append(signature)
        assert list(pending) == first_seen

    def test_uncounted_bytes_stay_zero(self, packet_stream_small):
        chunk = packet_stream_small[:200]
        pending = preaggregate_records(chunk, SCHEMA_4F.signature_of, False)
        assert all(byte_count == 0 for _, byte_count, _, _ in pending.values())
        assert sum(packets for packets, _, _, _ in pending.values()) == sum(
            record.packets for record in chunk
        )


class TestMergeLaw:
    @settings(max_examples=20, deadline=None)
    @given(records=records_strategy, parts=st.sampled_from([1, 2, 4, 7]))
    def test_merging_partitions_reproduces_the_single_tree(self, records, parts):
        """Property: split a stream k ways, merge the k trees, get the whole.

        Records go round-robin, so one key's records can land in several
        parts; merging must still sum them into the single tree's bytes.
        """
        config = FlowtreeConfig(max_nodes=None)
        single = Flowtree(SCHEMA_4F, config)
        for record in records:
            single.add_record(record)
        trees = []
        for index in range(parts):
            tree = Flowtree(SCHEMA_4F, config)
            tree.add_batch(records[index::parts], batch_size=32)
            tree.validate()
            trees.append(tree)
        merged = Flowtree(SCHEMA_4F, config)
        for tree in trees:
            merged.merge(tree)
        merged.validate()
        assert to_bytes(merged) == to_bytes(single)
        probe = FlowKey.from_record(SCHEMA_4F, records[0])
        generalized = probe.generalize_feature(0).generalize_feature(3)
        for key in (FlowKey.root(SCHEMA_4F), probe, generalized):
            assert merged.estimate(key) == single.estimate(key)

    @settings(max_examples=15, deadline=None)
    @given(records=records_strategy, parts=st.sampled_from([2, 4, 7]))
    def test_merging_key_partitions_reproduces_the_single_tree(self, records, parts):
        """Same law when each key lives in exactly one part, as with sites."""
        config = FlowtreeConfig(max_nodes=None)
        single = Flowtree(SCHEMA_4F, config)
        single.add_batch(records)
        trees = [Flowtree(SCHEMA_4F, config) for _ in range(parts)]
        for record in records:
            trees[(record.src_ip + record.src_port) % parts].add_record(record)
        assert to_bytes(merge_all(trees)) == to_bytes(single)

    @pytest.mark.parametrize("parts", [1, 2, 4, 8])
    def test_bounded_parts_conserve_totals_within_budget(self, packet_stream_small, parts):
        config = FlowtreeConfig(max_nodes=400)
        single = Flowtree(SCHEMA_4F, config)
        single.add_batch(packet_stream_small)
        trees = []
        for index in range(parts):
            tree = Flowtree(SCHEMA_4F, config)
            tree.add_batch(packet_stream_small[index::parts])
            tree.validate()
            trees.append(tree)
        merged = Flowtree(SCHEMA_4F, config)
        merged.merge_many(trees)
        merged.validate()
        assert len(merged) <= config.max_nodes
        assert merged.total_counters() == single.total_counters()
        assert merged.stats.merged_trees == parts

    def test_estimates_add_across_parts(self, packet_stream_small):
        config = FlowtreeConfig(max_nodes=None)
        trees = []
        for index in range(4):
            tree = Flowtree(SCHEMA_4F, config)
            tree.add_batch(packet_stream_small[index::4])
            trees.append(tree)
        merged = merge_all(trees)
        probe = FlowKey.from_record(SCHEMA_4F, packet_stream_small[0])
        for key in (FlowKey.root(SCHEMA_4F), probe, probe.generalize_feature(1)):
            expected = Counters()
            for tree in trees:
                expected.add(tree.estimate(key).counters)
            assert merged.estimate(key).counters == expected


_PLACEMENT_SCRIPT = """
from repro.distributed import site_shard
print(",".join(str(site_shard("site-%d" % i, 7)) for i in range(64)))
"""


def test_site_placement_is_stable_across_processes():
    """Two interpreters with different hash seeds must agree on placement."""
    placements = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", _PLACEMENT_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        placements.append(result.stdout.strip())
    assert placements[0] == placements[1]
    assert len(set(placements[0].split(","))) > 1


class TestDaemonBatchedReplay:
    def test_batched_daemon_exports_identical_summaries(self, packet_stream_small):
        from repro.distributed import FlowtreeDaemon, SimulatedTransport

        def run(batch_size):
            transport = SimulatedTransport()
            daemon = FlowtreeDaemon(
                site="s", schema=SCHEMA_4F, transport=transport,
                bin_width=5.0, config=FlowtreeConfig(max_nodes=None),
            )
            daemon.consume_records(packet_stream_small, batch_size=batch_size)
            daemon.flush()
            return daemon.stats, [m.payload for _, m in transport.receive("collector")]

        # Per-record vs batched must agree on accounting and exported bytes.
        loop_stats, loop_payloads = run(batch_size=0)
        batch_stats, batch_payloads = run(batch_size=100)
        assert batch_stats.records_consumed == loop_stats.records_consumed
        assert batch_stats.bins_exported == loop_stats.bins_exported
        assert batch_stats.late_records == loop_stats.late_records
        assert batch_payloads == loop_payloads
