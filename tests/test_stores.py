"""Tests for the pluggable collector storage layer.

Covers the two backends (memory / segment-file), their
byte-for-byte equivalence under ingest + eviction + reopen, segment-store
crash safety (a torn write must never become visible), collector restart
recovery (sites, bins, diff baselines, dedup guards), duplicate-delivery
idempotency, the bin-geometry validation on ingest, and the store
invariant: the cache holds committed trees only and ``put`` is the one
way a bin changes (``TestCommittedOnlyStore``).
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import key2
from repro.core.config import FlowtreeConfig
from repro.core.errors import DaemonError, FaultError, QueryError, SerializationError
from repro.core.flowtree import Flowtree
from repro.core.serialization import from_bytes, summary_header, to_bytes
from repro.distributed import (
    FAULT_STORE_COMMIT,
    Collector,
    CollectorConfig,
    FaultPlan,
    FlowtreeDaemon,
    FlowtreeTimeSeries,
    SimulatedTransport,
)
from repro.distributed.messages import SummaryMessage
from repro.distributed.stores import (
    STORE_KINDS,
    MemoryStore,
    SegmentFileStore,
    open_store,
)
from repro.distributed.stores.base import (
    pack_float,
    pack_int_pairs,
    pack_ints,
    unpack_float,
    unpack_int_pairs,
    unpack_ints,
)
from repro.features.ipaddr import ipv4_to_int
from repro.features.schema import SCHEMA_2F_SRC_DST
from repro.flows.records import PacketRecord

BIN_WIDTH = 10.0
STORAGE = FlowtreeConfig(max_nodes=500)


def packet(timestamp, src, dst="192.0.2.1"):
    return PacketRecord(timestamp, ipv4_to_int(src), ipv4_to_int(dst), 1234, 80, 6, 100)


def small_tree(pairs):
    tree = Flowtree(SCHEMA_2F_SRC_DST, STORAGE)
    for (src, dst), count in pairs:
        tree.add(key2(src, dst), packets=count)
    return tree


def message_stream(bins=6, per_bin=40, site="edge-1", drift=0):
    """Replay a multi-bin record stream through a daemon; returns its messages.

    ``drift`` shifts every timestamp, so two streams with different drift
    disagree on bin origin (used by the geometry tests).
    """
    transport = SimulatedTransport()
    daemon = FlowtreeDaemon(
        site, SCHEMA_2F_SRC_DST, transport, collector_name="collector",
        bin_width=BIN_WIDTH, config=STORAGE, use_diffs=True,
    )
    for b in range(bins):
        for i in range(per_bin):
            daemon.consume_record(
                packet(drift + b * BIN_WIDTH + (i % 9), f"10.0.{i % 5}.{1 + i % per_bin}")
            )
    daemon.flush()
    return [message for _, message in transport.receive("collector")]


def store_path(kind, tmp):
    """Where ``kind``'s store lives under ``tmp`` (``None`` for the memory store)."""
    return {"memory": None, "file": Path(tmp) / "fstore"}[kind]


def make_collector(kind, tmp, bin_width=BIN_WIDTH, retain_bins=None, faults=None):
    path = store_path(kind, tmp)
    config = CollectorConfig(
        bin_width=bin_width, storage=STORAGE, store=kind,
        store_path=None if path is None else str(path), retain_bins=retain_bins,
    )
    return Collector(SCHEMA_2F_SRC_DST, SimulatedTransport(), config=config, faults=faults)


def site_bin_bytes(collector):
    """``{(site, bin): serialized tree}`` snapshot of a collector's store."""
    snapshot = {}
    for site in collector.sites:
        for index in collector.bins_for(site):
            snapshot[(site, index)] = collector.store.get_bytes(site, index)
    return snapshot


class TestMetaCodecs:
    def test_float_roundtrip(self):
        for value in (0.0, 1.5, -273.15, 1e18, 0.1):
            assert unpack_float(pack_float(value)) == value

    def test_ints_and_pairs_roundtrip(self):
        values = [0, 1, -5, 2**40, -(2**40)]
        assert unpack_ints(pack_ints(values)) == values
        pairs = {(0, 0), (3, 7), (-2, 5)}
        assert unpack_int_pairs(pack_int_pairs(pairs)) == pairs

    def test_bad_float_length_rejected(self):
        with pytest.raises(SerializationError):
            unpack_float(b"abc")


@pytest.fixture()
def backends(tmp_path):
    stores = [MemoryStore(), SegmentFileStore(tmp_path / "fstore")]
    yield stores
    for store in stores:
        store.close()


class TestStoreBackends:
    def test_put_get_identical_across_backends(self, backends):
        tree = small_tree([(("10.0.0.1", "192.0.2.1"), 5), (("10.0.0.2", "192.0.2.1"), 9)])
        reference = to_bytes(tree)
        for store in backends:
            store.put("site", 3, tree.copy())
            assert store.get_bytes("site", 3) == reference
            assert to_bytes(store.get("site", 3)) == reference
            assert store.bin_indices("site") == [3]
            assert store.sites() == ["site"]
            assert summary_header(store.get_bytes("site", 3))["body_bytes"] > 0

    def test_absent_bins(self, backends):
        for store in backends:
            assert store.get("ghost", 0) is None
            assert store.get_bytes("ghost", 0) is None
            assert store.bin_indices("ghost") == []

    def test_delete_before(self, backends):
        for store in backends:
            for index in range(5):
                store.put("site", index, small_tree([(("10.0.0.1", "192.0.2.1"), index + 1)]))
            assert store.delete_before("site", 3) == 3
            assert store.bin_indices("site") == [3, 4]

    def test_meta_roundtrip_and_delete(self, backends):
        for store in backends:
            assert store.get_meta("k") is None
            store.set_meta("k", b"value")
            assert store.get_meta("k") == b"value"
            store.set_meta("k", None)
            assert store.get_meta("k") is None

    def test_durable_backends_survive_reopen(self, tmp_path):
        tree = small_tree([(("10.0.0.1", "192.0.2.1"), 7)])
        first = SegmentFileStore(tmp_path / "f2")
        first.put("site", 1, tree.copy(), meta={"origin/site": pack_float(42.0)})
        first.close()
        reopened = SegmentFileStore(tmp_path / "f2")
        assert reopened.get_bytes("site", 1) == to_bytes(tree)
        assert reopened.get_meta("origin/site") == pack_float(42.0)
        reopened.close()

    def test_lru_cache_evicts_and_lazily_loads(self, tmp_path):
        store = SegmentFileStore(tmp_path / "lru", cache_bins=2)
        payloads = {}
        for index in range(6):
            tree = small_tree([((f"10.0.0.{index + 1}", "192.0.2.1"), index + 1)])
            store.put("site", index, tree)
            payloads[index] = to_bytes(tree)
        assert len(store._cache) <= 2
        assert store.stats.evictions >= 4
        store.close()

        reopened = SegmentFileStore(tmp_path / "lru", cache_bins=2)
        assert to_bytes(reopened.get("site", 4)) == payloads[4]
        assert to_bytes(reopened.get("site", 5)) == payloads[5]
        # Only the touched bins were deserialized.
        assert reopened.stats.loads == 2
        # Repeat reads are cache hits, not reloads.
        reopened.get("site", 5)
        assert reopened.stats.loads == 2
        assert reopened.stats.cache_hits == 1
        reopened.close()

    def test_segment_rolls_over(self, tmp_path):
        store = SegmentFileStore(tmp_path / "roll", segment_max_bytes=256)
        for index in range(5):
            store.put("site", index, small_tree([((f"10.0.0.{index + 1}", "192.0.2.1"), 1)]))
        segments = list((tmp_path / "roll" / "segments").glob("seg-*.dat"))
        assert len(segments) > 1
        for index in range(5):
            assert store.get_bytes("site", index) is not None
        store.close()

    def test_open_store_factory_validation(self, tmp_path):
        from repro.core.errors import ConfigurationError

        assert open_store("memory").backend == "memory"
        with pytest.raises(ConfigurationError):
            open_store("memory", tmp_path / "x")
        with pytest.raises(ConfigurationError):
            open_store("file")
        with pytest.raises(ConfigurationError):
            open_store("tape")
        with pytest.raises(ConfigurationError):
            open_store("sqlite", tmp_path / "f.db")
        with pytest.raises(ConfigurationError):
            CollectorConfig(store="sqlite", store_path=str(tmp_path / "f.db"))
        assert not (tmp_path / "f.db").exists()
        store = open_store("file", tmp_path / "f")
        assert store.backend == "file"
        store.close()


def summary_message(pairs, sequence, bin_index=0):
    return SummaryMessage(
        "edge-1", bin_index, bin_index * BIN_WIDTH, (bin_index + 1) * BIN_WIDTH,
        "full", to_bytes(small_tree(pairs)), sequence=sequence,
    )


class TestCommittedOnlyStore:
    """``put`` is the commit point and the only write; nothing mutates a served tree."""

    PAIR = ("10.0.0.1", "192.0.2.1")

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_failed_merge_commit_leaves_the_bin_as_committed(self, tmp_path, kind):
        store = open_store(kind, store_path(kind, tmp_path))
        series = FlowtreeTimeSeries(
            SCHEMA_2F_SRC_DST, bin_width=BIN_WIDTH, config=STORAGE, store=store, site="edge"
        )
        series.insert_tree(0, small_tree([(self.PAIR, 5)]))
        committed = store.get_bytes("edge", 0)

        store.attach_faults(FaultPlan(seed=0).arm(FAULT_STORE_COMMIT, max_fires=1))
        with pytest.raises(FaultError, match=FAULT_STORE_COMMIT):
            series.insert_tree(0, small_tree([(self.PAIR, 7)]))
        assert to_bytes(series.tree(0)) == committed
        assert store.get_bytes("edge", 0) == committed

        series.insert_tree(0, small_tree([(self.PAIR, 7)]))  # plan exhausted: the retry commits
        assert series.tree(0).total_counters().packets == 12
        assert from_bytes(store.get_bytes("edge", 0)).total_counters().packets == 12
        store.close()

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_failed_ingest_of_a_second_summary_for_a_bin_is_retryable(self, tmp_path, kind):
        faults = FaultPlan(seed=0).arm(FAULT_STORE_COMMIT, after=1, max_fires=1)
        collector = make_collector(kind, tmp_path, faults=faults)
        assert collector.ingest(summary_message([(self.PAIR, 5)], sequence=1)) is True
        committed = collector.store.get_bytes("edge-1", 0)

        second = summary_message([(self.PAIR, 7)], sequence=2)
        with pytest.raises(FaultError, match=FAULT_STORE_COMMIT):
            collector.ingest(second)
        assert collector.messages_processed == 1
        assert to_bytes(collector.site_series("edge-1").tree(0)) == committed
        assert collector.store.get_bytes("edge-1", 0) == committed

        assert collector.ingest(second) is True, "retry was dropped"
        assert collector.estimate(key2(*self.PAIR))[0] == 12
        assert from_bytes(collector.store.get_bytes("edge-1", 0)).total_counters().packets == 12
        collector.close()

    def test_only_put_writes_and_enumeration_is_the_committed_set(self, tmp_path):
        store = SegmentFileStore(tmp_path / "fstore", cache_bins=2)
        writes = []
        real_write = store._write_payload

        def counting_write(site, bin_index, payload, meta):
            writes.append((site, bin_index))
            real_write(site, bin_index, payload, meta)

        store._write_payload = counting_write
        for index in range(5):  # cache_bins=2: three of these puts evict
            store.put(f"site-{index % 2}", index, small_tree([(self.PAIR, index + 1)]))
        assert len(writes) == store.stats.puts == 5
        assert store.stats.evictions == 3

        for index in range(5):
            site = f"site-{index % 2}"
            assert store.get_bytes(site, index) == to_bytes(store.get(site, index))
        store.flush()
        assert len(writes) == 5, "a read, an eviction or flush() wrote to the backend"

        sites = store.sites()
        indices = {site: store.bin_indices(site) for site in sites}
        assert indices == {"site-0": [0, 2, 4], "site-1": [1, 3]}
        store.close()
        reopened = SegmentFileStore(tmp_path / "fstore")
        assert reopened.sites() == sites
        assert {site: reopened.bin_indices(site) for site in sites} == indices
        reopened.close()


class TestSegmentCrashSafety:
    def test_crash_before_index_commit_is_invisible(self, tmp_path):
        path = tmp_path / "crash"
        store = SegmentFileStore(path)
        tree0 = small_tree([(("10.0.0.1", "192.0.2.1"), 5)])
        store.put("site", 0, tree0)

        # Simulate a crash after the segment append but before the index
        # rename: the record's bytes land in the file, the commit does not.
        def crash():
            raise OSError("simulated crash before index commit")

        store._commit_index = crash
        with pytest.raises(OSError):
            store.put("site", 1, small_tree([(("10.0.0.2", "192.0.2.1"), 9)]))
        # "Kill" the process: no close, no flush.

        reopened = SegmentFileStore(path)
        assert reopened.bin_indices("site") == [0]
        assert reopened.get("site", 1) is None
        assert reopened.get_bytes("site", 0) == to_bytes(tree0)
        # The store keeps working after recovery, torn tail and all.
        tree1 = small_tree([(("10.0.0.3", "192.0.2.1"), 2)])
        reopened.put("site", 1, tree1)
        assert reopened.get_bytes("site", 1) == to_bytes(tree1)
        reopened.close()

        final = SegmentFileStore(path)
        assert final.bin_indices("site") == [0, 1]
        assert final.get_bytes("site", 1) == to_bytes(tree1)
        final.close()

    def test_garbage_segment_tail_is_ignored(self, tmp_path):
        path = tmp_path / "tail"
        store = SegmentFileStore(path)
        tree = small_tree([(("10.0.0.1", "192.0.2.1"), 5)])
        store.put("site", 0, tree)
        store.close()
        segment = next((path / "segments").glob("seg-*.dat"))
        with open(segment, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef torn half-record")

        reopened = SegmentFileStore(path)
        assert reopened.bin_indices("site") == [0]
        assert reopened.get_bytes("site", 0) == to_bytes(tree)
        tree2 = small_tree([(("10.0.0.2", "192.0.2.1"), 1)])
        reopened.put("site", 1, tree2)
        assert reopened.get_bytes("site", 1) == to_bytes(tree2)
        reopened.close()

    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "corrupt"
        store = SegmentFileStore(path)
        store.put("site", 0, small_tree([(("10.0.0.1", "192.0.2.1"), 5)]))
        entry = store._bins["site"][0]
        store.close()
        segment_path = path / "segments" / f"seg-{entry[0]:08d}.dat"
        data = bytearray(segment_path.read_bytes())
        data[entry[1] + entry[2] // 2] ^= 0xFF
        segment_path.write_bytes(bytes(data))

        reopened = SegmentFileStore(path)
        with pytest.raises(SerializationError):
            reopened.get("site", 0)
        reopened.close()


def _record_fsyncs(monkeypatch):
    """Log ``("fsync", inode)`` / ``("replace", target)`` events in call order."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(source, target):
        real_replace(source, target)
        events.append(("replace", Path(target).name))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def _inode(path):
    return os.stat(path).st_ino


class TestSegmentDurability:
    def test_flush_fsyncs_segment_index_and_directories(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        store = SegmentFileStore(path)
        store.put("site", 0, small_tree([(("10.0.0.1", "192.0.2.1"), 5)]))
        events = _record_fsyncs(monkeypatch)
        store.flush()
        synced = {inode for kind, inode in events if kind == "fsync"}
        segment = next((path / "segments").glob("seg-*.dat"))
        for target in (segment, path / "index.json", path / "segments", path):
            assert _inode(target) in synced, f"{target.name} was not fsynced"
        store.close()

    def test_fsync_commit_makes_the_rename_durable(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        store = SegmentFileStore(path, fsync=True)
        events = _record_fsyncs(monkeypatch)
        store.put("site", 0, small_tree([(("10.0.0.1", "192.0.2.1"), 5)]))
        renamed = events.index(("replace", "index.json"))
        before = {inode for kind, inode in events[:renamed] if kind == "fsync"}
        after = {inode for kind, inode in events[renamed + 1:] if kind == "fsync"}
        segment = next((path / "segments").glob("seg-*.dat"))
        assert {_inode(segment), _inode(path / "index.json"), _inode(path / "segments")} <= before
        assert _inode(path) in after, "the store directory was not fsynced after the rename"
        store.close()

    def test_rolled_segment_is_fsynced_before_it_is_sealed(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        store = SegmentFileStore(path, segment_max_bytes=1)
        store.put("site", 0, small_tree([(("10.0.0.1", "192.0.2.1"), 5)]))
        first = _inode(next((path / "segments").glob("seg-*.dat")))
        events = _record_fsyncs(monkeypatch)
        store.put("site", 1, small_tree([(("10.0.0.2", "192.0.2.1"), 5)]))
        assert len(list((path / "segments").glob("seg-*.dat"))) == 2
        assert ("fsync", first) in events
        store.close()


class TestTimeSeriesStoreWiring:
    def test_bin_index_of_is_read_only(self):
        series = FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=BIN_WIDTH)
        with pytest.raises(QueryError):
            series.bin_index_of(123.0)
        assert series.origin is None  # the failed lookup must not fix the origin
        series.add_record(packet(100.0, "10.0.0.1"))
        assert series.origin == 100.0
        assert series.bin_index_of(123.0) == 2
        assert series.bin_index_of(100.0) == 0

    def test_series_on_durable_store_persists_and_reopens(self, tmp_path):
        store = SegmentFileStore(tmp_path / "ts")
        series = FlowtreeTimeSeries(
            SCHEMA_2F_SRC_DST, bin_width=BIN_WIDTH, config=STORAGE,
            store=store, site="edge",
        )
        for t in range(35):
            series.add_record(packet(100.0 + t, "10.0.0.1"))
        series.flush()
        store.close()

        series2 = FlowtreeTimeSeries(
            SCHEMA_2F_SRC_DST, bin_width=BIN_WIDTH, config=STORAGE,
            store=SegmentFileStore(tmp_path / "ts"), site="edge",
        )
        assert series2.origin == 100.0  # restored from store metadata
        assert series2.bin_indices() == [0, 1, 2, 3]
        assert series2.query_range(key2("10.0.0.1", "192.0.2.1")) == 35
        assert series2.total_by_bin() == {0: 10, 1: 10, 2: 10, 3: 5}
        series2.store.close()

    def test_query_range_many_matches_per_key_estimates(self):
        series = FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=BIN_WIDTH, config=STORAGE)
        for t in range(30):
            series.add_record(packet(float(t), f"10.0.{t % 3}.1"))
        keys = [key2(f"10.0.{i}.1", "192.0.2.1") for i in range(3)]
        batched = series.query_range_many(keys, start_bin=1)
        for key in keys:
            expected = sum(
                tree.estimate(key).value("packets")
                for index, tree in series.bins() if index >= 1
            )
            assert batched[key] == expected
            assert series.query_range(key, start_bin=1) == expected

    def test_series_many_matches_series(self):
        series = FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=5.0)
        for t in range(20):
            series.add_record(packet(float(t), "10.0.0.1"))
        key = key2("10.0.0.1", "192.0.2.1")
        assert series.series(key) == {0: 5, 1: 5, 2: 5, 3: 5}
        assert series.series_many([key]) == {i: {key: 5} for i in range(4)}


class TestCollectorDurability:
    def test_kill_and_reopen_matches_uninterrupted_memory_collector(self, tmp_path):
        messages = message_stream(bins=6)
        assert any(m.kind == "diff" for m in messages[3:]), "need diffs after the cut"

        reference = make_collector("memory", tmp_path)
        for message in messages:
            reference.ingest(message)

        first = make_collector("file", tmp_path)
        for message in messages[:3]:
            first.ingest(message)
        first.flush()
        del first  # killed: no close

        recovered = make_collector("file", tmp_path)
        assert recovered.sites == []
        assert recovered.reopen() == ["edge-1"]
        # The remaining messages include diffs, so this only works if the
        # decoder baseline was restored from the backend.
        for message in messages[3:]:
            recovered.ingest(message)

        assert recovered.sites == reference.sites
        assert recovered.bins_for("edge-1") == reference.bins_for("edge-1")
        assert site_bin_bytes(recovered) == site_bin_bytes(reference)
        assert to_bytes(recovered.merged()) == to_bytes(reference.merged())
        assert recovered.messages_processed == reference.messages_processed
        assert recovered.bytes_received == reference.bytes_received
        for key in (key2("10.0.1.2", "192.0.2.1"), key2("10.0.0.0/16", "*")):
            assert recovered.estimate(key) == reference.estimate(key)
            assert (
                recovered.site_series("edge-1").query_range(key, start_bin=2, end_bin=4)
                == reference.site_series("edge-1").query_range(key, start_bin=2, end_bin=4)
            )
        recovered.close()

    def test_duplicate_delivery_is_idempotent(self, tmp_path):
        messages = message_stream(bins=5)
        collector = make_collector("memory", tmp_path)
        for message in messages:
            assert collector.ingest(message) is True
        snapshot = site_bin_bytes(collector)
        processed = collector.messages_processed
        received = collector.bytes_received

        # A retrying daemon / replayed journal delivers everything again.
        for message in messages:
            assert collector.ingest(message) is False
        assert collector.duplicates_dropped == len(messages)
        assert collector.messages_processed == processed
        assert collector.bytes_received == received
        assert site_bin_bytes(collector) == snapshot

    def test_duplicate_guard_survives_reopen(self, tmp_path):
        messages = message_stream(bins=4)
        collector = make_collector("file", tmp_path)
        for message in messages:
            collector.ingest(message)
        snapshot = site_bin_bytes(collector)
        collector.close()

        recovered = make_collector("file", tmp_path)
        recovered.reopen()
        for message in messages:
            assert recovered.ingest(message) is False
        assert recovered.duplicates_dropped >= len(messages)
        assert site_bin_bytes(recovered) == snapshot
        recovered.close()

    def test_unsequenced_messages_bypass_the_guard(self, tmp_path):
        collector = make_collector("memory", tmp_path)
        tree = small_tree([(("10.0.0.1", "192.0.2.1"), 5)])
        message = SummaryMessage("m", 0, 0.0, BIN_WIDTH, "full", to_bytes(tree))
        assert message.sequence == -1
        assert collector.ingest(message) is True
        assert collector.ingest(message) is True  # legacy path: merge again
        assert collector.site_series("m").tree(0).total_counters().packets == 10

    def test_mismatched_bin_width_rejected(self, tmp_path):
        collector = make_collector("memory", tmp_path)  # bin_width = 10
        tree = small_tree([(("10.0.0.1", "192.0.2.1"), 5)])
        bad = SummaryMessage("edge-1", 0, 0.0, 5.0, "full", to_bytes(tree))
        with pytest.raises(DaemonError):
            collector.ingest(bad)
        assert collector.sites == []

    def test_misaligned_bin_origin_rejected(self, tmp_path):
        collector = make_collector("memory", tmp_path)
        for message in message_stream(bins=2):
            collector.ingest(message)
        # Same width, but a bin grid shifted by half a bin.
        drifted = message_stream(bins=1, drift=BIN_WIDTH / 2)[0]
        with pytest.raises(DaemonError):
            collector.ingest(drifted)

    def test_store_identity_pinned(self, tmp_path):
        collector = make_collector("file", tmp_path)
        for message in message_stream(bins=2):
            collector.ingest(message)
        collector.close()
        config = CollectorConfig(
            bin_width=7.0, storage=STORAGE, store="file",
            store_path=str(store_path("file", tmp_path)),
        )
        with pytest.raises(DaemonError):
            Collector(SCHEMA_2F_SRC_DST, SimulatedTransport(), config=config)

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_retention_flows_to_backend(self, tmp_path, kind):
        collector = make_collector(kind, tmp_path, retain_bins=2)
        for message in message_stream(bins=5):
            collector.ingest(message)
        assert collector.bins_for("edge-1") == [3, 4]
        assert collector.store.bin_indices("edge-1") == [3, 4]
        collector.close()
        if kind != "memory":
            recovered = make_collector(kind, tmp_path, retain_bins=2)
            assert recovered.reopen() == ["edge-1"]
            assert recovered.bins_for("edge-1") == [3, 4]
            recovered.close()

    def test_failed_commit_leaves_message_retryable(self, tmp_path):
        """A backend write failure must not poison the message's retry.

        The dedup guard, counters and decoder baseline only advance after
        the durable commit; a retry of the failed message goes through and
        the collector ends byte-identical to one that never failed.
        """
        messages = message_stream(bins=5)
        reference = make_collector("memory", tmp_path / "ref")
        for message in messages:
            reference.ingest(message)

        collector = make_collector("file", tmp_path)
        for message in messages[:2]:
            collector.ingest(message)

        real_put = collector.store.put

        def failing_put(*args, **kwargs):
            raise OSError("simulated backend write failure")

        collector.store.put = failing_put
        with pytest.raises(OSError):
            collector.ingest(messages[2])
        collector.store.put = real_put

        assert collector.messages_processed == 2  # nothing advanced
        assert collector.ingest(messages[2]) is True, "retry was dropped"
        for message in messages[3:]:
            assert collector.ingest(message) is True
        assert collector.duplicates_dropped == 0
        assert site_bin_bytes(collector) == site_bin_bytes(reference)
        assert to_bytes(collector.merged()) == to_bytes(reference.merged())
        collector.close()

    def test_restarted_daemon_not_mistaken_for_replay(self, tmp_path):
        """A fresh daemon run re-exports the same bins with new sequences.

        Its messages must be ingested (merged), not dropped by guards left
        over from the previous run — only true replays carry the same
        per-run sequence nonce.
        """
        first_run = message_stream(bins=3)
        second_run = message_stream(bins=3)  # same site, same bin grid
        collector = make_collector("memory", tmp_path)
        for message in first_run:
            assert collector.ingest(message) is True
        for message in second_run:
            assert collector.ingest(message) is True, "fresh export dropped as replay"
        assert collector.duplicates_dropped == 0
        assert collector.messages_processed == len(first_run) + len(second_run)
        # Both runs' traffic landed in the bins.
        key = key2("10.0.1.2", "192.0.2.1")
        single = make_collector("memory", tmp_path / "single")
        for message in first_run:
            single.ingest(message)
        assert collector.estimate(key)[0] == 2 * single.estimate(key)[0]

    def test_retention_prunes_guards_and_rejects_expired(self, tmp_path):
        """Retention bounds the dedup guard set and holds the horizon.

        Guards for evicted bins are pruned; replaying an evicted bin's
        message must not resurrect it (horizon rejection), in the live
        collector and across a reopen.
        """
        messages = message_stream(bins=6)
        collector = make_collector("file", tmp_path, retain_bins=2)
        for message in messages:
            collector.ingest(message)
        assert collector.bins_for("edge-1") == [4, 5]
        horizon = 4
        assert all(bin_index >= horizon for bin_index, _ in collector._seen["edge-1"])
        old = [m for m in messages if m.bin_index < horizon]
        assert old
        for message in old:
            assert collector.ingest(message) is False
        assert collector.expired_dropped == len(old)
        assert collector.bins_for("edge-1") == [4, 5], "evicted bin resurrected"
        collector.close()

        recovered = make_collector("file", tmp_path, retain_bins=2)
        recovered.reopen()
        assert all(bin_index >= horizon for bin_index, _ in recovered._seen["edge-1"])
        for message in old:
            assert recovered.ingest(message) is False
        assert recovered.bins_for("edge-1") == [4, 5]
        recovered.close()

    def test_estimate_many_matches_per_key_estimates(self, tmp_path):
        collector = make_collector("memory", tmp_path)
        for message in message_stream(bins=4):
            collector.ingest(message)
        keys = [key2(f"10.0.{i}.1", "192.0.2.1") for i in range(3)] + [key2("10.0.0.0/16", "*")]
        totals, per_site = collector.estimate_many(keys, start_bin=1, end_bin=3)
        for key in keys:
            total, by_site = collector.estimate(key, start_bin=1, end_bin=3)
            assert totals[key] == total
            assert {site: values[key] for site, values in per_site.items()} == by_site


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    bins=st.integers(min_value=1, max_value=4),
    per_bin=st.integers(min_value=1, max_value=12),
    evict_cut=st.integers(min_value=0, max_value=3),
)
def test_property_backends_byte_identical(bins, per_bin, evict_cut):
    """MemoryStore == SegmentFileStore, byte for byte.

    After the same message stream, after eviction, and (for the durable
    backend) after a reopen, every (site, bin) must serialize to the
    exact same payload on both backends.
    """
    messages = message_stream(bins=bins, per_bin=per_bin)
    with tempfile.TemporaryDirectory() as tmp:
        memory = make_collector("memory", tmp)
        durable = make_collector("file", tmp)
        for collector in (memory, durable):
            for message in messages:
                collector.ingest(message)
        reference = site_bin_bytes(memory)
        assert reference
        assert site_bin_bytes(durable) == reference

        for collector in (memory, durable):
            collector.evict_before(evict_cut)
        reference = site_bin_bytes(memory)
        assert site_bin_bytes(durable) == reference
        durable.close()

        recovered = make_collector("file", tmp)
        recovered.reopen()
        assert site_bin_bytes(recovered) == reference
        if reference:
            assert to_bytes(recovered.merged()) == to_bytes(memory.merged())
        recovered.close()


def test_decoder_full_path_baseline_not_copied():
    """The full-summary path reuses the freshly deserialized tree as baseline."""
    from repro.distributed.diffsync import DiffSyncDecoder

    decoder = DiffSyncDecoder()
    tree = small_tree([(("10.0.0.1", "192.0.2.1"), 5)])
    message = SummaryMessage("s", 0, 0.0, BIN_WIDTH, "full", to_bytes(tree))
    reconstructed = decoder.decode(message)
    assert decoder.baseline("s") is reconstructed  # no defensive copy
    assert to_bytes(reconstructed) == to_bytes(tree)


def test_reopen_restores_baseline_identical_to_decoder_state(tmp_path):
    """The persisted baseline equals what the live decoder held."""
    messages = message_stream(bins=4)
    collector = make_collector("file", tmp_path)
    for message in messages:
        collector.ingest(message)
    live_baseline = to_bytes(collector._decoder.baseline("edge-1"))
    collector.close()

    recovered = make_collector("file", tmp_path)
    recovered.reopen()
    assert to_bytes(recovered._decoder.baseline("edge-1")) == live_baseline
    recovered.close()


def test_summary_header_rejects_garbage():
    tree = small_tree([(("10.0.0.1", "192.0.2.1"), 5)])
    payload = to_bytes(tree)
    header = summary_header(payload)
    assert header["compressed"] == 1
    assert header["body_bytes"] == len(payload) - 10
    with pytest.raises(SerializationError):
        summary_header(b"not a summary")
    with pytest.raises(SerializationError):
        summary_header(payload[:-1])
    assert to_bytes(from_bytes(payload)) == payload
