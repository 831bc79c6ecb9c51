"""Tests for the deterministic fault-injection layer (:mod:`repro.distributed.faults`).

Covers the :class:`FaultPlan` scheduling contract (seeded determinism,
per-seam independence, ``after``/``max_fires`` bounds, validation) and each
injection seam in isolation: store commit failures, torn segment writes,
the collector kill switch, and the hard
zero-overhead requirement that a plan with nothing armed changes nothing.
The end-to-end combinations live in ``tests/test_chaos.py``.
"""

import struct

import pytest

from helpers import make_timed_record
from repro.core import to_bytes
from repro.core.config import FlowtreeConfig
from repro.core.errors import (
    CollectorUnavailableError,
    ConfigurationError,
    FaultError,
    FlowtreeError,
)
from repro.core.serialization import FORMAT_VERSION, MAGIC, summary_header
from repro.distributed import (
    FAULT_COLLECTOR_KILL,
    FAULT_STORE_COMMIT,
    FAULT_STORE_TORN_WRITE,
    Collector,
    CollectorConfig,
    FaultPlan,
    FlowtreeDaemon,
    MemoryStore,
    SimulatedTransport,
)
from repro.distributed.messages import SummaryMessage
from repro.distributed.stores import SegmentFileStore
from repro.features.schema import SCHEMA_2F_SRC_DST

SEAM = "test.seam"
OTHER = "test.other-seam"


def _schedule(plan, name, occurrences=20):
    return [plan.should_fire(name) for _ in range(occurrences)]


class TestFaultPlanScheduling:
    def test_same_seed_same_schedule(self):
        first = FaultPlan(seed=3).arm(SEAM, probability=0.4)
        second = FaultPlan(seed=3).arm(SEAM, probability=0.4)
        assert _schedule(first, SEAM) == _schedule(second, SEAM)
        assert first.fired() == second.fired()
        assert first.fires(SEAM) == second.fires(SEAM) > 0

    def test_different_seeds_differ(self):
        schedules = {
            tuple(_schedule(FaultPlan(seed=seed).arm(SEAM, probability=0.5), SEAM, 40))
            for seed in range(6)
        }
        assert len(schedules) > 1

    def test_probability_one_always_fires(self):
        plan = FaultPlan(seed=0).arm(SEAM)
        assert _schedule(plan, SEAM, 5) == [True] * 5

    def test_unarmed_never_fires_but_counts_occurrences(self):
        plan = FaultPlan(seed=0)
        assert _schedule(plan, SEAM, 4) == [False] * 4
        assert plan.occurrences(SEAM) == 4
        assert plan.fires(SEAM) == 0

    def test_after_skips_initial_occurrences(self):
        plan = FaultPlan(seed=0).arm(SEAM, after=2)
        assert _schedule(plan, SEAM, 4) == [False, False, True, True]

    def test_max_fires_bounds_the_fault(self):
        plan = FaultPlan(seed=0).arm(SEAM, max_fires=2)
        assert _schedule(plan, SEAM, 6) == [True, True, False, False, False, False]
        assert plan.fires(SEAM) == 2
        assert plan.occurrences(SEAM) == 6

    def test_disarm_silences_the_seam(self):
        plan = FaultPlan(seed=0).arm(SEAM)
        assert plan.should_fire(SEAM)
        plan.disarm(SEAM)
        assert not plan.should_fire(SEAM)
        assert plan.fires(SEAM) == 1  # history survives the disarm

    def test_seams_are_independent(self):
        """Interleaving another seam's occurrences must not shift this one's."""
        alone = FaultPlan(seed=11).arm(SEAM, probability=0.5)
        expected = _schedule(alone, SEAM, 15)
        mixed = FaultPlan(seed=11).arm(SEAM, probability=0.5).arm(OTHER, probability=0.5)
        got = []
        for _ in range(15):
            mixed.should_fire(OTHER)
            got.append(mixed.should_fire(SEAM))
            mixed.should_fire(OTHER)
        assert got == expected

    def test_arm_validation(self):
        plan = FaultPlan()
        for probability in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="probability"):
                plan.arm(SEAM, probability=probability)
        with pytest.raises(ConfigurationError, match="max_fires"):
            plan.arm(SEAM, max_fires=-1)
        with pytest.raises(ConfigurationError, match="after"):
            plan.arm(SEAM, after=-1)

    def test_snapshot_and_fire_log(self):
        plan = FaultPlan(seed=0).arm(SEAM, max_fires=1, after=1)
        _schedule(plan, SEAM, 3)
        plan.should_fire(OTHER)
        assert plan.snapshot() == {
            SEAM: {"occurrences": 3, "fires": 1},
            OTHER: {"occurrences": 1, "fires": 0},
        }
        assert plan.fired() == [(SEAM, 2)]

    def test_inject_builds_a_fault_error(self):
        plan = FaultPlan(seed=0)
        error = plan.inject(FAULT_STORE_COMMIT, "commit of bin 3")
        assert isinstance(error, FaultError)
        assert isinstance(error, FlowtreeError)
        assert FAULT_STORE_COMMIT in str(error)
        assert "commit of bin 3" in str(error)

    def test_rng_for_is_stable_per_seam(self):
        plan = FaultPlan(seed=9)
        rng = plan.rng_for(SEAM)
        assert plan.rng_for(SEAM) is rng
        assert plan.rng_for(OTHER) is not rng
        # Same seed + name on a fresh plan reproduces the same stream.
        assert FaultPlan(seed=9).rng_for(SEAM).random() == FaultPlan(seed=9).rng_for(SEAM).random()


def _tree(pairs):
    from repro.core.flowtree import Flowtree
    from repro.core.key import FlowKey

    tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=500))
    for (src, dst), count in pairs:
        tree.add(FlowKey.from_wire(SCHEMA_2F_SRC_DST, (src, dst)), packets=count)
    return tree


class TestStoreCommitSeam:
    def test_memory_store_commit_fails_then_recovers(self):
        store = MemoryStore()
        store.attach_faults(FaultPlan(seed=0).arm(FAULT_STORE_COMMIT, max_fires=1))
        tree = _tree([(("10.0.0.1", "192.0.2.1"), 5)])
        with pytest.raises(FaultError, match=FAULT_STORE_COMMIT):
            store.put("site", 0, tree)
        assert store.bin_indices("site") == []
        store.put("site", 0, tree)  # plan exhausted: the retry commits
        assert store.bin_indices("site") == [0]

    def test_segment_store_commit_fails_before_any_write(self, tmp_path):
        store = SegmentFileStore(tmp_path / "commit")
        store.attach_faults(FaultPlan(seed=0).arm(FAULT_STORE_COMMIT, max_fires=1))
        tree = _tree([(("10.0.0.1", "192.0.2.1"), 5)])
        with pytest.raises(FaultError, match=FAULT_STORE_COMMIT):
            store.put("site", 0, tree)
        store.close()
        assert SegmentFileStore(tmp_path / "commit").bin_indices("site") == []


class TestTornWriteSeam:
    def test_torn_write_is_invisible_after_reopen(self, tmp_path):
        path = tmp_path / "torn"
        store = SegmentFileStore(path)
        store.attach_faults(
            FaultPlan(seed=0).arm(FAULT_STORE_TORN_WRITE, after=1, max_fires=1)
        )
        first = _tree([(("10.0.0.1", "192.0.2.1"), 3)])
        second = _tree([(("10.0.0.2", "192.0.2.1"), 7)])
        store.put("site", 0, first)
        with pytest.raises(FaultError, match=FAULT_STORE_TORN_WRITE):
            store.put("site", 1, second)
        store.close()

        reopened = SegmentFileStore(path)
        assert reopened.bin_indices("site") == [0]  # the torn record never became visible
        assert to_bytes(reopened.get("site", 0)) == to_bytes(first)
        reopened.put("site", 1, second)  # the retry lands cleanly after the tear
        assert to_bytes(reopened.get("site", 1)) == to_bytes(second)
        reopened.close()


def _feed_collector(faults=None, count=120, bins=3):
    """A collector plus a daemon that already exported ``bins`` summaries."""
    transport = SimulatedTransport()
    collector = Collector(
        SCHEMA_2F_SRC_DST, transport, config=CollectorConfig(bin_width=10.0), faults=faults
    )
    daemon = FlowtreeDaemon(
        "edge-1", SCHEMA_2F_SRC_DST, transport,
        collector_name=collector.name, bin_width=10.0,
        config=FlowtreeConfig(max_nodes=500),
    )
    for i in range(count):
        daemon.consume_record(
            make_timed_record(
                timestamp=(i % bins) * 10.0,
                src=f"10.0.0.{i % 7 or 1}",
                packets=1 + i % 3,
            )
        )
    daemon.flush()
    return collector


class TestCollectorKillSeam:
    def test_kill_mid_ingest_then_revive_is_exactly_once(self):
        baseline = _feed_collector()
        baseline.poll()

        plan = FaultPlan(seed=0).arm(FAULT_COLLECTOR_KILL, after=1, max_fires=1)
        collector = _feed_collector(faults=plan)
        with pytest.raises(CollectorUnavailableError, match="killed mid-ingest"):
            collector.poll()
        assert not collector.healthy
        assert "collector.kill" in collector.kill_reason
        assert collector.pending_backlog > 0  # acked messages waiting for retry
        with pytest.raises(CollectorUnavailableError):
            collector.site_series("edge-1")
        with pytest.raises(CollectorUnavailableError):
            collector.ping()
        with pytest.raises(CollectorUnavailableError):
            collector.poll()

        collector.revive()
        assert collector.ping()
        collector.poll()
        assert collector.pending_backlog == 0
        assert collector.messages_processed == baseline.messages_processed
        assert to_bytes(collector.merged()) == to_bytes(baseline.merged())

    def test_store_commit_failure_mid_poll_retries_the_same_message(self):
        baseline = _feed_collector()
        baseline.poll()

        plan = FaultPlan(seed=0).arm(FAULT_STORE_COMMIT, after=1, max_fires=1)
        collector = _feed_collector(faults=plan)
        with pytest.raises(FaultError, match=FAULT_STORE_COMMIT):
            collector.poll()
        assert collector.healthy  # the store failed, not the collector
        assert collector.pending_backlog > 0
        collector.poll()  # plan exhausted: backlog drains, nothing lost
        assert collector.messages_processed == baseline.messages_processed
        assert to_bytes(collector.merged()) == to_bytes(baseline.merged())

    @pytest.mark.parametrize(
        "poison",
        [
            b"\xff not a summary",
            # Valid header, body that is not a deflate stream.
            MAGIC + struct.pack(">BBI", FORMAT_VERSION, 1, 9) + b"\x00garbage!",
            # Valid uncompressed header, schema name that is not UTF-8.
            MAGIC + struct.pack(">BBI", FORMAT_VERSION, 0, 5) + b"\x04\xff\xfe\xfd\xfc",
        ],
        ids=["bad-magic", "garbage-deflate", "garbage-strings"],
    )
    def test_corrupt_payload_is_counted_and_dropped(self, poison):
        if poison.startswith(MAGIC):
            summary_header(poison)  # only the body gives these away
        transport = SimulatedTransport()
        collector = Collector(
            SCHEMA_2F_SRC_DST, transport, config=CollectorConfig(bin_width=10.0)
        )
        transport.register("edge-1")
        transport.send(
            "edge-1", collector.name,
            SummaryMessage("edge-1", 0, 0.0, 10.0, "full", poison),
        )
        good = _tree([(("10.0.0.1", "192.0.2.1"), 2)])
        transport.send(
            "edge-1", collector.name,
            SummaryMessage("edge-1", 1, 10.0, 20.0, "full", to_bytes(good), sequence=0),
        )
        assert collector.poll() == 1  # the good one, behind the poison
        assert collector.corrupt_dropped == 1
        assert collector.pending_backlog == 0
        assert collector.site_series("edge-1").bin_indices() == [1]

    def test_kill_blocks_queries_until_revive(self):
        collector = _feed_collector()
        collector.poll()
        collector.kill("maintenance")
        with pytest.raises(CollectorUnavailableError, match="maintenance"):
            collector.merged()
        with pytest.raises(CollectorUnavailableError):
            collector.ingest(
                SummaryMessage("edge-1", 9, 90.0, 100.0, "full", b"", sequence=99)
            )
        collector.revive()
        assert collector.healthy
        assert collector.merged() is not None


class TestDisabledPlanIsInert:
    def test_armed_nothing_changes_nothing(self):
        plain = _feed_collector()
        plain.poll()
        quiet = _feed_collector(faults=FaultPlan(seed=0))  # nothing armed
        quiet.poll()
        assert quiet.messages_processed == plain.messages_processed
        assert quiet.bytes_received == plain.bytes_received
        assert to_bytes(quiet.merged()) == to_bytes(plain.merged())

    def test_reopen_heals_killed_durable_collector(self, tmp_path):
        config = CollectorConfig(
            bin_width=10.0, store="file", store_path=str(tmp_path / "seg")
        )
        transport = SimulatedTransport()
        collector = Collector(SCHEMA_2F_SRC_DST, transport, config=config)
        collector.kill("test")
        assert not collector.healthy
        collector.reopen()
        assert collector.healthy
        assert collector.ping()
        collector.close()
