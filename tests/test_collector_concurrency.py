"""Regression tests for the locks flowlint's concurrency rules demanded.

Two true positives came out of the first project-wide lint (PR 10):

* ``Supervisor.health_snapshot`` read ``_health`` without ``_check_lock``
  while the heartbeat thread mutates the records mid-pass
  (lock-discipline), and
* ``Collector`` was mutated from the supervisor thread, the query path
  and the main replay loop with no lock at all (thread-confinement);
  every entry point now serializes on an internal ``RLock``.

These tests pin the fixes mechanically: they hold the lock from one
thread and assert the fixed accessor actually blocks on it, then hammer
a collector from several threads and check the outcome matches a serial
run.  If someone removes a ``with self._lock:`` the pin tests go red
before the race ever has to fire.
"""

import threading
import time

from helpers import key2, make_timed_record
from repro.core.config import FlowtreeConfig
from repro.distributed import (
    Collector,
    CollectorConfig,
    FlowtreeDaemon,
    SimulatedTransport,
    Supervisor,
)
from repro.features.schema import SCHEMA_2F_SRC_DST


def _loaded_collector(count=90, bins=3):
    """A memory-store collector with ``count`` summaries pending in its inbox."""
    transport = SimulatedTransport()
    collector = Collector(SCHEMA_2F_SRC_DST, transport, config=CollectorConfig(bin_width=10.0))
    daemon = FlowtreeDaemon(
        "edge-1", SCHEMA_2F_SRC_DST, transport,
        collector_name=collector.name, bin_width=10.0,
        config=FlowtreeConfig(max_nodes=500),
    )
    for i in range(count):
        daemon.consume_record(
            make_timed_record(
                timestamp=(i % bins) * 10.0,
                src=f"10.0.0.{i % 5 or 1}",
                dst="192.0.2.1",
            )
        )
    daemon.flush()
    return collector


def _blocks_until_released(lock, call):
    """Assert ``call`` blocks while ``lock`` is held by another thread.

    Returns the call's result once the holder releases.  Deterministic by
    construction: the callee *cannot* finish while the lock is held, so
    the ``is_alive`` assertion never flakes — it can only fail if the
    lock was removed from the accessor under test.
    """
    acquired = threading.Event()
    release = threading.Event()

    def hold():
        with lock:
            acquired.set()
            release.wait(timeout=10.0)

    holder = threading.Thread(target=hold)
    holder.start()
    assert acquired.wait(timeout=10.0)
    result = {}

    def run():
        result["value"] = call()

    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=0.2)
    try:
        assert caller.is_alive(), "accessor did not block on the lock"
    finally:
        release.set()
        caller.join(timeout=10.0)
        holder.join(timeout=10.0)
    assert not caller.is_alive()
    return result["value"]


class TestSupervisorSnapshotLock:
    def test_health_snapshot_blocks_on_check_lock(self):
        """The lock-discipline fix: no torn reads of ``_health`` mid-pass."""
        collector = _loaded_collector(count=10, bins=1)
        supervisor = Supervisor(collector)
        snapshot = _blocks_until_released(
            supervisor._check_lock, supervisor.health_snapshot
        )
        assert collector.name in snapshot

    def test_all_healthy_blocks_on_check_lock(self):
        collector = _loaded_collector(count=10, bins=1)
        supervisor = Supervisor(collector)
        healthy = _blocks_until_released(
            supervisor._check_lock, lambda: supervisor.all_healthy
        )
        assert healthy is True

    def test_snapshot_consistent_under_heartbeat(self):
        """Snapshots taken while the heartbeat mutates health never tear:
        a pass that succeeded shows zero consecutive failures."""
        collector = _loaded_collector(count=30, bins=1)
        supervisor = Supervisor(collector, config=None)
        supervisor.start()
        try:
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                snapshot = supervisor.health_snapshot()[collector.name]
                if snapshot["healthy"]:
                    assert snapshot["consecutive_failures"] == 0
                    assert snapshot["last_error"] is None
                if snapshot["messages_processed"] == 30:
                    break
            assert supervisor.health_snapshot()[collector.name]["healthy"]
        finally:
            supervisor.stop()


class TestCollectorEntryPointLock:
    def test_ingestion_entry_points_block_on_collector_lock(self):
        """The thread-confinement fix: poll/ingest serialize on ``_lock``."""
        collector = _loaded_collector()
        processed = _blocks_until_released(collector._lock, collector.poll)
        assert processed == collector.messages_processed > 0

    def test_query_entry_points_block_on_collector_lock(self):
        collector = _loaded_collector()
        collector.poll()
        sites = _blocks_until_released(collector._lock, lambda: collector.sites)
        assert sites == ["edge-1"]
        total = _blocks_until_released(
            collector._lock,
            lambda: collector.estimate(key2("10.0.0.1", "192.0.2.1"))[0],
        )
        assert total > 0

    def test_reentrant_entry_points_still_nest(self):
        """Entry points call each other (``evict_before`` -> ``site_series``);
        the lock must be reentrant or the fix would deadlock the fixed code."""
        collector = _loaded_collector()
        collector.poll()
        assert collector.evict_before(1) >= 0
        assert collector.bins_for("edge-1") != []

    def test_hammered_collector_matches_serial_run(self):
        """Threads racing poll against queries converge on the serial result."""
        serial = _loaded_collector()
        serial.poll()
        expected_processed = serial.messages_processed
        expected_sites = serial.sites
        expected_bins = serial.bins_for("edge-1")
        expected_total = serial.estimate(key2("10.0.0.1", "192.0.2.1"))[0]

        concurrent = _loaded_collector()
        errors = []
        started = threading.Barrier(4)

        def pound(fn):
            try:
                started.wait(timeout=10.0)
                for _ in range(25):
                    fn()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def query():
            if concurrent.sites:
                concurrent.estimate_many([key2("10.0.0.1", "192.0.2.1")])

        threads = [
            threading.Thread(target=pound, args=(concurrent.poll,)),
            threading.Thread(target=pound, args=(concurrent.poll,)),
            threading.Thread(target=pound, args=(query,)),
            threading.Thread(target=pound, args=(lambda: concurrent.pending_backlog,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert concurrent.messages_processed == expected_processed
        assert concurrent.sites == expected_sites
        assert concurrent.bins_for("edge-1") == expected_bins
        assert concurrent.estimate(key2("10.0.0.1", "192.0.2.1"))[0] == expected_total
