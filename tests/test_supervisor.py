"""Tests for collector supervision (:mod:`repro.distributed.supervisor`).

One supervision pass must heal a killed collector (``revive`` for memory
stores, ``reopen`` for durable ones), rebind a stopped TCP server, poll
the backlog so nothing acked is lost, and report every outcome in the
health snapshot.  ``max_restarts`` caps the healing; the background
heartbeat thread runs passes until stopped.  The chaos soak that drives
all of this under a live fault plan is in ``tests/test_chaos.py``.
"""

import time

import pytest

from helpers import key2, make_timed_record
from repro.core.config import FlowtreeConfig
from repro.core.errors import ConfigurationError, DaemonError
from repro.distributed import (
    Collector,
    CollectorConfig,
    Deployment,
    FlowtreeDaemon,
    SimulatedTransport,
    Supervisor,
    SupervisorConfig,
)
from repro.features.schema import SCHEMA_2F_SRC_DST


def _wire(tmp_path=None, count=60, bins=2):
    """A collector (memory or durable) with exported summaries pending."""
    transport = SimulatedTransport()
    config = CollectorConfig(bin_width=10.0)
    if tmp_path is not None:
        config = CollectorConfig(
            bin_width=10.0, store="file", store_path=str(tmp_path / "store")
        )
    collector = Collector(SCHEMA_2F_SRC_DST, transport, config=config)
    daemon = FlowtreeDaemon(
        "edge-1", SCHEMA_2F_SRC_DST, transport,
        collector_name=collector.name, bin_width=10.0,
        config=FlowtreeConfig(max_nodes=500),
    )
    for i in range(count):
        daemon.consume_record(
            make_timed_record(timestamp=(i % bins) * 10.0, src=f"10.0.0.{i % 5 or 1}")
        )
    daemon.flush()
    return collector


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="interval"):
            SupervisorConfig(interval=0.0)
        with pytest.raises(ConfigurationError, match="max_restarts"):
            SupervisorConfig(max_restarts=-1)

    def test_needs_a_collector(self):
        with pytest.raises(ConfigurationError, match="at least one collector"):
            Supervisor([])

    def test_server_count_must_match(self):
        collector = _wire()
        with pytest.raises(ConfigurationError, match="one server per collector"):
            Supervisor([collector], servers=[object(), object()])


class TestSupervisionPass:
    def test_check_polls_and_reports_healthy(self):
        collector = _wire()
        supervisor = Supervisor(collector)
        snapshot = supervisor.check()[collector.name]
        assert snapshot["healthy"] is True
        assert snapshot["server_running"] is None  # no TCP server attached
        assert snapshot["restarts"] == 0
        assert snapshot["last_error"] is None
        assert snapshot["sites"] == 1
        assert snapshot["messages_processed"] == collector.messages_processed > 0
        assert snapshot["pending_backlog"] == 0
        assert supervisor.all_healthy

    def test_check_revives_killed_memory_collector(self):
        collector = _wire()
        collector.poll()
        collector.kill("crashed")
        supervisor = Supervisor(collector)
        snapshot = supervisor.check()[collector.name]
        assert collector.healthy
        assert snapshot["healthy"] is True
        assert snapshot["restarts"] == 1

    def test_check_reopens_killed_durable_collector(self, tmp_path):
        collector = _wire(tmp_path)
        collector.poll()
        before = collector.site_series("edge-1").bin_indices()
        collector.kill("crashed")
        supervisor = Supervisor(collector)
        snapshot = supervisor.check()[collector.name]
        assert collector.healthy
        assert snapshot["restarts"] == 1
        # reopen rebuilt state from the durable backend
        assert collector.site_series("edge-1").bin_indices() == before
        collector.close()

    def test_poll_on_check_drains_backlog(self):
        collector = _wire()
        supervisor = Supervisor(collector)  # poll_on_check defaults on
        supervisor.check()
        assert collector.messages_processed > 0
        assert collector.pending_backlog == 0

    def test_poll_on_check_can_be_disabled(self):
        collector = _wire()
        supervisor = Supervisor(
            collector, config=SupervisorConfig(poll_on_check=False)
        )
        supervisor.check()
        assert collector.messages_processed == 0

    def test_max_restarts_caps_healing_and_keeps_reporting(self):
        collector = _wire()
        collector.kill("crash 1")
        supervisor = Supervisor(collector, config=SupervisorConfig(max_restarts=1))
        supervisor.check()
        assert collector.healthy  # first heal allowed

        collector.kill("crash 2")
        snapshot = supervisor.check()[collector.name]
        assert not collector.healthy  # cap reached: left down
        assert snapshot["healthy"] is False
        assert snapshot["restarts"] == 1
        assert snapshot["consecutive_failures"] == 1
        assert "crash 2" in snapshot["last_error"]
        assert not supervisor.all_healthy

        snapshot = supervisor.check()[collector.name]
        assert snapshot["consecutive_failures"] == 2  # still reporting

    def test_failure_then_recovery_clears_the_error(self):
        collector = _wire()
        collector.kill("flap")
        supervisor = Supervisor(collector, config=SupervisorConfig(max_restarts=0))
        snapshot = supervisor.check()[collector.name]
        assert snapshot["healthy"] is False
        collector.revive()  # operator intervention
        snapshot = supervisor.check()[collector.name]
        assert snapshot["healthy"] is True
        assert snapshot["last_error"] is None
        assert snapshot["consecutive_failures"] == 0


class TestServerRebind:
    def test_check_restarts_stopped_server(self):
        with Deployment(
            SCHEMA_2F_SRC_DST, ["nyc", "lax"], bin_width=60.0, transport="tcp"
        ) as deployment:
            supervisor = deployment.supervisor()
            server = deployment.servers[0]
            server.stop()
            assert not server.running
            snapshot = supervisor.check()
            assert server.running
            name = deployment.collectors[0].name
            assert snapshot[name]["server_running"] is True
            assert snapshot[name]["restarts"] == 1


class TestBackgroundHeartbeat:
    def test_start_runs_checks_until_stop(self):
        collector = _wire()
        collector.kill("crashed")
        supervisor = Supervisor(collector, config=SupervisorConfig(interval=0.01))
        with supervisor.start():
            assert supervisor.running
            deadline = time.monotonic() + 5.0
            while not collector.healthy and time.monotonic() < deadline:
                time.sleep(0.01)
        assert collector.healthy
        assert not supervisor.running
        assert collector.messages_processed > 0  # heartbeat polls drained the inbox

    def test_start_is_idempotent_and_stop_is_safe_twice(self):
        supervisor = Supervisor(_wire(), config=SupervisorConfig(interval=0.01))
        supervisor.start()
        supervisor.start()
        supervisor.stop()
        supervisor.stop()
        assert not supervisor.running


class TestDeploymentIntegration:
    def test_deployment_supervisor_is_cached(self):
        with Deployment(SCHEMA_2F_SRC_DST, ["a", "b"], bin_width=60.0) as deployment:
            supervisor = deployment.supervisor()
            assert deployment.supervisor() is supervisor
            assert supervisor.collectors == deployment.collectors
            with pytest.raises(DaemonError, match="different"):
                deployment.supervisor(SupervisorConfig(interval=9.0))

    def test_durable_collector_serves_the_heartbeat_and_gather_threads(self, tmp_path):
        """A file store opened on the main thread is used from two others.

        The supervisor's heartbeat thread ingests (``poll_on_check``) and
        the query engine's gather pool (``query_timeout`` set) reads; the
        answers must match an in-memory deployment's and the heartbeat
        must never fail.
        """
        records = {
            site: [
                make_timed_record(timestamp=(i % 3) * 10.0, src=f"10.0.{i % 7}.{1 + i % 5}")
                for i in range(90)
            ]
            for site in ("a", "b")
        }
        keys = [key2(f"10.0.{i}.1", "2.2.2.2") for i in range(7)] + [key2("10.0.0.0/16", "*")]
        with Deployment(SCHEMA_2F_SRC_DST, ["a", "b"], bin_width=10.0) as memory:
            for site, site_records in records.items():
                memory.attach_records(site, site_records)
            memory.run()
            expected = memory.query_engine.estimate_many(keys)
            assert expected[0][keys[-1]] == 180
            messages = sum(c.messages_processed for c in memory.collectors)

        durable = Deployment(
            SCHEMA_2F_SRC_DST, ["a", "b"], bin_width=10.0,
            collector_config=CollectorConfig(
                bin_width=10.0, store="file", store_path=str(tmp_path / "store")
            ),
            query_timeout=5.0,
        )
        supervisor = durable.supervisor(SupervisorConfig(interval=0.01)).start()
        for site, site_records in records.items():
            durable.attach_records(site, site_records)
            durable.site(site).replay()
        (collector,) = durable.collectors
        deadline = time.monotonic() + 10.0
        while collector.messages_processed < messages and time.monotonic() < deadline:
            time.sleep(0.01)
        assert collector.messages_processed == messages
        assert durable.query_engine.estimate_many(keys) == expected
        supervisor.stop()
        assert supervisor.health_snapshot()[collector.name]["last_error"] is None
        assert supervisor.all_healthy
        durable.close()

    def test_close_stops_background_supervisor(self):
        deployment = Deployment(SCHEMA_2F_SRC_DST, ["a"], bin_width=60.0)
        supervisor = deployment.supervisor(SupervisorConfig(interval=0.01))
        supervisor.start()
        deployment.close()
        assert not supervisor.running
