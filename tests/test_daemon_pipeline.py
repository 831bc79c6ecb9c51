"""Pipelined daemon: bin policy and export equivalence across worker modes.

``FlowtreeDaemon(workers=N)`` overlaps bin N+1 ingestion with bin N
folding, but its observable behaviour is pinned to the single-process
daemon: the same bins, in the same order, with byte-identical
``SummaryMessage`` payloads (compaction disabled), the same late-record
accounting, and the same record counts — crash or no crash.
"""

import pytest

from helpers import make_timed_record

from repro.core import FlowtreeConfig
from repro.distributed import Deployment, FlowtreeDaemon, SimulatedTransport
from repro.features.schema import SCHEMA_4F

UNBOUNDED = FlowtreeConfig(max_nodes=None)


def _timed_stream(count=1200, late_every=173, bin_span=5.0):
    """A deterministic multi-bin stream with sprinkled-in late records."""
    records = []
    timestamp = 0.0
    for index in range(count):
        timestamp += 0.017 + (index % 7) * 0.003
        late = index > 0 and index % late_every == 0
        records.append(
            make_timed_record(
                timestamp - (bin_span + 1.0 if late else 0.0),
                src=f"10.{index % 3}.{index % 29}.{1 + index % 7}",
                dst=f"198.51.100.{1 + index % 5}",
                sport=1024 + index % 11,
                dport=(53, 80, 443)[index % 3],
                packets=1 + index % 4,
            )
        )
    return records


def _run_daemon(records, workers, batch_size=64, use_diffs=True, full_every=3,
                crash_worker=None, crash_at=None, config=UNBOUNDED):
    transport = SimulatedTransport()
    daemon = FlowtreeDaemon(
        site="s", schema=SCHEMA_4F, transport=transport, bin_width=5.0,
        config=config, use_diffs=use_diffs, full_every=full_every, workers=workers,
    )
    try:
        if crash_at is None:
            daemon.consume_records(records, batch_size=batch_size)
        else:
            daemon.consume_records(records[:crash_at], batch_size=batch_size)
            daemon.current_tree.pool.inject_worker_failure(crash_worker)
            daemon.consume_records(records[crash_at:], batch_size=batch_size)
        flushed = daemon.flush()
        stats = daemon.stats
        worker_stats = daemon.worker_stats()
    finally:
        daemon.close()
    messages = [message for _, message in transport.receive("collector")]
    return messages, stats, flushed, worker_stats


class TestPipelineEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_summary_messages_identical_to_single_process(self, workers):
        records = _timed_stream()
        baseline_messages, baseline_stats, _, _ = _run_daemon(records, workers=0)
        messages, stats, _, worker_stats = _run_daemon(records, workers=workers)

        assert [m.payload for m in messages] == [m.payload for m in baseline_messages]
        assert [(m.bin_index, m.kind, m.bin_start, m.bin_end, m.record_count)
                for m in messages] == \
               [(m.bin_index, m.kind, m.bin_start, m.bin_end, m.record_count)
                for m in baseline_messages]
        assert stats.records_consumed == baseline_stats.records_consumed == len(records)
        assert stats.bins_exported == baseline_stats.bins_exported > 3
        assert stats.late_records == baseline_stats.late_records > 0
        assert stats.exported_bytes == baseline_stats.exported_bytes
        # The full-vs-diff choice is made on identical trees, so it agrees.
        assert stats.full_summaries == baseline_stats.full_summaries
        assert stats.diff_summaries == baseline_stats.diff_summaries
        # Every bin went through the asynchronous export path.
        assert stats.pipelined_exports == stats.bins_exported
        assert worker_stats["workers"] == workers
        assert worker_stats["records_ingested"] == len(records)

    def test_per_record_path_matches_batched(self):
        records = _timed_stream(count=400)
        batched, batched_stats, _, _ = _run_daemon(records, workers=2, batch_size=64)
        per_record, record_stats, _, _ = _run_daemon(records, workers=2, batch_size=None)
        assert [m.payload for m in per_record] == [m.payload for m in batched]
        assert record_stats.late_records == batched_stats.late_records
        assert record_stats.bins_exported == batched_stats.bins_exported

    def test_late_record_policy_charges_open_bin(self):
        # Bin 0 at t=[0,5), bin 1 at t=[5,10); the t=1.0 straggler arrives
        # while bin 1 is open and must be charged there, not dropped.
        records = [
            make_timed_record(0.5, sport=2001),
            make_timed_record(6.0, sport=2002),
            make_timed_record(1.0, sport=2003),
            make_timed_record(7.0, sport=2004),
        ]
        for workers in (0, 2):
            messages, stats, _, _ = _run_daemon(records, workers=workers, batch_size=2)
            assert stats.late_records == 1
            assert [m.bin_index for m in messages] == [0, 1]
            assert [m.record_count for m in messages] == [1, 3]

    def test_bin_advancement_skips_empty_bins(self):
        records = [make_timed_record(0.1), make_timed_record(31.0), make_timed_record(32.0)]
        for workers in (0, 2):
            messages, _, _, _ = _run_daemon(records, workers=workers)
            assert [m.bin_index for m in messages] == [0, 6]
            assert [m.record_count for m in messages] == [1, 2]


class TestFlushSemantics:
    def test_flush_joins_outstanding_and_returns_last_message(self):
        records = _timed_stream(count=300)
        messages, _, flushed, _ = _run_daemon(records, workers=2)
        assert flushed is not None
        assert flushed is messages[-1]

    def test_flush_without_records_returns_none(self):
        transport = SimulatedTransport()
        daemon = FlowtreeDaemon(site="s", schema=SCHEMA_4F, transport=transport,
                                bin_width=5.0, config=UNBOUNDED, workers=2)
        assert daemon.flush() is None
        daemon.close()
        assert transport.receive("collector") == []

    def test_close_is_idempotent_and_flushes(self):
        transport = SimulatedTransport()
        daemon = FlowtreeDaemon(site="s", schema=SCHEMA_4F, transport=transport,
                                bin_width=5.0, config=UNBOUNDED, workers=2)
        daemon.consume_records(_timed_stream(count=50), batch_size=16)
        daemon.close()
        daemon.close()
        assert len(transport.receive("collector")) == daemon.stats.bins_exported
        assert daemon.stats.bins_exported >= 1

    def test_closed_daemon_refuses_records(self):
        from repro.core import DaemonError

        transport = SimulatedTransport()
        daemon = FlowtreeDaemon(site="s", schema=SCHEMA_4F, transport=transport,
                                bin_width=5.0, config=UNBOUNDED, workers=2)
        daemon.consume_records(_timed_stream(count=20), batch_size=8)
        daemon.close()
        # Accepting records again would silently respawn (and leak) a pool.
        with pytest.raises(DaemonError):
            daemon.consume_record(make_timed_record(999.0))


class TestCrashDuringBin:
    @pytest.mark.parametrize("crash_at", [150, 450, 820])
    def test_mid_bin_crash_is_invisible_in_exports(self, crash_at):
        """A worker killed mid-bin (including with a bin's summaries in
        flight) must not drop or double-count any sub-batch: the exported
        payload sequence stays byte-identical to the no-crash run."""
        records = _timed_stream()
        baseline, baseline_stats, _, _ = _run_daemon(records, workers=0)
        messages, stats, _, worker_stats = _run_daemon(
            records, workers=2, crash_worker=crash_at % 2, crash_at=crash_at
        )
        assert [m.payload for m in messages] == [m.payload for m in baseline]
        assert stats.records_consumed == baseline_stats.records_consumed
        assert stats.late_records == baseline_stats.late_records
        assert worker_stats["worker_restarts"] >= 1


class TestDeploymentWiring:
    def test_parallel_deployment_matches_single_process(self):
        records = _timed_stream(count=600)
        results = {}
        for workers in (0, 2):
            with Deployment(SCHEMA_4F, ["a", "b"], bin_width=5.0,
                            daemon_config=UNBOUNDED, daemon_workers=workers) as deployment:
                deployment.attach_records("a", records[:300])
                deployment.attach_records("b", records[300:])
                consumed = deployment.run()
                assert consumed == {"a": 300, "b": 300}
                merged = deployment.collector.merged()
                bins = {
                    site: deployment.collector.bins_for(site)
                    for site in deployment.site_names
                }
                stats = deployment.worker_stats()
                results[workers] = (merged.total_counters(), bins, stats)
        assert results[0][0] == results[2][0]
        assert results[0][1] == results[2][1]
        assert results[0][2] == {"a": {}, "b": {}}
        assert results[2][2]["a"]["workers"] == 2
        assert results[2][2]["b"]["records_ingested"] == 300
