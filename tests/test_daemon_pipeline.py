"""Per-site daemon: bin policy, export path and lifecycle.

Every bin of a :class:`FlowtreeDaemon` is one in-process Flowtree and
:meth:`~FlowtreeDaemon.flush` is the only export path.  These tests pin
the bin policy (late records, empty bins), the equivalence of the
per-record and batched ingest paths, and the flush/close lifecycle.
"""

import pytest

from helpers import make_timed_record

from repro.core import DaemonError, FlowtreeConfig
from repro.distributed import (
    DiffSyncDecoder,
    Deployment,
    FlowtreeDaemon,
    SimulatedTransport,
)
from repro.distributed.messages import SUMMARY_DIFF, SUMMARY_FULL
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


def _steady_stream(bins=10, flows=40, bin_span=5.0):
    """The same flows in every bin, one packet more each bin: diffs win."""
    return [
        make_timed_record(
            bin_index * bin_span + 0.1 * (flow + 1),
            src=f"10.0.{flow % 4}.{1 + flow}",
            dst="198.51.100.7",
            sport=2000 + flow,
            dport=443,
            packets=1 + bin_index,
        )
        for bin_index in range(bins)
        for flow in range(flows)
    ]


def _daemon(transport, config=UNBOUNDED, full_every=3):
    return FlowtreeDaemon(site="s", schema=SCHEMA_4F, transport=transport,
                          bin_width=5.0, config=config, full_every=full_every)


def _run_daemon(records, batch_size=64, **daemon_options):
    transport = SimulatedTransport()
    daemon = _daemon(transport, **daemon_options)
    daemon.consume_records(records, batch_size=batch_size)
    flushed = daemon.flush()
    daemon.close()
    messages = [message for _, message in transport.receive("collector")]
    return messages, daemon.stats, flushed


class TestBinPolicy:
    def test_stream_exports_every_bin(self):
        records = _timed_stream()
        messages, stats, _ = _run_daemon(records)
        assert stats.records_consumed == len(records)
        assert sum(m.record_count for m in messages) == len(records)
        assert stats.bins_exported == len(messages) > 3
        assert stats.late_records > 0
        assert stats.full_summaries + stats.diff_summaries == stats.bins_exported
        assert stats.exported_bytes == sum(len(m.payload) for m in messages)

    def test_per_record_path_matches_batched(self):
        records = _timed_stream(count=400)
        batched, batched_stats, _ = _run_daemon(records, batch_size=64)
        per_record, record_stats, _ = _run_daemon(records, batch_size=None)
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
        messages, stats, _ = _run_daemon(records, batch_size=2)
        assert stats.late_records == 1
        assert [m.bin_index for m in messages] == [0, 1]
        assert [m.record_count for m in messages] == [1, 3]

    def test_bin_advancement_skips_empty_bins(self):
        records = [make_timed_record(0.1), make_timed_record(31.0), make_timed_record(32.0)]
        messages, _, _ = _run_daemon(records)
        assert [m.bin_index for m in messages] == [0, 6]
        assert [m.record_count for m in messages] == [1, 2]


    @pytest.mark.parametrize("batch_size", [1, 7, 64, 5000])
    def test_batch_size_does_not_change_exports(self, batch_size):
        records = _timed_stream(count=500)
        reference, _, _ = _run_daemon(records, batch_size=None)
        messages, stats, _ = _run_daemon(records, batch_size=batch_size)
        assert [m.payload for m in messages] == [m.payload for m in reference]
        assert [m.record_count for m in messages] == [m.record_count for m in reference]
        assert stats.records_consumed == len(records)

    @pytest.mark.parametrize("full_every", [1, 2, 3])
    def test_full_every_bounds_the_diff_chain(self, full_every):
        messages, stats, _ = _run_daemon(_steady_stream(), full_every=full_every)
        kinds = [m.kind for m in messages]
        assert kinds[0] == SUMMARY_FULL
        assert SUMMARY_DIFF in kinds
        run = 0
        for kind in kinds:
            run = run + 1 if kind == SUMMARY_DIFF else 0
            assert run <= full_every
        assert stats.full_summaries == kinds.count(SUMMARY_FULL)
        assert stats.diff_summaries == kinds.count(SUMMARY_DIFF)

    def test_decoded_bins_carry_every_record(self):
        records = _timed_stream(count=900)
        messages, _, _ = _run_daemon(records)
        decoder = DiffSyncDecoder()
        flows = 0
        for message in messages:
            tree = decoder.decode(message)
            tree.validate()
            assert tree.total_counters().flows == message.record_count
            flows += message.record_count
        assert flows == len(records)

    def test_bounded_bins_respect_the_node_budget(self):
        config = FlowtreeConfig(max_nodes=40)
        messages, _, _ = _run_daemon(_timed_stream(), config=config)
        decoder = DiffSyncDecoder()
        for message in messages:
            tree = decoder.decode(message)
            assert tree.config.max_nodes == 40
            assert len(tree) <= 40

    @pytest.mark.parametrize("bin_width", [0.0, -5.0])
    def test_non_positive_bin_width_rejected(self, bin_width):
        with pytest.raises(DaemonError, match="bin_width"):
            FlowtreeDaemon(site="s", schema=SCHEMA_4F, transport=SimulatedTransport(),
                           bin_width=bin_width)


class TestFlushSemantics:
    def test_flush_returns_last_message(self):
        messages, _, flushed = _run_daemon(_timed_stream(count=300))
        assert flushed is not None
        assert flushed is messages[-1]

    def test_flush_without_records_returns_none(self):
        transport = SimulatedTransport()
        daemon = _daemon(transport)
        assert daemon.flush() is None
        daemon.close()
        assert transport.receive("collector") == []

    def test_close_is_idempotent_and_flushes(self):
        transport = SimulatedTransport()
        daemon = _daemon(transport)
        daemon.consume_records(_timed_stream(count=50), batch_size=16)
        daemon.close()
        daemon.close()
        assert len(transport.receive("collector")) == daemon.stats.bins_exported
        assert daemon.stats.bins_exported >= 1

    def test_closed_daemon_refuses_records(self):
        transport = SimulatedTransport()
        daemon = _daemon(transport)
        daemon.consume_records(_timed_stream(count=20), batch_size=8)
        daemon.close()
        with pytest.raises(DaemonError):
            daemon.consume_record(make_timed_record(999.0))


class TestDeploymentWiring:
    def test_sites_are_the_unit_of_parallelism(self):
        with pytest.raises(DaemonError, match="daemon_workers"):
            Deployment(SCHEMA_4F, ["a"], bin_width=5.0, daemon_workers=1)

    @pytest.mark.parametrize("workers", [2, 4, -1])
    def test_any_nonzero_worker_count_rejected(self, workers):
        with pytest.raises(DaemonError, match="daemon_workers"):
            Deployment(SCHEMA_4F, ["a", "b"], bin_width=5.0, daemon_workers=workers)

    def test_deployment_replays_every_site(self):
        records = _timed_stream(count=600)
        with Deployment(SCHEMA_4F, ["a", "b"], bin_width=5.0,
                        daemon_config=UNBOUNDED, daemon_workers=0) as deployment:
            deployment.attach_records("a", records[:300])
            deployment.attach_records("b", records[300:])
            assert deployment.run() == {"a": 300, "b": 300}
            assert deployment.collector.merged().total_counters().flows == 600
