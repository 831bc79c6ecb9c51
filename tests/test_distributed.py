"""Tests for the distributed layer: transport, diff sync, daemon, collector, queries, alerts."""

import pytest

from helpers import key2, make_record
from repro.core.config import FlowtreeConfig
from repro.core.errors import DaemonError, TransportError
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.distributed import (
    AlertManager,
    AlertPolicy,
    Collector,
    CollectorConfig,
    Deployment,
    DiffSyncDecoder,
    DiffSyncEncoder,
    DistributedQueryEngine,
    FlowtreeDaemon,
    FlowtreeTimeSeries,
    SimulatedTransport,
    SummaryMessage,
    transfer_comparison,
)
from repro.distributed.messages import QueryRequest
from repro.features.schema import SCHEMA_2F_SRC_DST
from repro.flows.netflow import encode_datagrams
from repro.flows.records import PacketRecord
from repro.traces import CaidaLikeTraceGenerator, EnterpriseTraceGenerator
from repro.traces.replay import split_by_site


def packet(timestamp, src, dst="192.0.2.1", packets_count=1):
    from repro.features.ipaddr import ipv4_to_int

    return PacketRecord(timestamp, ipv4_to_int(src), ipv4_to_int(dst), 1234, 80, 6, 100)


class TestTransport:
    def test_register_send_receive(self):
        transport = SimulatedTransport()
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", SummaryMessage("a", 0, 0.0, 1.0, "full", b"payload"))
        assert transport.pending("b") == 1
        received = transport.receive("b")
        assert len(received) == 1
        assert received[0][0] == "a"
        assert transport.pending("b") == 0

    def test_unknown_endpoints_raise(self):
        transport = SimulatedTransport()
        transport.register("a")
        with pytest.raises(TransportError):
            transport.send("a", "ghost", object())
        with pytest.raises(TransportError):
            transport.send("ghost", "a", object())
        with pytest.raises(TransportError):
            transport.receive("ghost")

    def test_byte_accounting_includes_overhead(self):
        transport = SimulatedTransport(overhead_bytes=100)
        transport.register("a")
        transport.register("b")
        message = SummaryMessage("a", 0, 0.0, 1.0, "full", b"x" * 500)
        transport.send("a", "b", message)
        log = transport.channel_log("a", "b")
        assert log.payload_bytes == 500
        assert log.overhead_bytes == 100
        assert transport.bytes_sent() == 600
        assert transport.bytes_sent(source="a") == 600
        assert transport.bytes_sent(destination="nowhere") == 0

    def test_bytes_sent_filters_by_both_endpoints(self):
        transport = SimulatedTransport(overhead_bytes=0)
        for name in ("a", "b", "c"):
            transport.register(name)
        transport.send("a", "c", SummaryMessage("a", 0, 0.0, 1.0, "full", b"x" * 10))
        transport.send("b", "c", SummaryMessage("b", 0, 0.0, 1.0, "full", b"x" * 20))
        transport.send("a", "b", SummaryMessage("a", 1, 0.0, 1.0, "full", b"x" * 40))
        assert transport.bytes_sent() == 70
        assert transport.bytes_sent(source="a") == 50
        assert transport.bytes_sent(destination="c") == 30
        assert transport.bytes_sent(source="a", destination="c") == 10
        assert transport.channel_log("a", "c").messages == 1

    def test_per_channel_returns_a_copy(self):
        transport = SimulatedTransport()
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", SummaryMessage("a", 0, 0.0, 1.0, "full", b"x"))
        table = transport.per_channel()
        assert set(table) == {("a", "b")}
        table.clear()
        assert set(transport.per_channel()) == {("a", "b")}

    def test_receive_limit(self):
        transport = SimulatedTransport()
        transport.register("a")
        transport.register("b")
        for i in range(5):
            transport.send("a", "b", SummaryMessage("a", i, 0.0, 1.0, "full", b""))
        assert len(transport.receive("b", limit=2)) == 2
        assert transport.pending("b") == 3

    def test_negative_receive_limit_raises(self):
        transport = SimulatedTransport()
        transport.register("a")
        with pytest.raises(TransportError, match="non-negative"):
            transport.receive("a", limit=-1)

    def test_channel_log_reads_do_not_pollute_accounting(self):
        transport = SimulatedTransport()
        transport.register("a")
        transport.register("b")
        log = transport.channel_log("a", "b")  # never-used channel
        assert log.messages == 0
        assert transport.per_channel() == {}
        assert transport.bytes_sent() == 0
        # mutating the placeholder must not leak into the table either
        log.record(100, 10)
        assert transport.per_channel() == {}
        assert transport.bytes_sent() == 0

    def test_unsized_message_raises_instead_of_charging_zero(self):
        transport = SimulatedTransport()
        transport.register("a")
        transport.register("b")
        with pytest.raises(TransportError, match="cannot size"):
            transport.send("a", "b", "a raw string")
        with pytest.raises(TransportError, match="cannot size"):
            transport.send("a", "b", object())
        assert transport.pending("b") == 0
        assert transport.bytes_sent() == 0

    def test_invalid_payload_bytes_attribute_raises(self):
        class Lying:
            payload_bytes = -5

        transport = SimulatedTransport()
        transport.register("a")
        transport.register("b")
        with pytest.raises(TransportError, match="invalid"):
            transport.send("a", "b", Lying())

    def test_raw_bytes_payload_is_sized_directly(self):
        class Blob:
            payload = b"\x00" * 37

        transport = SimulatedTransport()
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", Blob())
        assert transport.channel_log("a", "b").payload_bytes == 37


class TestDiffSync:
    def _tree(self, pairs):
        tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=500))
        for (src, dst), count in pairs:
            tree.add(key2(src, dst), packets=count)
        return tree

    def test_first_export_is_full(self):
        encoder = DiffSyncEncoder()
        encoded = encoder.encode(self._tree([(("10.0.0.1", "192.0.2.1"), 5)]))
        assert encoded.kind == "full"
        assert encoded.diff_size is None

    def test_similar_consecutive_bins_ship_smaller_diffs(self):
        encoder = DiffSyncEncoder()
        base_pairs = [((f"10.0.{i}.1", "192.0.2.1"), 50) for i in range(100)]
        encoder.encode(self._tree(base_pairs))
        second = self._tree(base_pairs + [(("172.16.0.1", "192.0.2.1"), 3)])
        encoded = encoder.encode(second)
        assert encoded.kind == "diff"
        assert encoded.chosen_size < encoded.full_size
        assert encoded.savings_fraction > 0.3

    def test_full_every_forces_checkpoints(self):
        encoder = DiffSyncEncoder(full_every=2)
        pairs = [((f"10.0.{i}.1", "192.0.2.1"), 50) for i in range(50)]
        kinds = [encoder.encode(self._tree(pairs)).kind for _ in range(5)]
        assert kinds[0] == "full"
        assert "full" in kinds[1:]

    def test_decoder_round_trip(self):
        encoder = DiffSyncEncoder()
        decoder = DiffSyncDecoder()
        trees = []
        pairs = []
        for step in range(4):
            pairs = pairs + [((f"10.0.{step}.{i}", "192.0.2.1"), step + i) for i in range(1, 20)]
            trees.append(self._tree(pairs))
        for index, tree in enumerate(trees):
            encoded = encoder.encode(tree)
            message = SummaryMessage("site", index, float(index), float(index + 1),
                                     encoded.kind, encoded.payload)
            reconstructed = decoder.decode(message)
            assert reconstructed.total_counters() == tree.total_counters()

    def test_decoder_rejects_diff_without_baseline(self):
        decoder = DiffSyncDecoder()
        tree = self._tree([(("10.0.0.1", "192.0.2.1"), 5)])
        from repro.core.serialization import to_bytes

        message = SummaryMessage("site", 0, 0.0, 1.0, "diff", to_bytes(tree))
        with pytest.raises(DaemonError):
            decoder.decode(message)

    def test_transfer_comparison_diffs_cheaper(self):
        pairs = [((f"10.0.{i // 250}.{i % 250}", "192.0.2.1"), 10) for i in range(1_000)]
        trees = []
        for step in range(5):
            extra = [((f"172.16.{step}.{i}", "198.51.100.1"), 1) for i in range(10)]
            trees.append(self._tree(pairs + extra))
        full_bytes, diff_bytes = transfer_comparison(trees)
        assert diff_bytes < full_bytes * 0.6


class TestTimeSeries:
    def test_routing_and_range_queries(self):
        series = FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=10.0,
                                    config=FlowtreeConfig(max_nodes=500))
        for t in range(35):
            series.add_record(packet(float(t), "10.0.0.1"))
        assert series.bin_indices() == [0, 1, 2, 3]
        assert series.query_range(key2("10.0.0.1", "192.0.2.1")) == 35
        assert series.query_range(key2("10.0.0.1", "192.0.2.1"), start_bin=1, end_bin=2) == 20
        merged = series.merged_range()
        assert merged.total_counters().packets == 35

    def test_series_and_totals(self):
        series = FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=5.0)
        for t in range(20):
            series.add_record(packet(float(t), "10.0.0.1"))
        per_bin = series.series(key2("10.0.0.1", "192.0.2.1"))
        assert per_bin == {0: 5, 1: 5, 2: 5, 3: 5}
        assert series.total_by_bin() == per_bin

    def test_bin_bounds_and_eviction(self):
        series = FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=10.0)
        series.add_record(packet(100.0, "10.0.0.1"))
        series.add_record(packet(125.0, "10.0.0.1"))
        start, end = series.bin_bounds(0)
        assert (start, end) == (100.0, 110.0)
        assert series.evict_before(2) == 1
        assert series.bin_indices() == [2]

    def test_merged_range_empty_raises(self):
        series = FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=10.0)
        from repro.core.errors import QueryError

        with pytest.raises(QueryError):
            series.merged_range()

    def test_rejects_bad_bin_width(self):
        from repro.core.errors import QueryError

        with pytest.raises(QueryError):
            FlowtreeTimeSeries(SCHEMA_2F_SRC_DST, bin_width=0.0)


class TestDaemonAndCollector:
    def _wire(self, use_diffs=True, bin_width=10.0):
        transport = SimulatedTransport()
        collector = Collector(
            SCHEMA_2F_SRC_DST, transport, config=CollectorConfig(bin_width=bin_width)
        )
        daemon = FlowtreeDaemon(
            "edge-1", SCHEMA_2F_SRC_DST, transport,
            collector_name=collector.name, bin_width=bin_width,
            config=FlowtreeConfig(max_nodes=500), use_diffs=use_diffs,
        )
        return transport, collector, daemon

    def test_bin_rollover_exports_summaries(self):
        transport, collector, daemon = self._wire()
        for t in range(35):
            daemon.consume_record(packet(float(t), "10.0.0.1"))
        daemon.flush()
        assert daemon.stats.bins_exported == 4
        assert collector.poll() == 4
        assert collector.sites == ["edge-1"]
        series = collector.site_series("edge-1")
        assert series.bin_indices() == [0, 1, 2, 3]
        total, per_site = collector.estimate(key2("10.0.0.1", "192.0.2.1"))
        assert total == 35
        assert per_site == {"edge-1": 35}

    def test_daemon_charges_late_records_to_current_bin(self):
        _, _, daemon = self._wire()
        daemon.consume_record(packet(100.0, "10.0.0.1"))
        daemon.consume_record(packet(120.0, "10.0.0.1"))  # rolls over
        daemon.consume_record(packet(50.0, "10.0.0.1"))   # late arrival
        assert daemon.stats.late_records == 1
        assert daemon.current_tree.total_counters().packets == 2

    def test_daemon_consumes_netflow_datagrams(self, flow_records_small):
        transport, collector, daemon = self._wire(bin_width=3600.0)
        datagrams = list(encode_datagrams(flow_records_small, base_time=999.0))
        consumed = daemon.consume_netflow(datagrams)
        assert consumed == len(flow_records_small)
        daemon.flush()
        collector.poll()
        merged = collector.merged()
        assert merged.total_counters().packets == sum(f.packets for f in flow_records_small)

    def test_diff_encoding_reduces_exported_bytes(self):
        # Same heavy flows in every bin: diffs should be much smaller than fulls.
        def drive(use_diffs):
            transport, collector, daemon = self._wire(use_diffs=use_diffs)
            for bin_index in range(5):
                for i in range(200):
                    daemon.consume_record(packet(bin_index * 10.0 + (i % 9), f"10.0.{i % 50}.{i % 200}"))
            daemon.flush()
            collector.poll()
            return daemon.stats.exported_bytes, collector

        with_diffs, collector = drive(True)
        without_diffs, _ = drive(False)
        assert with_diffs < without_diffs
        assert collector.merged().total_counters().packets == 1_000

    def test_collector_rejects_unknown_message(self):
        class SizedButWrong:
            payload_bytes = 12

        transport = SimulatedTransport()
        collector = Collector(SCHEMA_2F_SRC_DST, transport)
        transport.register("x")
        transport.send("x", collector.name, SizedButWrong())
        with pytest.raises(DaemonError):
            collector.poll()

    def test_collector_unknown_site_raises(self):
        transport = SimulatedTransport()
        collector = Collector(SCHEMA_2F_SRC_DST, transport)
        with pytest.raises(DaemonError):
            collector.site_series("nowhere")


class TestQueryEngineAndAlerts:
    @pytest.fixture(scope="class")
    def deployment(self):
        sites = ["site-a", "site-b", "site-c"]
        deployment = Deployment(
            SCHEMA_2F_SRC_DST, sites, bin_width=60.0,
            daemon_config=FlowtreeConfig(max_nodes=2_000),
        )
        generator = CaidaLikeTraceGenerator(seed=31, flow_population=5_000)
        packets = list(generator.packets(15_000))
        buckets = split_by_site(packets, sites)
        for name in sites:
            deployment.attach_records(name, buckets[name])
        deployment.run()
        return deployment

    def test_volume_query_sums_sites(self, deployment):
        response = deployment.query_engine.volume(("*", "*"))
        assert response.total == 15_000
        assert set(response.per_site) == {"site-a", "site-b", "site-c"}
        assert sum(response.per_site.values()) == 15_000

    def test_execute_raw_request(self, deployment):
        request = QueryRequest(key_wire=("*", "*"), request_id=42)
        response = deployment.query_engine.execute(request)
        assert response.request_id == 42
        assert response.total == 15_000
        assert response.per_bin  # at least one bin populated

    def test_top_aggregates_and_breakdown(self, deployment):
        top = deployment.query_engine.top_aggregates(5)
        assert len(top) == 5
        assert all(value > 0 for _, value in top)
        breakdown = deployment.query_engine.breakdown(("*", "*"), feature_index=0, step=8)
        assert sum(value for _, value in breakdown) == 15_000

    def test_compare_sites(self, deployment):
        per_site = deployment.query_engine.compare_sites(("*", "*"))
        assert sum(per_site.values()) == 15_000

    def test_site_filtering(self, deployment):
        response = deployment.query_engine.volume(("*", "*"), sites=("site-a",))
        assert response.per_site.keys() == {"site-a"}
        assert response.total < 15_000

    def test_alert_manager_detects_surge(self):
        manager = AlertManager(AlertPolicy(min_popularity=100, warning_change=1.0,
                                           critical_change=3.0))
        quiet = Flowtree(SCHEMA_2F_SRC_DST)
        quiet.add(key2("10.0.0.1", "192.0.2.1"), packets=200)
        surge = Flowtree(SCHEMA_2F_SRC_DST)
        surge.add(key2("10.0.0.1", "192.0.2.1"), packets=200)
        surge.add(key2("172.16.0.9", "203.0.113.5"), packets=5_000)
        assert manager.observe("edge", 0, quiet) == []
        alerts = manager.observe("edge", 1, surge)
        assert alerts, "expected the surge to raise an alert"
        assert alerts[0].severity == "critical"
        assert manager.critical_alerts()
        assert "increased" in alerts[0].describe()

    def test_alert_manager_ignores_small_changes(self):
        manager = AlertManager(AlertPolicy(min_popularity=100, warning_change=1.0))
        a = Flowtree(SCHEMA_2F_SRC_DST)
        a.add(key2("10.0.0.1", "192.0.2.1"), packets=1_000)
        b = Flowtree(SCHEMA_2F_SRC_DST)
        b.add(key2("10.0.0.1", "192.0.2.1"), packets=1_100)
        manager.observe("edge", 0, a)
        assert manager.observe("edge", 1, b) == []

    def test_deployment_transfer_accounting(self, deployment):
        assert deployment.transfer_bytes() > 0
        assert deployment.collector.bytes_received > 0
        assert deployment.collector.bytes_received <= deployment.transfer_bytes()

    def test_deployment_unknown_site(self, deployment):
        with pytest.raises(DaemonError):
            deployment.site("atlantis")

    def test_deployment_requires_sites(self):
        with pytest.raises(DaemonError):
            Deployment(SCHEMA_2F_SRC_DST, [])
