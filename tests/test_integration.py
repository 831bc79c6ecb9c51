"""End-to-end integration tests spanning multiple subsystems.

Each test exercises a complete pipeline a user of the library would run:
capture -> codec -> daemon -> collector -> query, or trace -> summary ->
serialization -> accuracy analysis.  They are intentionally small enough to
run in a few seconds but cross every module boundary.
"""

import io

import pytest

from repro.analysis import AccuracyEvaluator, heavy_hitter_report, storage_report
from repro.baselines import ExactAggregator
from repro.core import FlowKey, Flowtree, FlowtreeConfig, from_bytes, to_bytes
from repro.distributed import (
    Collector,
    CollectorConfig,
    Deployment,
    FlowtreeDaemon,
    SimulatedTransport,
)
from repro.features.schema import SCHEMA_2F_SRC_DST, SCHEMA_4F, SCHEMA_5F
from repro.flows import (
    IpfixDecoder,
    encode_datagrams,
    encode_messages,
    packets_to_flows,
    read_pcap,
    write_pcap,
)
from repro.traces import CaidaLikeTraceGenerator, EnterpriseTraceGenerator
from repro.traces.replay import split_by_site


class TestCaptureToSummaryPipelines:
    """Raw capture formats -> Flowtree, with consistent totals throughout."""

    @pytest.fixture(scope="class")
    def packets(self):
        return list(CaidaLikeTraceGenerator(seed=404, flow_population=3_000).packets(9_000))

    def test_pcap_pipeline(self, packets):
        buffer = io.BytesIO()
        write_pcap(buffer, packets)
        buffer.seek(0)
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=2_000))
        tree.add_records(read_pcap(buffer))
        assert tree.total_counters().packets == len(packets)
        tree.validate()

    def test_netflow_pipeline_preserves_packet_totals(self, packets):
        flows = list(packets_to_flows(iter(packets), exporter="edge-9"))
        datagrams = list(encode_datagrams(flows, base_time=packets[0].timestamp))
        transport = SimulatedTransport()
        collector = Collector(SCHEMA_5F, transport, config=CollectorConfig(bin_width=3_600.0))
        daemon = FlowtreeDaemon(
            "edge-9", SCHEMA_5F, transport, collector_name=collector.name,
            bin_width=3_600.0, config=FlowtreeConfig(max_nodes=2_000),
        )
        daemon.consume_netflow(datagrams)
        daemon.flush()
        collector.poll()
        merged = collector.merged()
        assert merged.total_counters().packets == len(packets)
        # Per-protocol split survives the whole pipeline (5-feature schema).
        tcp = FlowKey.from_wire(SCHEMA_5F, ("6", "*", "*", "*", "*"))
        udp = FlowKey.from_wire(SCHEMA_5F, ("17", "*", "*", "*", "*"))
        other = len(packets) - merged.estimate(tcp).value() - merged.estimate(udp).value()
        assert 0 <= other < len(packets) * 0.1

    def test_ipfix_pipeline(self, packets):
        flows = list(packets_to_flows(iter(packets)))
        messages = list(encode_messages(flows, records_per_message=64))
        decoder = IpfixDecoder(exporter="edge-ipfix")
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=2_000))
        tree.add_records(decoder.decode_stream(messages))
        assert tree.total_counters().packets == len(packets)

    def test_summary_file_round_trip_supports_further_merging(self, packets):
        half = len(packets) // 2
        first = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=1_500))
        second = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=1_500))
        first.add_records(packets[:half])
        second.add_records(packets[half:])
        # Simulate two sites writing summary files read back by an analyst.
        restored_first = from_bytes(to_bytes(first))
        restored_second = from_bytes(to_bytes(second))
        merged = restored_first.merged(restored_second)
        assert merged.total_counters().packets == len(packets)


class TestAccuracyAgainstGroundTruth:
    def test_flowtree_beats_noise_and_keeps_heavy_flows(self):
        packets = list(CaidaLikeTraceGenerator(seed=901, flow_population=5_000).packets(15_000))
        tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=1_200))
        truth = ExactAggregator(SCHEMA_2F_SRC_DST)
        for packet in packets:
            tree.add_record(packet)
            truth.add_record(packet)
        report = AccuracyEvaluator(truth).evaluate(tree, trace_name="integration")
        assert report.diagonal_fraction > 0.5
        assert report.heavy_flow_recall == 1.0
        hh = heavy_hitter_report(tree, truth, threshold_fraction=0.01)
        assert hh.all_heavy_present
        storage = storage_report(tree, list(packets_to_flows(iter(packets))),
                                 packet_count=len(packets))
        assert storage.reduction_vs_pcap > 0.9

    def test_node_budget_tradeoff_is_monotone(self):
        packets = list(CaidaLikeTraceGenerator(seed=902, flow_population=4_000).packets(10_000))
        truth = ExactAggregator(SCHEMA_2F_SRC_DST)
        for packet in packets:
            truth.add_record(packet)
        errors = []
        for budget in (200, 800, 3_200):
            tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=budget))
            tree.add_records(packets)
            report = AccuracyEvaluator(truth).evaluate(tree, population="all")
            errors.append(report.weighted_relative_error)
        assert errors[0] >= errors[1] >= errors[2]


class TestMultiSiteScenario:
    def test_five_site_deployment_answers_fig1_query(self):
        sites = [f"site-{i}" for i in range(5)]
        deployment = Deployment(
            SCHEMA_2F_SRC_DST, sites, bin_width=120.0,
            daemon_config=FlowtreeConfig(max_nodes=1_500),
        )
        for index, site in enumerate(sites):
            generator = EnterpriseTraceGenerator(
                site_prefix=f"100.{70 + index}.0.0", seed=300 + index,
                customer_count=500, flows_per_customer=10,
            )
            deployment.attach_records(site, list(generator.packets(6_000)))
        deployment.run()

        # Total volume of traffic sent by peer-alpha (11.0.0.0/8) to all sites.
        response = deployment.query_engine.volume(("11.0.0.0/8", "*"))
        assert set(response.per_site) == set(sites)
        assert response.total == sum(response.per_site.values())
        total_traffic = deployment.query_engine.volume(("*", "*")).total
        assert total_traffic == 5 * 6_000
        # peer-alpha carries the largest configured share (~38 %) of every site.
        assert 0.2 < response.total / total_traffic < 0.6

        # Drill-down works on the merged cross-site view.
        steps = deployment.query_engine.investigate(("11.0.0.0/8", "*"), feature_index=0)
        assert isinstance(steps, list)
        # Transfer accounting is wired through.
        assert deployment.transfer_bytes() > 0
