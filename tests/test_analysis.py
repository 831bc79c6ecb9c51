"""Tests for the analysis layer: histograms, accuracy, storage, heavy hitters, drill-down."""

import pytest

from helpers import key2, key4, make_record
from repro.analysis import (
    AccuracyEvaluator,
    Histogram2D,
    comparison_line,
    error_percentiles,
    format_bytes,
    format_count,
    format_fraction,
    heavy_hitter_report,
    investigate,
    port_profile,
    render_kv,
    render_table,
    storage_report,
    transfer_report,
)
from repro.baselines import ExactAggregator
from repro.core.config import FlowtreeConfig
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.features.schema import SCHEMA_2F_SRC_DST, SCHEMA_4F
from repro.flows.records import packets_to_flows
from repro.traces import CaidaLikeTraceGenerator, DdosScenario, DdosTraceGenerator


@pytest.fixture(scope="module")
def workload():
    generator = CaidaLikeTraceGenerator(seed=55, flow_population=4_000)
    packets = list(generator.packets(12_000))
    tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=1_500))
    truth = ExactAggregator(SCHEMA_2F_SRC_DST)
    for packet in packets:
        tree.add_record(packet)
        truth.add_record(packet)
    return packets, tree, truth


class TestHistogram2D:
    def test_binning_is_logarithmic(self):
        histogram = Histogram2D(bins_per_decade=1)
        assert histogram.bin_of(0) == 0
        assert histogram.bin_of(1) == 1
        assert histogram.bin_of(9) == 1
        assert histogram.bin_of(10) == 2
        assert histogram.bin_of(999) == 3

    def test_bin_bounds_invert_binning(self):
        histogram = Histogram2D(bins_per_decade=2)
        for value in (1, 5, 42, 980):
            low, high = histogram.bin_bounds(histogram.bin_of(value))
            assert low <= value < high or value < 1

    def test_diagonal_fraction(self):
        histogram = Histogram2D()
        histogram.add_pairs([(10, 10), (100, 100), (10, 1_000)])
        assert histogram.diagonal_fraction() == pytest.approx(2 / 3)
        assert histogram.diagonal_fraction(tolerance_bins=100) == 1.0
        assert Histogram2D().diagonal_fraction() == 0.0

    def test_row_totals_and_max_bin(self):
        histogram = Histogram2D(bins_per_decade=1)
        histogram.add_pairs([(10, 10), (10, 20), (1000, 900)])
        totals = histogram.row_totals()
        assert totals[histogram.bin_of(10)] == 2
        assert histogram.max_bin() >= histogram.bin_of(1000)

    def test_render_produces_grid(self):
        histogram = Histogram2D()
        histogram.add_pairs([(10 ** i, 10 ** i) for i in range(5)] * 3)
        art = histogram.render()
        assert "actual popularity" in art
        assert len(art.splitlines()) > 5
        assert Histogram2D().render() == "(empty histogram)"


class TestAccuracyEvaluator:
    def test_report_matches_paper_shape(self, workload):
        packets, tree, truth = workload
        evaluator = AccuracyEvaluator(truth)
        report = evaluator.evaluate(tree, trace_name="caida-like")
        # Default population: flows kept in the tree (the paper's Fig. 3 population).
        assert 0 < report.query_count <= truth.distinct_flows()
        assert report.node_count == tree.node_count()
        # The paper's headline: > 57 % of entries on the diagonal; allow margin.
        assert report.diagonal_fraction > 0.5
        assert report.near_diagonal_fraction >= report.diagonal_fraction
        assert report.heavy_flow_recall == 1.0
        assert 0.0 <= report.weighted_relative_error < 0.5
        row = report.row()
        assert row["trace"] == "caida-like"
        assert set(row) >= {"diagonal_fraction", "heavy_flow_recall", "nodes"}

    def test_exact_summary_scores_perfectly(self, workload):
        packets, _, truth = workload
        exact_tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=None))
        exact_tree.add_records(packets)
        report = AccuracyEvaluator(truth).evaluate(exact_tree)
        assert report.exact_fraction == 1.0
        assert report.diagonal_fraction == 1.0
        assert report.weighted_relative_error == 0.0

    def test_explicit_query_keys(self, workload):
        _, tree, truth = workload
        keys = list(truth.keys())[:100]
        report = AccuracyEvaluator(truth).evaluate(tree, query_keys=keys)
        assert report.query_count == 100

    def test_error_percentiles(self):
        result = error_percentiles([100, 100, 100], [100, 110, 200], percentiles=(50, 99))
        assert result[50] == pytest.approx(0.1)
        assert result[99] > 0.5
        assert error_percentiles([], []) == {50: 0.0, 90: 0.0, 99: 0.0}


class TestHeavyHitterAnalysis:
    def test_report_finds_all_heavy_flows(self, workload):
        _, tree, truth = workload
        report = heavy_hitter_report(tree, truth, threshold_fraction=0.01)
        assert report.all_heavy_present
        assert report.recall == 1.0
        assert 0.0 < report.precision <= 1.0
        assert set(report.row()) >= {"precision", "recall", "true_heavy"}


class TestStorageAndTransfer:
    def test_storage_report_reduction(self, workload):
        packets, tree, _ = workload
        flows = list(packets_to_flows(iter(packets)))
        report = storage_report(tree, flows, packet_count=len(packets))
        assert report.flow_count == len(flows)
        assert report.netflow_bytes > 0
        assert report.summary_compressed_bytes < report.summary_bytes
        assert report.reduction_vs_pcap > report.reduction_vs_netflow
        assert len(report.rows()) == 7

    def test_transfer_report(self, workload):
        packets, _, _ = workload
        third = len(packets) // 3
        trees = []
        for i in range(3):
            tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=800))
            tree.add_records(packets[i * third:(i + 1) * third])
            trees.append(tree)
        report = transfer_report(trees, [third] * 3)
        assert report.bins == 3
        assert report.full_bytes > 0
        assert report.diff_bytes <= report.full_bytes
        assert -1.0 <= report.reduction_vs_raw <= 1.0


class TestDrilldownAndReport:
    def test_investigate_identifies_ddos_victim(self):
        scenario = DdosScenario(victim_subnet="203.0.113.0", attack_fraction=0.5,
                                victim_hosts=1)
        packets = list(DdosTraceGenerator(scenario=scenario, seed=3).packets(30_000))
        # Destination-oriented investigations keep the destination specific the
        # longest by generalizing the other features first; see the ABL-POLICY
        # benchmark for the quantitative comparison of policies.
        tree = Flowtree(
            SCHEMA_4F, FlowtreeConfig(max_nodes=4_000, policy="priority:0,2,3,1")
        )
        tree.add_records(packets)
        start = FlowKey.from_wire(SCHEMA_4F, ("*", "203.0.0.0/8", "*", "*"))
        report = investigate(tree, start, feature_index=1, step=8)
        assert report.total > 10_000
        assert report.path, "expected the drill-down to find a dominant branch"
        deepest = report.path[-1].key[1]
        assert deepest.contains_address(scenario.victim_network | 10)
        assert "explains" in report.verdict
        assert "Investigation" in report.describe()

    def test_investigate_no_traffic(self):
        tree = Flowtree(SCHEMA_2F_SRC_DST)
        report = investigate(tree, key2("10.0.0.0/8", "*"), feature_index=0)
        assert report.total == 0
        assert "no traffic" in report.verdict

    def test_port_profile_names_services(self):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=2_000))
        tree.add_record(make_record(dport=443, packets=80))
        tree.add_record(make_record(dport=53, packets=20, protocol=17))
        rows = port_profile(tree, FlowKey.root(SCHEMA_4F), port_feature_index=3)
        services = {row["service"] for row in rows}
        assert "https" in services

    def test_render_table_and_kv(self):
        table = render_table([{"a": 1, "b": 2.34567}, {"a": 10, "b": None}])
        assert "a" in table and "2.346" in table and "-" in table
        assert render_table([]) == "(no rows)"
        block = render_kv("Title", {"key": 1.23456, "other": "x"})
        assert block.startswith("Title")
        assert "1.235" in block

    def test_formatters(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2_048) == "2.0 KiB"
        assert format_bytes(5 * 1024 ** 2) == "5.0 MiB"
        assert format_count(1234567) == "1,234,567"
        assert format_fraction(0.9512) == "95.1%"
        assert format_fraction(None) == "-"
        line = comparison_line("diagonal", 0.61, ">0.57")
        assert line["quantity"] == "diagonal"
