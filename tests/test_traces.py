"""Tests for the synthetic trace generators and replay utilities."""

from collections import Counter

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.features.ipaddr import ipv4_to_int
from repro.flows.records import PacketRecord
from repro.traces import (
    CaidaLikeTraceGenerator,
    DdosScenario,
    DdosTraceGenerator,
    EnterpriseTraceGenerator,
    MawiLikeTraceGenerator,
    PortScanTraceGenerator,
    ScanScenario,
    ZipfRanks,
    interleave_by_time,
    lognormal_bytes,
    split_by_site,
    time_bins,
    truncated_power_law_sizes,
)
from repro.traces.base import AddressModel, PortModel, ProtocolMix, TraceProfile
from repro.traces.replay import bin_of, paced
from repro.traces.zipf import make_rng, weighted_choice


class TestZipfPrimitives:
    def test_zipf_ranks_are_skewed(self):
        rng = make_rng(1)
        sampler = ZipfRanks(1_000, 1.1, rng)
        samples = sampler.sample(50_000)
        counts = Counter(samples.tolist())
        assert counts[0] > counts.get(500, 0)
        assert samples.min() >= 0 and samples.max() < 1_000

    def test_zipf_probabilities_sum_to_one(self):
        sampler = ZipfRanks(100, 1.0, make_rng(2))
        assert sampler.probabilities().sum() == pytest.approx(1.0)

    def test_zipf_zero_count(self):
        assert ZipfRanks(10, 1.0, make_rng(0)).sample(0).size == 0

    def test_zipf_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ZipfRanks(0, 1.0, make_rng(0))
        with pytest.raises(ConfigurationError):
            ZipfRanks(10, -1.0, make_rng(0))
        with pytest.raises(ConfigurationError):
            ZipfRanks(10, 1.0, make_rng(0)).sample(-1)

    def test_power_law_sizes_within_bounds(self):
        sizes = truncated_power_law_sizes(10_000, 2.0, 1_000, make_rng(3))
        assert sizes.min() >= 1 and sizes.max() <= 1_000
        # Heavy-tailed: most flows are tiny.
        assert np.mean(sizes == 1) > 0.4

    def test_power_law_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            truncated_power_law_sizes(10, 2.0, 0, make_rng(0))

    def test_lognormal_bytes_clipped(self):
        sizes = lognormal_bytes(5_000, 6.0, 1.0, make_rng(4))
        assert sizes.min() >= 40 and sizes.max() <= 1_500

    def test_weighted_choice_distribution(self):
        values = weighted_choice([1, 2], [0.9, 0.1], 10_000, make_rng(5))
        assert np.mean(values == 1) > 0.8

    def test_weighted_choice_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            weighted_choice([1, 2], [0.0, 0.0], 10, make_rng(0))
        with pytest.raises(ConfigurationError):
            weighted_choice([], [], 10, make_rng(0))


class TestTraceGenerators:
    def test_caida_reproducible_with_seed(self):
        a = list(CaidaLikeTraceGenerator(seed=7, flow_population=5_000).packets(2_000))
        b = list(CaidaLikeTraceGenerator(seed=7, flow_population=5_000).packets(2_000))
        assert [p.five_tuple for p in a] == [p.five_tuple for p in b]
        assert [p.bytes for p in a] == [p.bytes for p in b]

    def test_caida_different_seeds_differ(self):
        a = list(CaidaLikeTraceGenerator(seed=1, flow_population=5_000).packets(1_000))
        b = list(CaidaLikeTraceGenerator(seed=2, flow_population=5_000).packets(1_000))
        assert [p.five_tuple for p in a] != [p.five_tuple for p in b]

    def test_caida_heavy_tail_shape(self):
        packets = list(CaidaLikeTraceGenerator(seed=3, flow_population=30_000).packets(60_000))
        flow_sizes = Counter(Counter(p.five_tuple for p in packets).values())
        total_flows = sum(flow_sizes.values())
        single = flow_sizes[1] / total_flows
        assert 0.4 < single < 0.85  # "more than half of flows are tiny"

    def test_caida_timestamps_monotone(self):
        packets = list(CaidaLikeTraceGenerator(seed=4).packets(5_000))
        timestamps = [p.timestamp for p in packets]
        assert all(b >= a for a, b in zip(timestamps, timestamps[1:]))

    def test_caida_packets_are_valid(self):
        for packet in CaidaLikeTraceGenerator(seed=5).packets(2_000):
            packet.validate()

    def test_flows_view_aggregates(self):
        generator = CaidaLikeTraceGenerator(seed=6, flow_population=2_000)
        flows = list(generator.flows(5_000))
        assert sum(flow.packets for flow in flows) == 5_000

    def test_mawi_has_more_small_flows_than_caida(self):
        caida = list(CaidaLikeTraceGenerator(seed=7, flow_population=30_000).packets(40_000))
        mawi = list(MawiLikeTraceGenerator(seed=7, flow_population=30_000).packets(40_000))
        caida_flows = len({p.five_tuple for p in caida})
        mawi_flows = len({p.five_tuple for p in mawi})
        assert mawi_flows > caida_flows

    def test_mawi_scan_component_uses_syn_probes(self):
        packets = list(MawiLikeTraceGenerator(seed=8, scan_fraction=0.3).packets(10_000))
        syn_only = [p for p in packets if p.tcp_flags == 0x02]
        assert len(syn_only) > 1_000

    def test_ddos_concentrates_on_victim_subnet(self):
        scenario = DdosScenario(victim_subnet="203.0.113.0", attack_fraction=0.4)
        packets = list(DdosTraceGenerator(scenario=scenario, seed=9).packets(20_000))
        victim_net = ipv4_to_int("203.0.113.0") & 0xFFFFFF00
        share = sum(1 for p in packets if (p.dst_ip & 0xFFFFFF00) == victim_net) / len(packets)
        assert share == pytest.approx(0.4, abs=0.05)
        attack = [p for p in packets if (p.dst_ip & 0xFFFFFF00) == victim_net]
        assert all(p.dst_port == scenario.attack_port for p in attack)

    def test_portscan_modes(self):
        horizontal = PortScanTraceGenerator(
            ScanScenario(mode="horizontal", scan_fraction=0.5), seed=10
        )
        packets = list(horizontal.packets(4_000))
        scanner = ipv4_to_int("198.51.100.77")
        probes = [p for p in packets if p.src_ip == scanner]
        assert len({p.dst_ip for p in probes}) > 500
        assert len({p.dst_port for p in probes}) == 1

        vertical = PortScanTraceGenerator(
            ScanScenario(mode="vertical", scan_fraction=0.5), seed=10
        )
        probes = [p for p in vertical.packets(4_000) if p.src_ip == scanner]
        assert len({p.dst_port for p in probes}) > 500
        assert len({p.dst_ip for p in probes}) == 1

    def test_scan_scenario_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ScanScenario(mode="diagonal")

    def test_enterprise_traffic_stays_in_site_prefix(self):
        generator = EnterpriseTraceGenerator(site_prefix="100.64.0.0", site_prefix_bits=16, seed=11)
        packets = list(generator.packets(5_000))
        site = ipv4_to_int("100.64.0.0")
        assert all((p.dst_ip & 0xFFFF0000) == site for p in packets)

        def peer_of(address):
            for peer in generator.peers:
                mask = ((1 << peer.prefix_bits) - 1) << (32 - peer.prefix_bits)
                if address & mask == ipv4_to_int(peer.prefix):
                    return peer.name
            return None

        peers = {peer_of(p.src_ip) for p in packets}
        assert None not in peers
        assert len(peers) == 5

    def test_trace_profile_validation(self):
        with pytest.raises(ConfigurationError):
            TraceProfile(flow_population=0)
        with pytest.raises(ConfigurationError):
            TraceProfile(mean_packet_interval=0)

    def test_profile_scaled(self):
        profile = TraceProfile(flow_population=100)
        assert profile.scaled(500).flow_population == 500
        assert profile.flow_population == 100

    def test_address_model_hierarchical_concentration(self):
        model = AddressModel(top_count=8, top_exponent=1.5)
        addresses = model.sample(20_000, make_rng(12))
        top_octets = Counter((int(a) >> 24) for a in addresses)
        assert len(top_octets) <= 8
        assert top_octets.most_common(1)[0][1] > 20_000 / 8

    def test_port_model_mixes_well_known_and_ephemeral(self):
        ports = PortModel(well_known_fraction=0.7).sample(20_000, make_rng(13))
        well_known_share = np.isin(ports, PortModel().well_known).mean()
        assert 0.6 < well_known_share < 0.85

    def test_protocol_mix(self):
        protocols = ProtocolMix().sample(10_000, make_rng(14))
        assert np.mean(protocols == 6) > 0.7


class TestReplayUtilities:
    def _packets(self, count, start=0.0, gap=1.0):
        return [PacketRecord(start + i * gap, 1, 2, 3, 4, bytes=10) for i in range(count)]

    def test_time_bins_groups_consecutively(self):
        packets = self._packets(10, gap=1.0)
        bins = list(time_bins(iter(packets), width=3.0))
        assert [len(records) for _, records in bins] == [3, 3, 3, 1]
        assert [bin_.index for bin_, _ in bins] == [0, 1, 2, 3]

    def test_time_bins_emits_empty_gaps(self):
        packets = [PacketRecord(t, 1, 2, 3, 4) for t in (0.0, 10.0)]
        bins = list(time_bins(iter(packets), width=3.0))
        assert [bin_.index for bin_, _ in bins] == [0, 1, 2, 3]
        assert [len(records) for _, records in bins] == [1, 0, 0, 1]

    def test_time_bins_rejects_unordered_input(self):
        packets = [PacketRecord(10.0, 1, 2, 3, 4), PacketRecord(1.0, 1, 2, 3, 4)]
        with pytest.raises(ConfigurationError):
            list(time_bins(iter(packets), width=3.0))

    def test_time_bins_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            list(time_bins(iter([]), width=0.0))

    def test_bin_of(self):
        assert bin_of(10.0, origin=0.0, width=3.0) == 3
        with pytest.raises(ConfigurationError):
            bin_of(1.0, 0.0, 0.0)

    def test_timebin_contains(self):
        bins = list(time_bins(iter(self._packets(3)), width=2.0))
        first_bin, records = bins[0]
        assert all(first_bin.contains(r.timestamp) for r in records)

    def test_split_by_site_hash_sharding(self):
        packets = [PacketRecord(0.0, src, 2, 3, 4) for src in range(1_000)]
        buckets = split_by_site(packets, ["a", "b", "c"])
        assert sum(len(v) for v in buckets.values()) == 1_000
        assert all(len(v) > 100 for v in buckets.values())

    def test_split_by_site_custom_function(self):
        packets = self._packets(10)
        buckets = split_by_site(packets, ["even", "odd"], site_of=lambda p: "even" if int(p.timestamp) % 2 == 0 else "odd")
        assert len(buckets["even"]) == 5

    def test_split_by_site_rejects_unknown_site(self):
        with pytest.raises(ConfigurationError):
            split_by_site(self._packets(2), ["a"], site_of=lambda p: "b")

    def test_interleave_by_time_orders_globally(self):
        stream_a = self._packets(5, start=0.0, gap=2.0)
        stream_b = self._packets(5, start=1.0, gap=2.0)
        merged = list(interleave_by_time([iter(stream_a), iter(stream_b)]))
        timestamps = [p.timestamp for p in merged]
        assert timestamps == sorted(timestamps)
        assert len(merged) == 10

    def test_paced_fast_forward(self):
        pairs = list(paced(self._packets(5)))
        assert len(pairs) == 5
        assert pairs[0][0] == 0.0
        with pytest.raises(ConfigurationError):
            list(paced(self._packets(2), speedup=0))
