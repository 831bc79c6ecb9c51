"""Rebuild-vs-incremental compaction: equivalence bounds and the dispatch.

The bulk rebuild compactor must be a drop-in replacement for the
incremental victim rounds wherever summaries are *used*: same node budget,
exactly the same totals, and estimator answers within the paper's error
bound on every trace family.  Which of the two runs is not configurable —
the tree chooses from the overshoot it observes — so the strategy-level
tests force one side by patching the single threshold constant
(``helpers.force_rebuild`` / ``force_incremental``), and the regime tests
pin the choice itself through the public API only.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SimpleRecord, force_incremental, force_rebuild, make_record

from repro.core import Flowtree, FlowtreeConfig, to_bytes
from repro.core.compaction import rebuild_pays_off
from repro.core.key import FlowKey
from repro.features.ipaddr import IPv4Prefix
from repro.features.ports import PortRange
from repro.features.protocol import Protocol
from repro.features.schema import SCHEMA_4F
from repro.traces import (
    CaidaLikeTraceGenerator,
    DdosTraceGenerator,
    PortScanTraceGenerator,
)

#: The paper's Fig. 3 evaluation treats a weighted relative error below
#: 0.25 as faithful; both compaction strategies must stay inside it on
#: heavy aggregates, and inside it relative to each other.
ERROR_BOUND = 0.25

_TRACES = {
    "zipf": lambda: CaidaLikeTraceGenerator(seed=31, flow_population=30_000).packets(30_000),
    "ddos": lambda: DdosTraceGenerator(seed=31).packets(30_000),
    "portscan": lambda: PortScanTraceGenerator(seed=31).packets(30_000),
}


def _record(src_host, dst_host, sport, dport, packets):
    return SimpleRecord(
        src_ip=(10 << 24) | src_host,
        dst_ip=(192 << 24) | (168 << 16) | dst_host,
        src_port=1024 + sport,
        dst_port=dport,
        packets=packets,
        bytes=packets * 100,
    )


records_strategy = st.lists(
    st.builds(
        _record,
        src_host=st.integers(0, 200),
        dst_host=st.integers(0, 8),
        sport=st.integers(0, 10),
        dport=st.sampled_from([53, 80, 443]),
        packets=st.integers(1, 5),
    ),
    min_size=1,
    max_size=200,
)


def _heavy_query_keys(exact, min_share=0.01):
    """On-trajectory generalizations of the heaviest flows plus the heavy
    kept keys themselves — the aggregates operators actually query."""
    total = exact.total_counters().packets
    keys = []
    for key, _ in exact.top(10):
        if key.is_root:
            continue
        keys.append(key)
        steps = 0
        for ancestor in exact.chain_builder.chain(key):
            steps += 1
            if steps in (4, 8, 12) and not ancestor.is_root:
                keys.append(ancestor)
    heavy = []
    seen = set()
    for key in keys:
        if key in seen:
            continue
        seen.add(key)
        if exact.estimate(key).value("packets") >= total * min_share:
            heavy.append(key)
    return heavy


class TestStrategyEquivalence:
    @pytest.mark.parametrize("trace", sorted(_TRACES))
    def test_budget_totals_and_estimates_match_incremental(self, trace):
        packets = list(_TRACES[trace]())
        distinct = len({SCHEMA_4F.signature_of(p) for p in packets})
        budget = max(64, distinct // 10)
        assert distinct > 4 * budget, "workload must be in the budget << flows regime"

        exact = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        exact.add_batch(packets)
        trees = {}
        for strategy, forced in (("incremental", force_incremental), ("rebuild", force_rebuild)):
            tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=budget))
            with forced():
                tree.add_batch(packets)
            tree.validate()
            trees[strategy] = tree

        # Identical node budgets: both strategies end inside the same cap...
        assert len(trees["incremental"]) <= budget
        assert len(trees["rebuild"]) <= budget
        # ...and conserve every counter exactly.
        assert trees["incremental"].total_counters() == exact.total_counters()
        assert trees["rebuild"].total_counters() == exact.total_counters()
        assert trees["rebuild"].stats.rebuilds > 0
        assert trees["incremental"].stats.rebuilds == 0

        heavy = _heavy_query_keys(exact)
        assert heavy, "trace produced no heavy aggregates to query"
        for key in heavy:
            truth = exact.estimate(key).value("packets")
            for strategy, tree in trees.items():
                estimate = tree.estimate(key).value("packets")
                error = abs(estimate - truth) / truth
                assert error <= ERROR_BOUND, (
                    f"{trace}/{strategy}: {key.pretty()} estimated {estimate} "
                    f"vs {truth} (error {error:.2f})"
                )
            spread = abs(
                trees["rebuild"].estimate(key).value("packets")
                - trees["incremental"].estimate(key).value("packets")
            ) / truth
            assert spread <= ERROR_BOUND, (
                f"{trace}: strategies disagree by {spread:.2f} on {key.pretty()}"
            )

    @settings(max_examples=25, deadline=None)
    @given(records=records_strategy)
    def test_forced_rebuild_is_valid_and_conserving(self, records):
        """Property: any stream, tight budget — rebuild keeps the contract."""
        config = FlowtreeConfig(max_nodes=64, victim_batch=8)
        loop_tree = Flowtree(SCHEMA_4F, config)
        for record in records:
            loop_tree.add_record(record)
        rebuild_tree = Flowtree(SCHEMA_4F, config)
        with force_rebuild():
            rebuild_tree.add_batch(records, batch_size=0)
        rebuild_tree.validate()
        assert len(rebuild_tree) <= 64
        assert rebuild_tree.total_counters() == loop_tree.total_counters()
        root_estimate = rebuild_tree.estimate(rebuild_tree.root.key)
        assert root_estimate.counters == rebuild_tree.total_counters()

    @pytest.mark.parametrize("schema_name", ["1f", "5f"])
    def test_rebuild_works_on_other_schema_arities(self, schema_name, schema_1f, schema_5f):
        """The raw-signature fast path must handle bare (1-field) signatures
        and the protocol dimension's two-level hierarchy (5-field)."""
        schema = schema_1f if schema_name == "1f" else schema_5f
        packets = list(CaidaLikeTraceGenerator(seed=9, flow_population=20_000).packets(8_000))
        reference = Flowtree(schema, FlowtreeConfig(max_nodes=None))
        reference.add_batch(packets)
        tree = Flowtree(schema, FlowtreeConfig(max_nodes=64))
        tree.add_batch(packets)
        tree.validate()
        assert tree.stats.rebuilds > 0
        assert len(tree) <= 64
        assert tree.total_counters() == reference.total_counters()

    def test_rebuild_enforces_budget_over_protection(self):
        """Protection orders victims but the budget wins — a batch where
        almost every entry is protected must still fold down to the cap
        (the incremental rounds reach the same end state via their
        no-unprotected-leaves fallback)."""
        records = [
            make_record(src=f"10.{i // 200}.{(i // 40) % 5}.{i % 40}",
                        sport=1000 + i, packets=5 if i < 450 else 1)
            for i in range(500)
        ]
        config = FlowtreeConfig(max_nodes=64, protected_min_count=5)
        tree = Flowtree(SCHEMA_4F, config)
        tree.add_batch(records, batch_size=0)
        tree.validate()
        assert tree.stats.rebuilds > 0
        assert len(tree) <= 64
        incremental = Flowtree(SCHEMA_4F, config)
        for record in records:
            incremental.add_record(record)
        assert incremental.stats.rebuilds == 0
        assert tree.total_counters() == incremental.total_counters()
        assert len(incremental) <= 64

    def test_rebuild_with_generic_wire_token_fallbacks(self, monkeypatch):
        """A user-defined feature type that overrides neither ``mask_token``
        nor ``mask_raw`` must rebuild correctly through the base class's
        wire-form fallbacks (tokens are wire strings; ``mask_raw`` must
        compose by round-tripping ``from_wire``)."""
        from repro.features import schema as schema_module
        from repro.features.base import Feature

        class WireTokenProtocol(Protocol):
            """Protocol with only the mandatory Feature interface — token
            methods fall back to the generic implementations."""

            raw_signature_tokens = False

            def mask_token(self, target_specificity):
                return Feature.mask_token(self, target_specificity)

            @classmethod
            def mask_raw(cls, token, target_specificity):
                return Feature.mask_raw.__func__(cls, token, target_specificity)

            def generalize(self):
                return WireTokenProtocol(None)

            @classmethod
            def root(cls):
                return cls(None)

        monkeypatch.setitem(schema_module._FEATURE_TYPES, "protocol", WireTokenProtocol)
        monkeypatch.setitem(
            schema_module._EXTRACTORS, "protocol",
            lambda record: WireTokenProtocol(record.protocol),
        )
        monkeypatch.setitem(schema_module._ROOTS, "protocol", WireTokenProtocol.root)
        schema = schema_module.FlowSchema(
            "5f-wire", ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")
        )
        assert not Flowtree(schema, FlowtreeConfig())._raw_token_schema

        packets = list(CaidaLikeTraceGenerator(seed=9, flow_population=20_000).packets(6_000))
        reference = Flowtree(schema, FlowtreeConfig(max_nodes=None))
        reference.add_batch(packets)
        tree = Flowtree(schema, FlowtreeConfig(max_nodes=64))
        tree.add_batch(packets)
        tree.validate()
        assert tree.stats.rebuilds > 0
        assert len(tree) <= 64
        assert tree.total_counters() == reference.total_counters()

    def test_rebuild_without_raw_token_schema_uses_key_items(self, schema_5f, monkeypatch):
        """A feature type that cannot vouch for raw-signature tokens must
        push the rebuild through the (always-consistent) key-items path —
        same results, just without the key-construction shortcut."""
        from repro.features.protocol import Protocol

        packets = list(CaidaLikeTraceGenerator(seed=9, flow_population=20_000).packets(8_000))
        reference = Flowtree(schema_5f, FlowtreeConfig(max_nodes=64))
        reference.add_batch(packets)
        monkeypatch.setattr(Protocol, "raw_signature_tokens", False)
        tree = Flowtree(schema_5f, FlowtreeConfig(max_nodes=64))
        assert not tree._raw_token_schema
        tree.add_batch(packets)
        tree.validate()
        assert tree.stats.rebuilds > 0
        assert tree.total_counters() == reference.total_counters()
        assert to_bytes(tree) == to_bytes(reference)

    def test_rebuild_is_deterministic(self):
        packets = list(CaidaLikeTraceGenerator(seed=5, flow_population=20_000).packets(12_000))
        config = FlowtreeConfig(max_nodes=256)
        first = Flowtree(SCHEMA_4F, config)
        first.add_batch(packets)
        second = Flowtree(SCHEMA_4F, config)
        second.add_batch(packets)
        assert to_bytes(first) == to_bytes(second)

    def test_unbounded_mode_is_untouched_by_strategy(self):
        """With compaction disabled the strategy must not change a single byte."""
        records = [make_record(src=f"10.3.{i % 40}.{i % 7}", sport=3000 + i) for i in range(300)]
        reference = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        for record in records:
            reference.add_record(record)
        for forced in (force_incremental, force_rebuild):
            tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
            with forced():
                tree.add_batch(records)
            assert to_bytes(tree) == to_bytes(reference)

    @force_rebuild()
    def test_rebuild_applies_to_eager_compact_below_max(self):
        """compact() between target and max_nodes measures its excess
        against the compaction target, not against max_nodes."""
        records = _distinct_records(60)          # 61 nodes: over target 51, under max 64
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        tree.add_batch(records, batch_size=0)
        assert tree.stats.rebuilds == 0          # never exceeded max_nodes
        removed = tree.compact()
        assert removed > 0
        assert tree.stats.rebuilds == 1
        assert len(tree) <= 51

    @force_rebuild()
    def test_rebuild_covers_the_per_record_path(self):
        """compact() itself chooses, so plain add() streams can rebuild too."""
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        for record in _distinct_records(200):
            tree.add_record(record)
        tree.validate()
        assert tree.stats.rebuilds >= 1
        assert tree.stats.updates == 200
        assert len(tree) <= 64

    @force_incremental()
    def test_incremental_alone_holds_the_budget(self):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        tree.add_batch(_distinct_records(600), batch_size=0)
        assert tree.stats.rebuilds == 0
        assert len(tree) <= 64

    @force_rebuild()
    def test_rebuilt_trees_are_merge_consistent(self, packet_stream_small):
        config = FlowtreeConfig(max_nodes=128)
        half = len(packet_stream_small) // 2
        halves = [packet_stream_small[:half], packet_stream_small[half:]]
        trees = [Flowtree(SCHEMA_4F, config) for _ in halves]
        for tree, records in zip(trees, halves):
            tree.add_batch(records, batch_size=512)
            assert tree.stats.rebuilds >= 1
            tree.validate()
        merged = trees[0].merged(trees[1])
        merged.validate()
        expected = trees[0].total_counters()
        expected.add(trees[1].total_counters())
        assert merged.total_counters() == expected
        assert expected.packets == sum(record.packets for record in packet_stream_small)
        assert len(merged) <= config.max_nodes


def _distinct_records(count):
    return [
        make_record(src=f"10.{i // 250}.{(i // 50) % 5}.{i % 50}", sport=1000 + i % 997)
        for i in range(count)
    ]


class TestDispatchRegimes:
    """The strategy choice, observed through the public API only."""

    def test_churn_far_over_budget_rebuilds(self):
        """Distinct keys >= 10x the budget: the rebuild side of the dispatch."""
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        tree.add_batch(_distinct_records(640), batch_size=0)
        assert tree.stats.rebuilds > 0
        assert len(tree) <= 64

    def test_resident_working_set_never_compacts(self):
        """Re-covering keys the tree already holds is not an overshoot: a
        steady-state working set that fits the budget must never trigger a
        rebuild (or any compaction), no matter how many batches re-cover it."""
        records = _distinct_records(55)          # + root = 56 nodes, fits 64
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        for _ in range(5):
            tree.add_batch(records, batch_size=0)
        assert tree.stats.rebuilds == 0
        assert tree.stats.compactions == 0
        assert len(tree) == 56

    def test_small_overshoot_stays_incremental(self):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        tree.add_batch(_distinct_records(70), batch_size=0)
        assert tree.stats.rebuilds == 0
        assert tree.stats.compactions >= 1
        assert len(tree) <= 64

    def test_generator_and_list_items_build_the_same_tree(self):
        """``add_aggregated`` must not fork on the container type: the same
        items as a list and as a generator take the same strategy."""
        items = [
            (FlowKey.from_record(SCHEMA_4F, record), 1, 0, 1)
            for record in _distinct_records(300)
        ]
        from_list = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        from_list.add_aggregated(items)
        from_generator = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
        from_generator.add_aggregated(item for item in items)
        assert from_list.stats.rebuilds >= 1
        assert from_generator.stats.snapshot() == from_list.stats.snapshot()
        assert to_bytes(from_generator) == to_bytes(from_list)
        assert from_generator.total_counters().packets == 300

    def test_threshold_predicate(self):
        assert not rebuild_pays_off(100, 0, 100, 100)
        assert not rebuild_pays_off(150, 0, 100, 100)    # exactly at threshold: incremental
        assert rebuild_pays_off(151, 0, 100, 100)
        assert rebuild_pays_off(1, 151, 100, 100)
        # The union is bounded below by max(), not the sum: a batch that
        # re-covers the kept nodes is no overshoot.
        assert not rebuild_pays_off(100, 100, 100, 100)
        assert not rebuild_pays_off(10_000, 10_000, 100, None)

    def test_the_strategy_is_not_configurable(self):
        with pytest.raises(TypeError):
            FlowtreeConfig(compaction="rebuild")
        with pytest.raises(TypeError):
            FlowtreeConfig(rebuild_threshold=0.5)
        assert len(dataclasses.fields(FlowtreeConfig)) == 8


class TestTokenContract:
    """mask_token / mask_raw back the token-space fold; their contract is
    agreement with generalize_to and composability."""

    @given(value=st.integers(0, 2**32 - 1),
           s1=st.integers(0, 32), s2=st.integers(0, 32))
    @settings(max_examples=100, deadline=None)
    def test_prefix_tokens_agree_and_compose(self, value, s1, s2):
        low, high = sorted((s1, s2))
        feature = IPv4Prefix(value & ~((1 << (32 - high)) - 1) if high < 32 else value, high)
        assert feature.mask_token(low) == IPv4Prefix.mask_raw(feature.network, low)
        assert IPv4Prefix.mask_raw(IPv4Prefix.mask_raw(value, high), low) == \
            IPv4Prefix.mask_raw(value, low)
        assert feature.mask_token(low) == feature.generalize_to(low).mask_token(low)

    @given(port=st.integers(0, 65_535), s1=st.integers(0, 16), s2=st.integers(0, 16))
    @settings(max_examples=100, deadline=None)
    def test_port_tokens_compose(self, port, s1, s2):
        low, high = sorted((s1, s2))
        assert PortRange.mask_raw(PortRange.mask_raw(port, high), low) == \
            PortRange.mask_raw(port, low)

    def test_protocol_tokens(self):
        tcp = Protocol(6)
        assert tcp.mask_token(1) == 6
        assert tcp.mask_token(0) is None
        assert Protocol.mask_raw(6, 1) == 6
        assert Protocol.mask_raw(6, 0) is None

    def test_tokens_identify_ancestors(self):
        a = IPv4Prefix((10 << 24) | (1 << 16) | (2 << 8) | 3, 32)
        b = IPv4Prefix((10 << 24) | (1 << 16) | (2 << 8) | 9, 32)
        c = IPv4Prefix((10 << 24) | (9 << 16), 32)
        assert a.mask_token(24) == b.mask_token(24)
        assert a.mask_token(24) != c.mask_token(24)
        assert (a.mask_token(24) == b.mask_token(24)) == (
            a.generalize_to(24) == b.generalize_to(24)
        )
