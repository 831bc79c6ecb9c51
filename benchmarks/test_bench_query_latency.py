"""CLAIM-QUERY — indexed query engine vs the pre-index query paths.

PR 1 made ingestion fast and left queries walking chains and node sets
(ROADMAP: "re-profile the estimator/off-trajectory query paths next").
The indexed query engine answers from cached subtree aggregates and the
per-level token projection index instead.  Two claims are measured on the
paper's headline regime (node budget = distinct flows / 10, incremental
compaction, so the summary holds aggregates at many interior levels):

* **batch estimation** — ``estimate_many`` over 10 k fully specific keys
  drawn from the stream, against the per-key *naive reference walker*
  (:mod:`repro.core.reference`, the index-free cost model: per-call
  subtree walks and containment scans).  Gated at >= 5x.  A second,
  ungated row compares against a reconstruction of the pre-PR *probe*
  path (kept keys walk their subtree per call, absent keys resolve the
  ancestor through the populated-level index with one constructed
  ``FlowKey`` per probed level) — the engine must still beat that
  strictly per-key path, asserted at >= 1.5x.
* **drill-down** — a four-feature interactive investigation
  (``drill_down`` from the root along every dimension) against the
  reference walker, which re-scans every kept node per level exactly
  like the pre-PR implementation did.  Gated at >= 3x.

All timings exclude collector pauses (``gc`` is disabled inside each
measured region, identically for every contender) and the claim ratios
are medians of three interleaved measurements, recorded as ``rel_*``
``extra_info`` for CI's cross-run regression gate.
"""

import gc
import statistics
import time
from unittest import mock

import pytest

from workloads import print_header
from repro.analysis import render_table
from repro.core import Flowtree, FlowtreeConfig, compaction, drill_down, estimate_many
from repro.core.flowtree import Estimate
from repro.core.key import FlowKey
from repro.core.node import Counters
from repro.core.reference import walk_drill_down, walk_estimate
from repro.features.schema import SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator


def _timed(fn):
    """Run ``fn`` with the GC parked; return (elapsed seconds, result)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, result


def _probe_path_estimate(tree, key):
    """The pre-PR per-key estimate for fully specific keys.

    Kept keys re-walk their subtree on every call; absent keys resolve
    the nearest ancestor through ``_longest_matching_ancestor`` — the
    populated-level probe path, which constructs one generalized
    ``FlowKey`` per probed level.  This is the strongest per-key baseline
    the pre-index code had for this key class.
    """
    node = tree._get_node(key)
    if node is not None:
        descendants = Counters()
        for member in node.iter_subtree():
            if member is not node:
                descendants.add(member.counters)
        return Estimate(
            key=key,
            counters=node.counters + descendants,
            exact_node=True,
            from_descendants=descendants,
            from_ancestor=Counters(),
        )
    ancestor = tree._longest_matching_ancestor(key)
    share = min(1.0, key.cardinality / ancestor.key.cardinality)
    from_ancestor = ancestor.counters.scaled(share)
    return Estimate(
        key=key,
        counters=from_ancestor.copy(),
        exact_node=False,
        from_descendants=Counters(),
        from_ancestor=from_ancestor,
    )


def _build_summary():
    """Budget = distinct/10 summary with interior aggregate levels."""
    generator = CaidaLikeTraceGenerator(seed=104, flow_population=400_000)
    packets = list(generator.packets(80_000))
    distinct = len({SCHEMA_4F.signature_of(p) for p in packets})
    budget = max(16, distinct // 10)
    tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=budget))
    # Incremental victim rounds leave aggregates at many interior levels;
    # the bulk rebuild would flatten this regime into far fewer of them.
    with mock.patch.object(compaction, "REBUILD_OVERSHOOT", float("inf")):
        tree.add_batch(packets)
    return tree, packets, distinct


@pytest.mark.benchmark(group="query-latency")
def test_claim_query_batch_estimation(benchmark):
    """CLAIM-QUERY (a): estimate_many >= 5x the per-key naive walker."""
    tree, packets, distinct = _build_summary()
    keys = [FlowKey.from_record(SCHEMA_4F, packet) for packet in packets[:10_000]]
    kept = sum(1 for key in keys if key in tree)

    def run():
        walker_times, probe_times, batch_times = [], [], []
        for _ in range(3):
            elapsed, walker = _timed(
                lambda: {key: walk_estimate(tree, key) for key in keys}
            )
            walker_times.append(elapsed)
            elapsed, probed = _timed(
                lambda: {key: _probe_path_estimate(tree, key) for key in keys}
            )
            probe_times.append(elapsed)
            elapsed, batched = _timed(lambda: estimate_many(tree, keys))
            batch_times.append(elapsed)
        return (
            walker,
            probed,
            batched,
            statistics.median(walker_times),
            statistics.median(probe_times),
            statistics.median(batch_times),
        )

    walker, probed, batched, walker_time, probe_time, batch_time = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    # All three paths answer byte-identically for every key.
    assert set(batched) == set(walker) == set(probed)
    for key, estimate in batched.items():
        assert estimate.counters == walker[key].counters, key.pretty()
        assert estimate.counters == probed[key].counters, key.pretty()
        assert estimate.from_ancestor == walker[key].from_ancestor

    walker_speedup = walker_time / batch_time
    probe_speedup = probe_time / batch_time
    benchmark.extra_info["rel_query_batch_speedup"] = round(walker_speedup, 3)
    # Host-shape-sensitive margin (kept/absent mix + allocator speed), so it
    # carries no rel_ prefix: informational, not part of the cross-run gate.
    benchmark.extra_info["query_batch_vs_probe_path"] = round(probe_speedup, 3)
    print_header(
        "CLAIM-QUERY (a)",
        f"estimate_many of {len(keys)} fully specific keys "
        f"({distinct} distinct flows, {len(tree)} nodes, "
        f"{kept / len(keys):.0%} kept; median of 3)",
    )
    per_key = len(keys)
    print(render_table([
        {"path": "per-key naive walker", "keys_per_second": int(per_key / walker_time),
         "speedup": "1.00x"},
        {"path": "per-key probe path (pre-PR)", "keys_per_second": int(per_key / probe_time),
         "speedup": f"{walker_time / probe_time:.2f}x"},
        {"path": "estimate_many (indexed)", "keys_per_second": int(per_key / batch_time),
         "speedup": f"{walker_speedup:.2f}x"},
    ]))
    assert walker_speedup >= 5.0, (
        f"batch estimation only reached {walker_speedup:.2f}x over the naive "
        f"walker ({batch_time * 1000:.1f}ms vs {walker_time * 1000:.1f}ms)"
    )
    assert probe_speedup >= 1.5, (
        f"batch estimation only reached {probe_speedup:.2f}x over the "
        f"per-key probe path ({batch_time * 1000:.1f}ms vs {probe_time * 1000:.1f}ms)"
    )


@pytest.mark.benchmark(group="query-latency")
def test_claim_query_drill_down(benchmark):
    """CLAIM-QUERY (b): indexed drill-down >= 3x the full-scan walker."""
    tree, _packets, distinct = _build_summary()
    root = FlowKey.root(SCHEMA_4F)

    def investigate_indexed():
        return [
            drill_down(tree, root, feature_index, step=4, dominance=0.3)
            for feature_index in range(4)
        ]

    def investigate_walker():
        return [
            walk_drill_down(tree, root, feature_index, step=4, dominance=0.3)
            for feature_index in range(4)
        ]

    def run():
        walker_times, indexed_times = [], []
        for _ in range(3):
            elapsed, walker_paths = _timed(investigate_walker)
            walker_times.append(elapsed)
            elapsed, indexed_paths = _timed(investigate_indexed)
            indexed_times.append(elapsed)
        return (
            walker_paths,
            indexed_paths,
            statistics.median(walker_times),
            statistics.median(indexed_times),
        )

    walker_paths, indexed_paths, walker_time, indexed_time = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Identical investigations, step for step.
    for indexed, walker in zip(indexed_paths, walker_paths):
        assert [
            (step.key, step.value, step.share_of_parent, step.depth)
            for step in indexed
        ] == walker
    assert any(indexed_paths), "expected at least one non-trivial drill-down"

    speedup = walker_time / indexed_time
    benchmark.extra_info["rel_query_drilldown_speedup"] = round(speedup, 3)
    print_header(
        "CLAIM-QUERY (b)",
        f"4-feature drill-down investigation ({len(tree)} nodes, "
        f"{distinct} distinct flows; median of 3)",
    )
    print(render_table([
        {"path": "full-scan walker (pre-PR)",
         "investigation_ms": round(walker_time * 1000, 1), "speedup": "1.00x"},
        {"path": "indexed drill_down",
         "investigation_ms": round(indexed_time * 1000, 1),
         "speedup": f"{speedup:.2f}x"},
    ]))
    assert speedup >= 3.0, (
        f"drill-down only reached {speedup:.2f}x over the full-scan walker "
        f"({indexed_time * 1000:.1f}ms vs {walker_time * 1000:.1f}ms)"
    )
