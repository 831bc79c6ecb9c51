"""CLAIM-UPDATE — amortized constant update time.

The paper: "we compute the statistics node but do not aggregate the
statistics for nodes further in the tree.  This leads to an amortized
constant update time."  Two measurements back this up here:

* update throughput over successive windows of one long stream — it must
  not degrade as the tree fills and compaction kicks in (constant amortized
  cost), and
* update throughput as a function of the node budget — a larger tree must
  not make updates slower (the cost is per-update work, not per-node).

A third table compares per-update cost against the hierarchical-heavy-hitter
baselines, which pay O(levels) per packet.
"""

import statistics
import time
from unittest import mock

import pytest

from workloads import print_header
from repro.analysis import render_table
from repro.baselines import FullUpdateHHH, RandomizedHHH, SpaceSavingSummary
from repro.core import Flowtree, FlowtreeConfig, compaction
from repro.features.schema import SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator


def _updates_per_second(tree, packets) -> float:
    start = time.perf_counter()
    tree.add_records(packets)
    elapsed = time.perf_counter() - start
    return len(packets) / elapsed if elapsed > 0 else float("inf")


@pytest.mark.benchmark(group="update-throughput")
def test_claim_amortized_constant_updates_over_stream(benchmark):
    """Throughput per window stays flat as the stream progresses."""
    generator = CaidaLikeTraceGenerator(seed=99, flow_population=60_000)
    windows = 6
    window_size = 25_000
    packets = list(generator.packets(windows * window_size))
    tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=3_000))

    def run():
        rates = []
        for index in range(windows):
            window = packets[index * window_size:(index + 1) * window_size]
            rates.append(_updates_per_second(tree, window))
        return rates

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("CLAIM-UPDATE (a)", "update throughput per stream window (constant amortized cost)")
    print(render_table([
        {"window": index, "stream_position": (index + 1) * window_size,
         "updates_per_second": int(rate), "nodes": "<= 3000"}
        for index, rate in enumerate(rates)
    ]))
    # Later windows must not be dramatically slower than the early ones.
    steady = rates[-1]
    warmup = rates[0]
    assert steady > warmup * 0.4, (
        f"update rate degraded from {warmup:.0f}/s to {steady:.0f}/s over the stream"
    )
    # Windows after the tree is warm should be roughly flat among themselves.
    later = rates[2:]
    assert max(later) / min(later) < 3.0


@pytest.mark.benchmark(group="update-throughput")
def test_claim_update_cost_independent_of_budget(benchmark):
    """Per-update cost does not grow with the node budget."""
    generator = CaidaLikeTraceGenerator(seed=100, flow_population=40_000)
    packets = list(generator.packets(60_000))

    def run():
        rows = []
        for budget in (1_000, 4_000, 16_000):
            tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=budget))
            rate = _updates_per_second(tree, packets)
            rows.append({"node_budget": budget, "updates_per_second": int(rate),
                         "final_nodes": len(tree)})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("CLAIM-UPDATE (b)", "update throughput vs node budget")
    print(render_table(rows))
    rates = [row["updates_per_second"] for row in rows]
    # The paper's claim is directional: a larger tree must not make updates
    # slower.  (Larger budgets getting *faster* is fine — the tree compacts
    # less often — so the bound is one-sided.)
    assert rates[-1] > rates[0] * 0.5, (
        f"16x larger budget degraded updates from {rates[0]}/s to {rates[-1]}/s"
    )
    # And mid-sized budgets must not be pathological outliers.
    assert min(rates) > max(rates[0], 1) * 0.4


@pytest.mark.benchmark(group="update-throughput")
def test_batched_ingestion_speedup(benchmark):
    """CLAIM-BATCH: batched ingestion sustains >= 2x the per-record rate.

    The workload keeps the paper's regime — the distinct-flow working set
    fits the node budget (40 k nodes for 6 M packets) — scaled down: ~4 k
    flows, 120 k packets, an 8 k-node budget.  ``add_batch`` pre-aggregates
    duplicates per batch, builds one key per distinct flow and amortizes
    the compaction check, which is where the speedup comes from.

    Every path is measured three times and the claim ratio uses the
    medians; the ratio is recorded as ``rel_batch_speedup`` in
    ``extra_info``, which is what CI's benchmark-regression gate compares
    across runs (ratios of same-process measurements are robust to runner
    speed, absolute rates are not).
    """
    generator = CaidaLikeTraceGenerator(seed=102, flow_population=4_000)
    packets = list(generator.packets(120_000))
    budget = 8_000

    def run():
        loop_rates, batch_rates = [], []
        for _ in range(3):
            loop_tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=budget))
            start = time.perf_counter()
            loop_tree.add_records(packets)
            loop_rates.append(len(packets) / (time.perf_counter() - start))

            batch_tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=budget))
            start = time.perf_counter()
            batch_tree.add_batch(packets)
            batch_rates.append(len(packets) / (time.perf_counter() - start))
        return (
            loop_tree, batch_tree,
            statistics.median(loop_rates),
            statistics.median(batch_rates),
        )

    loop_tree, batch_tree, loop_rate, batch_rate = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    benchmark.extra_info["rel_batch_speedup"] = round(batch_rate / loop_rate, 3)
    print_header("CLAIM-BATCH",
                 "batched ingestion vs the per-record loop (median of 3)")
    print(render_table([
        {"ingestion": "per-record add_records", "updates_per_second": int(loop_rate),
         "speedup": "1.00x"},
        {"ingestion": "batched add_batch", "updates_per_second": int(batch_rate),
         "speedup": f"{batch_rate / loop_rate:.2f}x"},
    ]))
    # Both paths account for every packet.
    assert batch_tree.total_counters() == loop_tree.total_counters()
    # The tentpole claim: batching buys at least 2x ingest throughput.
    assert batch_rate >= 2.0 * loop_rate, (
        f"batched ingestion only reached {batch_rate / loop_rate:.2f}x "
        f"({int(batch_rate)}/s vs {int(loop_rate)}/s)"
    )


@pytest.mark.benchmark(group="update-throughput")
def test_rebuild_compaction_speedup(benchmark):
    """CLAIM-COMPACT: bulk rebuild >= 1.4x incremental ingest at budget = flows/10.

    The budget ≪ distinct-flows regime is the paper's headline use case
    (summarize far more flows than the tree can hold) and the one where
    incremental victim rounds pay the most: every batch materializes the
    working set as tree nodes and then dismantles most of it again.  The
    rebuild compactor folds the kept nodes plus the batch bottom-up in one
    token-space pass instead, and the shipped dispatch must select it by
    itself from the batch overshoot.

    Both strategies climb in token space, and the rebuild fold no longer
    climbs at all once a level's survivors fill the budget with nothing
    waiting above: that level's victims are charged to the root directly.
    Here every rebuild starts from full-specificity leaves, so it steps
    nothing, and rebuild measures ~7.6-9.9x incremental-forced (~460-590 k
    vs ~56-61 k updates/s on a 2-vCPU Xeon host).  While every victim
    walked its whole chain the ratio was ~1.9x (~94-108 k rebuild), and
    ~6.5x before that while the incremental climb built a ``FlowKey`` per
    chain step (~18 k updates/s).  The gate stays at 1.4x — rebuild must
    keep winning here, which is what justifies keeping two strategies.

    Three rows: the incremental strategy forced (the one threshold constant
    patched to ``inf``), the rebuild forced (patched to ``0``) and the
    shipped dispatch.  Median-of-3 per row; the forced incremental-vs-rebuild
    ratio is recorded as ``rel_compact_speedup`` for CI's gating regression
    check.
    """
    generator = CaidaLikeTraceGenerator(seed=104, flow_population=400_000)
    packets = list(generator.packets(80_000))
    distinct = len({SCHEMA_4F.signature_of(p) for p in packets})
    budget = max(16, distinct // 10)

    overshoot = {
        "incremental": float("inf"),
        "rebuild": 0,
        "auto": compaction.REBUILD_OVERSHOOT,
    }

    def ingest(mode):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=budget))
        with mock.patch.object(compaction, "REBUILD_OVERSHOOT", overshoot[mode]):
            start = time.perf_counter()
            tree.add_batch(packets)
            return tree, len(packets) / (time.perf_counter() - start)

    def run():
        results = {}
        for mode in overshoot:
            rates = []
            for _ in range(3):
                tree, rate = ingest(mode)
                rates.append(rate)
            results[mode] = (tree, statistics.median(rates))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    incremental_rate = results["incremental"][1]
    rebuild_rate = results["rebuild"][1]
    auto_rate = results["auto"][1]
    benchmark.extra_info["rel_compact_speedup"] = round(rebuild_rate / incremental_rate, 3)
    benchmark.extra_info["rel_compact_auto_speedup"] = round(auto_rate / incremental_rate, 3)
    benchmark.extra_info["distinct_flows"] = distinct
    benchmark.extra_info["node_budget"] = budget
    print_header(
        "CLAIM-COMPACT",
        f"compaction strategies at budget = distinct/10 "
        f"({distinct} flows, {budget} nodes; median of 3)",
    )
    print(render_table([
        {"compaction": mode, "updates_per_second": int(results[mode][1]),
         "speedup": f"{results[mode][1] / incremental_rate:.2f}x",
         "final_nodes": len(results[mode][0]),
         "rebuilds": results[mode][0].stats.rebuilds}
        for mode in overshoot
    ]))
    # Every strategy conserves every counter.
    reference = results["incremental"][0].total_counters()
    assert results["rebuild"][0].total_counters() == reference
    assert results["auto"][0].total_counters() == reference
    # The shipped dispatch must pick the rebuild strategy in this regime.
    assert results["auto"][0].stats.rebuilds > 0
    # The claim: rebuild still beats incremental-forced in this regime.
    assert rebuild_rate >= 1.4 * incremental_rate, (
        f"bulk rebuild only reached {rebuild_rate / incremental_rate:.2f}x "
        f"({int(rebuild_rate)}/s vs {int(incremental_rate)}/s)"
    )
    assert auto_rate >= 1.25 * incremental_rate


@pytest.mark.benchmark(group="update-throughput")
def test_update_cost_vs_hhh_baselines(benchmark):
    """Flowtree touches one node per update; full HHH pays for every level."""
    generator = CaidaLikeTraceGenerator(seed=101, flow_population=20_000)
    packets = list(generator.packets(20_000))

    def run():
        rows = []
        contenders = [
            ("flowtree", Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=3_000))),
            ("space-saving", SpaceSavingSummary(SCHEMA_4F, capacity=3_000)),
            ("rhhh (constant-time HHH)", RandomizedHHH(SCHEMA_4F, counters_per_level=500)),
            ("full-update HHH", FullUpdateHHH(SCHEMA_4F, counters_per_level=500)),
        ]
        for name, summary in contenders:
            start = time.perf_counter()
            summary.add_records(packets)
            elapsed = time.perf_counter() - start
            rows.append({
                "summary": name,
                "updates_per_second": int(len(packets) / elapsed),
                "relative_cost_per_update": None,  # filled below
            })
        baseline = rows[0]["updates_per_second"]
        for row in rows:
            row["relative_cost_per_update"] = round(baseline / row["updates_per_second"], 2)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("CLAIM-UPDATE (c)", "per-update cost vs HHH baselines (higher = slower than Flowtree)")
    print(render_table(rows))
    by_name = {row["summary"]: row["updates_per_second"] for row in rows}
    # The shape the paper argues for: one-node updates beat per-level updates.
    assert by_name["flowtree"] > by_name["full-update HHH"]
