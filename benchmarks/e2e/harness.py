"""One workload, start to finish: set-up, ingest, queries, oracle, tracing."""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
from typing import Dict, List, Optional, Tuple

from . import layers, oracle, pipeline, staged
from .workloads import (
    BATCH_KEYS,
    QUERY_LIMIT_S,
    QueryPlan,
    WorkloadSpec,
    build_plan,
    percentile,
    scaled,
)

#: name -> (unit, better); the order is the printing order.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ingest_records_per_s": ("records/s", "higher"),
    "ingest_cpu_s_per_mrecord": ("s/Mrecord", "lower"),
    "wire_bytes_per_record": ("bytes", "lower"),
    "store_bytes_per_bin": ("bytes", "lower"),
    "query_point_p50_ms": ("ms", "lower"),
    "query_point_p95_ms": ("ms", "lower"),
    "query_batch_keys_per_s": ("keys/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_ops_share": ("ratio", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "traces.generate_s": ("s", "lower"),
    "traces.records": ("count", "higher"),
    "traces.distinct_keys_per_bin": ("count", "lower"),
    "core.flowtree.preaggregate_s": ("s", "lower"),
    "core.flowtree.preaggregate_ratio": ("ratio", "higher"),
    "core.flowtree.add_batch_self_s": ("s", "lower"),
    "core.flowtree.add_aggregated_s": ("s", "lower"),
    "core.flowtree.nodes_per_bin": ("count", "lower"),
    "core.compaction.busy_s": ("s", "lower"),
    "core.compaction.runs": ("count", "lower"),
    "core.compaction.rebuilds": ("count", "lower"),
    "core.compaction.folded_nodes": ("count", "lower"),
    "core.serialization.encode_s": ("s", "lower"),
    "core.serialization.decode_s": ("s", "lower"),
    "core.serialization.bytes_per_node": ("bytes", "lower"),
    "distributed.diffsync.encode_s": ("s", "lower"),
    "distributed.diffsync.decode_s": ("s", "lower"),
    "distributed.diffsync.diff_share": ("ratio", "higher"),
    "distributed.diffsync.payload_bytes": ("bytes", "lower"),
    "distributed.daemon.self_s": ("s", "lower"),
    "distributed.daemon.bins_exported": ("count", "higher"),
    "distributed.daemon.late_records": ("count", "lower"),
    "distributed.net.framing.encode_s": ("s", "lower"),
    "distributed.net.framing.decode_s": ("s", "lower"),
    "distributed.net.framing.overhead_bytes_per_summary": ("bytes", "lower"),
    "distributed.net.send_to_ack_s": ("s", "lower"),
    "distributed.net.wire_bytes": ("bytes", "lower"),
    "distributed.net.ack_bytes": ("bytes", "lower"),
    "distributed.net.resends": ("count", "lower"),
    "distributed.collector.ingest_self_s": ("s", "lower"),
    "distributed.collector.messages": ("count", "higher"),
    "distributed.collector.duplicates_dropped": ("count", "lower"),
    "distributed.collector.poll_busy_s": ("s", "lower"),
    "distributed.collector.poll_busy_share": ("ratio", "lower"),
    "distributed.collector.commit_lag_s": ("s", "lower"),
    "distributed.stores.put_s": ("s", "lower"),
    "distributed.stores.flush_s": ("s", "lower"),
    "distributed.stores.get_s": ("s", "lower"),
    "distributed.stores.cache_hit_ratio": ("ratio", "higher"),
    "distributed.stores.loads": ("count", "lower"),
    "distributed.stores.evictions": ("count", "lower"),
    "distributed.stores.disk_bytes": ("bytes", "lower"),
    "distributed.stores.write_amplification": ("ratio", "lower"),
    "core.query.index_build_s": ("s", "lower"),
    "core.query.probe_us_per_key": ("us", "lower"),
    "core.query.exact_share": ("ratio", "higher"),
    "distributed.timeseries.query_range_self_s": ("s", "lower"),
    "distributed.query_engine.gather_self_s": ("s", "lower"),
    "distributed.query_engine.bins_touched_per_query": ("count", "lower"),
    "distributed.query_engine.point_p99_ms": ("ms", "lower"),
    "bench.stage_coverage": ("ratio", "higher"),
    "bench.per_record_share": ("ratio", "higher"),
    "bench.per_message_share": ("ratio", "higher"),
    "bench.query_load_share": ("ratio", "lower"),
    "bench.trace_overhead_share": ("ratio", "lower"),
    "bench.generator_lateness_p95_ms": ("ms", "lower"),
    "bench.calibration_records_per_s": ("records/s", "higher"),
    "bench.failed_ops_share": ("ratio", "lower"),
}

#: Point-latency samples are cut into at most this many consecutive segments of
#: at least ``MIN_SEGMENT_SAMPLES`` (ten samples beyond the 95th percentile).
LATENCY_SEGMENTS = 10
MIN_SEGMENT_SAMPLES = 200
#: Point queries the traced passes replay (every n-th of the plan).
TRACED_QUERY_STRIDE = 4


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _segments(samples: List[pipeline.QueryRecord]) -> List[List[pipeline.QueryRecord]]:
    """The point samples, in issue order, cut into ``LATENCY_SEGMENTS`` runs.

    Percentiles are reported as the median over segments: a burst of host
    noise then spoils a segment or two, not the tail of the pooled sample.
    """
    count = max(1, min(LATENCY_SEGMENTS, len(samples) // MIN_SEGMENT_SAMPLES))
    size = len(samples) // count
    return [samples[start:start + size] for start in range(0, size * count, size)]


def _freeze_harness_heap() -> None:
    """Park the harness's own long-lived objects outside the cyclic collector."""
    gc.collect()
    gc.freeze()


def run_workload(
    base_spec: WorkloadSpec, seed: int, seconds: float, traced: bool,
    workdir: str, spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run one workload; returns ``{"end_to_end", "per_layer", "verdict", ...}``."""
    spec = scaled(base_spec, seconds)
    os.makedirs(workdir, exist_ok=True)
    ingest_rounds = 1 if traced else spec.ingest_rounds
    point_passes = 1 if traced else spec.point_passes
    # A paced round needs a closed-loop round before it, to know this host's rate.
    rounds = max(1 if traced else spec.setup_rounds, ingest_rounds + (1 if spec.paced else 0))

    setups: List[float] = []
    ingests: List[pipeline.IngestResult] = []
    concurrent: List[pipeline.QueryRecord] = []
    plan: Optional[QueryPlan] = None
    round_: Optional[pipeline.Round] = None
    calibration: Optional[pipeline.IngestResult] = None
    try:
        for number in range(rounds):
            round_ = pipeline.setup_round(spec, seed, workdir, number)
            setups.append(round_.setup_s)
            if spec.paced and number == rounds - 2:
                calibration = pipeline.run_ingest(round_)
            elif spec.paced and number == rounds - 1:
                plan = build_plan(spec, seed, round_.inputs, None)
                result, concurrent = pipeline.run_ingest_with_queries(
                    spec, round_, plan,
                    spec.offered_share * calibration.records / calibration.wall_s)
                ingests.append(result)
            elif not spec.paced and number >= rounds - ingest_rounds:
                ingests.append(pipeline.run_ingest(round_))
            if number < rounds - 1:
                pipeline.close_round(round_)
                round_ = None
        return _measure_queries_and_check(
            spec, seed, traced, workdir, spans_path, round_, setups, ingests,
            plan, concurrent, point_passes, calibration,
        )
    finally:
        if round_ is not None:
            pipeline.close_round(round_)
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_queries_and_check(
    spec: WorkloadSpec, seed: int, traced: bool, workdir: str, spans_path: Optional[str],
    round_: pipeline.Round, setups: List[float], ingests: List[pipeline.IngestResult],
    plan: Optional[QueryPlan], concurrent: List[pipeline.QueryRecord], point_passes: int,
    calibration: Optional[pipeline.IngestResult],
) -> Dict[str, object]:
    inputs, deployment = round_.inputs, round_.deployment
    last = ingests[-1]
    store = deployment.collector.store
    stored = oracle.stored_bytes(store, inputs.site_names)
    reference = oracle.Reference(stored, inputs.site_names)
    if plan is None:
        plan = build_plan(spec, seed, inputs, reference.node_keys())
    _freeze_harness_heap()

    # Quiet point phase (closed loop, one client) unless queries ran beside ingest.
    store_before = layers.store_counters(store)
    passes: List[List[pipeline.QueryRecord]] = []
    if not spec.paced:
        for _ in range(point_passes):
            passes.append(pipeline.point_pass(deployment, plan))
    else:
        passes.append(concurrent)
        # The queries ran beside ingest: count cache traffic from the empty store on.
        store_before = dict.fromkeys(store_before, 0)
    store_after = layers.store_counters(store)
    samples = [record for records in passes for record in records]
    summaries = [pipeline.latency_summary(segment) for segment in _segments(samples)]
    pooled = pipeline.latency_summary(samples)
    batch_times, batch_answers = pipeline.batch_phase(deployment, plan)

    verdict = oracle.Verdict()
    oracle.check_ingest(verdict, inputs, last, reference)
    oracle.check_points(verdict, plan, passes[0], reference,
                        limit_s=QUERY_LIMIT_S if spec.paced else None)
    for later in passes[1:]:
        same = [a.total == b.total and b.total is not None for a, b in zip(passes[0], later)]
        verdict.add(len(later), same.count(False), "repeated point pass")
    oracle.check_batches(verdict, plan, batch_answers, reference)

    lateness = sorted(record.lateness_s for record in concurrent) or [0.0]
    end_to_end = {
        "setup_s": _median(setups),
        "ingest_records_per_s": _median([r.records / r.wall_s for r in ingests]),
        "ingest_cpu_s_per_mrecord": _median([r.cpu_s / r.records * 1e6 for r in ingests]),
        "wire_bytes_per_record": _median([r.wire_bytes / r.records for r in ingests]),
        "store_bytes_per_bin": _median([r.disk_bytes / r.bins_stored for r in ingests]),
        "query_point_p50_ms": _median([s["p50_ms"] for s in summaries]),
        "query_point_p95_ms": _median([s["p95_ms"] for s in summaries]),
        "query_batch_keys_per_s": BATCH_KEYS / _median(batch_times),
    }
    gets = (store_after["cache_hits"] - store_before["cache_hits"]
            + store_after["loads"] - store_before["loads"])
    per_layer: Dict[str, float] = {
        "traces.generate_s": inputs.generate_s,
        "traces.records": float(last.records),
        "distributed.daemon.bins_exported": float(last.daemon["bins_exported"]),
        "distributed.daemon.late_records": float(last.daemon["late_records"]),
        "distributed.net.wire_bytes": float(last.net["wire_bytes"]),
        "distributed.net.ack_bytes": float(last.net["ack_bytes"]),
        "distributed.net.resends": float(last.net["resends"]),
        "distributed.collector.messages": float(last.collector["messages"]),
        "distributed.collector.duplicates_dropped": float(last.collector["duplicates_dropped"]),
        "distributed.collector.poll_busy_s": last.poll_busy_s,
        "distributed.collector.poll_busy_share": last.poll_busy_s / last.wall_s,
        "distributed.collector.commit_lag_s": last.commit_lag_s,
        "distributed.stores.cache_hit_ratio":
            (store_after["cache_hits"] - store_before["cache_hits"]) / max(1, gets),
        "distributed.stores.loads": float(store_after["loads"] - store_before["loads"]),
        "distributed.stores.evictions":
            float(store_after["evictions"] - store_before["evictions"]),
        "distributed.stores.disk_bytes": float(last.disk_bytes),
        "distributed.stores.write_amplification": last.disk_bytes / max(1, last.payload_bytes),
        "distributed.query_engine.point_p99_ms": pooled["p99_ms"],
        "bench.generator_lateness_p95_ms": percentile(lateness, 0.95) * 1e3,
        "bench.calibration_records_per_s":
            calibration.records / calibration.wall_s if calibration else 0.0,
    }
    if traced:
        _trace(spec, seed, workdir, spans_path, round_, calibration or last, plan, passes[0],
               stored, verdict, per_layer)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end["failed_ops_share"] = verdict.failed / verdict.attempted
    per_layer["bench.failed_ops_share"] = end_to_end["failed_ops_share"]
    return {
        "workload": spec.name,
        "seed": seed,
        "traced": traced,
        "sizes": {
            "sites": spec.sites, "bins": spec.bins, "records_per_round": last.records,
            "max_nodes": spec.max_nodes, "cache_bins": spec.cache_bins,
            "ingest_rounds": len(ingests), "setup_rounds": len(setups),
            "point_queries": len(passes[0]), "point_passes": len(passes),
            "batch_repeats": len(batch_times), "summaries": last.summaries,
            "key_classes": plan.class_sizes,
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
    }


def _trace(
    spec: WorkloadSpec, seed: int, workdir: str, spans_path: Optional[str],
    round_: pipeline.Round, untraced: pipeline.IngestResult, plan: QueryPlan,
    asked: List[pipeline.QueryRecord], stored: Dict[oracle.BinId, bytes],
    verdict: oracle.Verdict, per_layer: Dict[str, float],
) -> None:
    """The traced passes; fills ``per_layer`` and extends ``verdict``."""
    inputs, deployment = round_.inputs, round_.deployment
    subset = asked[::TRACED_QUERY_STRIDE]

    # 1. The real read path, with shims on the public calls nested inside it.
    engine_tracer = staged.Tracer()
    collector = deployment.collector
    engine_tracer.shim(collector.store, "get", "distributed.stores.get")
    for site in inputs.site_names:
        engine_tracer.shim(collector.site_series(site), "query_range_many",
                           "distributed.timeseries.query_range_many")
    for number, record in enumerate(subset):
        with engine_tracer.span("distributed.query_engine.estimate_many", number):
            pipeline.ask(deployment.query_engine, plan.keys, record.query)
    own = engine_tracer.self_times()
    per_layer["distributed.query_engine.gather_self_s"] = own.get(
        "distributed.query_engine.estimate_many", 0.0)
    per_layer["distributed.timeseries.query_range_self_s"] = own.get(
        "distributed.timeseries.query_range_many", 0.0)
    per_layer["distributed.stores.get_s"] = engine_tracer.durations().get(
        "distributed.stores.get", 0.0)
    per_layer["distributed.query_engine.bins_touched_per_query"] = (
        engine_tracer.counts().get("distributed.stores.get", 0) / max(1, len(subset)))

    # 2. The staged write path, then the staged read path over its store.
    ingest_tracer = staged.Tracer()
    read_tracer = staged.Tracer()
    with staged.StagedPipeline(spec, inputs, os.path.join(workdir, "store-staged"),
                               ingest_tracer) as staged_pipeline:
        outcome = staged_pipeline.ingest()
        staged_stored = oracle.stored_bytes(staged_pipeline.store, inputs.site_names)
        differing = sum(1 for bin_id in set(stored) | set(staged_stored)
                        if stored.get(bin_id) != staged_stored.get(bin_id))
        verdict.add(len(stored), min(len(stored), differing),
                    "staged store byte-identical to the untraced store")
        staged_pipeline.tracer = read_tracer
        answered, mismatches = staged_pipeline.queries(plan, subset)
        verdict.add(answered, mismatches, "staged query totals identical")
        staged_net = layers.net_counters(staged_pipeline.server, staged_pipeline.clients)
    if staged_net["wire_bytes"] != untraced.net["wire_bytes"]:
        verdict.add(1, 1, f"staged wire bytes {staged_net['wire_bytes']} vs "
                          f"untraced {untraced.net['wire_bytes']}")

    own = ingest_tracer.self_times()
    total = ingest_tracer.durations()
    per_record = sum(own.get(name, 0.0) for name in staged.PER_RECORD_STAGES)
    per_message = sum(own.get(name, 0.0) for name in staged.PER_MESSAGE_STAGES)
    daemon_self = (own.get("distributed.daemon.consume", 0.0)
                   + own.get("distributed.daemon.export", 0.0))
    staged_busy = per_record + per_message + daemon_self
    per_layer.update({
        "core.flowtree.add_batch_self_s": own.get("core.flowtree.add_batch", 0.0),
        "core.flowtree.add_aggregated_s": own.get("core.flowtree.add_aggregated", 0.0),
        "core.flowtree.nodes_per_bin": outcome.nodes_exported / max(1, len(outcome.messages)),
        "core.compaction.busy_s": (own.get("core.compaction.compact", 0.0)
                                   + own.get("core.compaction.rebuild", 0.0)),
        "core.compaction.runs": float(outcome.compactions),
        "core.compaction.rebuilds": float(outcome.rebuilds),
        "core.compaction.folded_nodes": float(outcome.folded_nodes),
        "distributed.diffsync.encode_s": total.get("distributed.diffsync.encode", 0.0),
        "distributed.daemon.self_s": daemon_self,
        "distributed.net.send_to_ack_s": (total.get("distributed.net.send", 0.0)
                                          + total.get("distributed.net.drain", 0.0)),
        "distributed.collector.ingest_self_s": own.get("distributed.collector.ingest", 0.0),
        "distributed.stores.put_s": total.get("distributed.stores.put", 0.0),
        "distributed.stores.flush_s": total.get("distributed.stores.flush", 0.0),
        "bench.stage_coverage": staged_busy / outcome.wall_s,
        "bench.per_record_share": per_record / staged_busy,
        "bench.per_message_share": per_message / staged_busy,
        "bench.trace_overhead_share": outcome.wall_s / untraced.wall_s - 1.0,
    })
    read_own = read_tracer.self_times()
    load = sum(read_own.get(name, 0.0) for name in (
        "distributed.stores.get_bytes", "core.serialization.decode", "core.query.prime"))
    per_layer["bench.query_load_share"] = load / max(1e-12, sum(read_own.values()))
    per_layer.update(staged.probe_layers(
        inputs, spec.max_nodes, stored, outcome.messages, plan.keys, seed))

    if spans_path is not None:
        os.makedirs(os.path.dirname(spans_path) or ".", exist_ok=True)
        with open(spans_path, "w") as handle:
            for label, tracer in (("engine", engine_tracer), ("staged-ingest", ingest_tracer),
                                  ("staged-read", read_tracer)):
                tracer.write(handle, label)
