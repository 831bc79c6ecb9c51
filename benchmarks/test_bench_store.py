"""CLAIM-STORE — durable collector storage vs the in-memory baseline.

The paper's headline storage claim (>95 % reduction vs. raw capture) is
only operational if the summaries actually persist.  PR 5 added pluggable
collector storage (memory / segment-file, a Flowyager-style
tree-summary store per (site, bin)); this benchmark pins two things:

* **bounded slowdown** — ingesting a multi-bin summary stream and
  answering a batched range-query workload against the *durable* backend
  (every message committed: payload + diff baseline + dedup guard) stays
  within a bounded factor of the in-memory collector.  The claim ratio
  ``rel_store_file_ratio`` (memory time over file-store time, median of 3
  interleaved runs) feeds CI's cross-run regression gate.
* **size accounting** — bytes on the backend equal the summary sizes the
  :class:`~repro.analysis.storage.StorageReport` reduction claim is
  stated over: per-bin stored payloads are byte-identical across both
  backends and sum to the store's reported payload footprint, and
  the real file footprint is reported alongside.

Both backends must answer the query workload identically — the timing
comparison is only meaningful between equivalent answers.
"""

import gc
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from workloads import print_header
from repro.analysis import render_table
from repro.analysis.storage import store_footprint
from repro.core.config import FlowtreeConfig
from repro.core.key import FlowKey
from repro.core.serialization import from_bytes, summary_size_bytes, to_bytes
from repro.distributed import Collector, CollectorConfig, FlowtreeDaemon, SimulatedTransport
from repro.features.schema import SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator

TARGET_BINS = 12
NODE_BUDGET = 4_000
QUERY_KEYS = 2_000
#: Maximum tolerated slowdown of a fully durable collector (every message
#: commits payload + baseline + dedup guard) vs the in-memory one.
#: Measured ~1.8x on a 1-core container; the margin absorbs slow CI disks.
MAX_SLOWDOWN = 10.0


def _timed(fn):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, result


def _build_messages():
    """One daemon's multi-bin export stream plus a query-key workload."""
    generator = CaidaLikeTraceGenerator(seed=77, flow_population=120_000)
    packets = list(generator.packets(60_000))
    span = packets[-1].timestamp - packets[0].timestamp
    bin_width = span / TARGET_BINS
    transport = SimulatedTransport()
    daemon = FlowtreeDaemon(
        "edge-1", SCHEMA_4F, transport, collector_name="collector",
        bin_width=bin_width, config=FlowtreeConfig(max_nodes=NODE_BUDGET),
        use_diffs=True,
    )
    daemon.consume_records(packets)
    daemon.flush()
    messages = [message for _, message in transport.receive("collector")]
    keys = list({FlowKey.from_record(SCHEMA_4F, p) for p in packets[:QUERY_KEYS]})
    return messages, keys, bin_width


def _drive(kind, path, messages, keys, bin_width):
    """Ingest the stream and run the range-query workload on one backend."""
    config = CollectorConfig(
        bin_width=bin_width, storage=FlowtreeConfig(max_nodes=NODE_BUDGET),
        store=kind, store_path=path,
    )
    collector = Collector(SCHEMA_4F, SimulatedTransport(), config=config)

    def work():
        for message in messages:
            collector.ingest(message)
        collector.flush()
        totals, _ = collector.estimate_many(keys, start_bin=1, end_bin=TARGET_BINS - 2)
        merged = collector.merged(start_bin=1, end_bin=TARGET_BINS - 2)
        return totals, merged

    elapsed, (totals, merged) = _timed(work)
    footprint = store_footprint(collector.store)
    bin_payloads = {
        index: collector.store.get_bytes("edge-1", index)
        for index in collector.bins_for("edge-1")
    }
    collector.close()
    return elapsed, totals, to_bytes(merged), footprint, bin_payloads


@pytest.mark.benchmark(group="store")
def test_claim_store_durable_within_bounded_factor(benchmark):
    """CLAIM-STORE: durable ingest+query <= bounded factor of memory, same bytes."""
    messages, keys, bin_width = _build_messages()
    assert len(messages) >= TARGET_BINS

    def run():
        times = {"memory": [], "file": []}
        results = {}
        for _ in range(3):
            for kind in ("memory", "file"):
                with tempfile.TemporaryDirectory() as tmp:
                    path = None if kind == "memory" else str(Path(tmp) / "store")
                    elapsed, totals, merged, footprint, payloads = _drive(
                        kind, path, messages, keys, bin_width
                    )
                    times[kind].append(elapsed)
                    results[kind] = (totals, merged, footprint, payloads)
        return {kind: statistics.median(values) for kind, values in times.items()}, results

    medians, results = benchmark.pedantic(run, rounds=1, iterations=1)

    # Both backends answer the workload identically, byte for byte.
    mem_totals, mem_merged, _, mem_payloads = results["memory"]
    totals, merged, _, payloads = results["file"]
    assert totals == mem_totals, "file range-query answers diverged"
    assert merged == mem_merged, "file merged summary diverged"
    assert payloads == mem_payloads, "file per-bin payloads diverged"

    # Bytes on the backend == the sizes the storage-reduction claim uses.
    rows = []
    for kind in ("memory", "file"):
        _, _, footprint, payloads = results[kind]
        stored = sum(len(payload) for payload in payloads.values())
        assert footprint.payload_bytes == stored
        accounted = sum(
            summary_size_bytes(from_bytes(payload)) for payload in payloads.values()
        )
        assert accounted == stored, "stored payloads disagree with size accounting"
        if kind == "memory":
            assert footprint.disk_bytes == 0
        else:
            assert footprint.disk_bytes >= footprint.payload_bytes
        ratio = medians["memory"] / medians[kind]
        rows.append({
            "backend": kind,
            "ingest+query_ms": round(medians[kind] * 1000, 1),
            "vs_memory": f"{medians[kind] / medians['memory']:.2f}x",
            "payload_bytes": footprint.payload_bytes,
            "disk_bytes": footprint.disk_bytes,
        })
        if kind != "memory":
            benchmark.extra_info[f"rel_store_{kind}_ratio"] = round(ratio, 3)

    print_header(
        "CLAIM-STORE",
        f"{len(messages)} summary messages into {TARGET_BINS}+ bins, "
        f"{len(keys)} range-query keys (median of 3, durable commits per message)",
    )
    print(render_table(rows))

    slowdown = medians["file"] / medians["memory"]
    assert slowdown <= MAX_SLOWDOWN, (
        f"file store took {slowdown:.1f}x the in-memory collector "
        f"(bound: {MAX_SLOWDOWN}x)"
    )
