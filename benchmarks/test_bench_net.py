"""CLAIM-NET — real TCP transport vs the simulated in-memory transport.

The paper's Fig. 1 system ships summaries from site daemons to a central
collector over a network; PR 7 added the real asyncio TCP transport
(:mod:`repro.distributed.net`).  This benchmark pins two things:

* **bounded slowdown** — driving one daemon's multi-bin summary stream
  end-to-end over localhost TCP (frame encode, socket, decode, ack,
  ingest) stays within a bounded factor of handing the same messages to
  the collector through the in-memory transport.  The claim ratio
  ``rel_net_tcp_ratio`` (memory time over tcp time, median of 3
  interleaved runs) feeds CI's cross-run regression gate, and the
  summaries/sec of both paths are reported.
* **byte accounting parity** — the payload bytes the TCP client charges
  per channel equal the simulated transport's accounting exactly (the
  transfer-cost claims are stated over payload bytes), the actual
  bytes-on-wire are reported next to the simulated overhead model, and
  both paths answer the same range-query workload identically.

The comparison is only meaningful between equivalent answers, so the
collector state after both drives must match byte for byte.
"""

import gc
import statistics
import time

import pytest

from workloads import print_header
from repro.analysis import render_table
from repro.core.config import FlowtreeConfig
from repro.core.key import FlowKey
from repro.core.serialization import to_bytes
from repro.distributed import Collector, CollectorConfig, FlowtreeDaemon, SimulatedTransport
from repro.distributed.net import CollectorServer, SiteClient
from repro.features.schema import SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator

TARGET_BINS = 12
NODE_BUDGET = 4_000
QUERY_KEYS = 1_000
#: Maximum tolerated slowdown of the localhost TCP path (encode + socket +
#: decode + ack per message) vs the in-memory hand-off.  Measured ~2x on a
#: 1-core container; the margin absorbs loaded CI schedulers.
MAX_SLOWDOWN = 15.0


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
    packets = list(generator.packets(40_000))
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


def _collector_config(bin_width):
    return CollectorConfig(
        bin_width=bin_width, storage=FlowtreeConfig(max_nodes=NODE_BUDGET)
    )


def _summarize(collector, keys):
    totals, _ = collector.estimate_many(keys, start_bin=1, end_bin=TARGET_BINS - 2)
    merged = collector.merged(start_bin=1, end_bin=TARGET_BINS - 2)
    return totals, to_bytes(merged)


def _drive_memory(messages, keys, bin_width):
    """Send the stream through the simulated transport and query it."""
    transport = SimulatedTransport()
    transport.register("edge-1")
    collector = Collector(SCHEMA_4F, transport, config=_collector_config(bin_width))

    def work():
        for message in messages:
            transport.send("edge-1", "collector", message)
        collector.poll()
        return _summarize(collector, keys)

    elapsed, answers = _timed(work)
    log = transport.channel_log("edge-1", "collector")
    return elapsed, answers, collector.bytes_received, log


def _drive_tcp(messages, keys, bin_width):
    """Send the stream over localhost TCP (frames, acks) and query it."""
    with CollectorServer().start() as server:
        collector = Collector(SCHEMA_4F, server, config=_collector_config(bin_width))
        with SiteClient(server.host, server.port, site="edge-1") as client:
            client.register("edge-1")
            client.register("collector")

            def work():
                for message in messages:
                    client.send("edge-1", "collector", message)
                client.drain(timeout=60.0)
                collector.poll()
                return _summarize(collector, keys)

            elapsed, answers = _timed(work)
            log = client.channel_log("edge-1", "collector")
        return elapsed, answers, collector.bytes_received, log


@pytest.mark.benchmark(group="net")
def test_claim_net_tcp_within_bounded_factor(benchmark):
    """CLAIM-NET: localhost TCP end-to-end <= bounded factor of memory, same bytes."""
    messages, keys, bin_width = _build_messages()
    assert len(messages) >= TARGET_BINS

    def run():
        times = {"memory": [], "tcp": []}
        results = {}
        for _ in range(3):
            for kind, drive in (("memory", _drive_memory), ("tcp", _drive_tcp)):
                elapsed, answers, payload_bytes, log = drive(messages, keys, bin_width)
                times[kind].append(elapsed)
                results[kind] = (answers, payload_bytes, log)
        return {kind: statistics.median(values) for kind, values in times.items()}, results

    medians, results = benchmark.pedantic(run, rounds=1, iterations=1)

    mem_answers, mem_payload, mem_log = results["memory"]
    tcp_answers, tcp_payload, tcp_log = results["tcp"]

    # Both paths deliver the same summaries and answer identically.
    assert tcp_answers == mem_answers, "TCP-delivered answers diverged from memory"
    assert tcp_payload == mem_payload, "collector payload accounting diverged"
    # The client's payload accounting matches the simulated transport's.
    assert tcp_log.payload_bytes == mem_log.payload_bytes
    assert tcp_log.messages == mem_log.messages
    assert tcp_log.overhead_bytes > 0  # real frame envelopes, not the model

    rows = []
    for kind, log in (("memory", mem_log), ("tcp", tcp_log)):
        rows.append({
            "transport": kind,
            "end_to_end_ms": round(medians[kind] * 1000, 1),
            "summaries_per_s": round(len(messages) / medians[kind], 1),
            "vs_memory": f"{medians[kind] / medians['memory']:.2f}x",
            "payload_bytes": log.payload_bytes,
            "wire_bytes": log.total_bytes,
        })
    benchmark.extra_info["rel_net_tcp_ratio"] = round(
        medians["memory"] / medians["tcp"], 3
    )
    benchmark.extra_info["tcp_summaries_per_s"] = round(
        len(messages) / medians["tcp"], 1
    )

    print_header(
        "CLAIM-NET",
        f"{len(messages)} summary messages over localhost TCP vs in-memory, "
        f"{len(keys)} range-query keys (median of 3 interleaved runs)",
    )
    print(render_table(rows))

    slowdown = medians["tcp"] / medians["memory"]
    assert slowdown <= MAX_SLOWDOWN, (
        f"localhost TCP took {slowdown:.1f}x the in-memory transport "
        f"(bound: {MAX_SLOWDOWN}x)"
    )
