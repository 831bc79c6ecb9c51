"""CLAIM-WIRE — fixed-width sub-batch codec >= 2x the varint path.

The FTAB sub-batch format (``BATCH_FORMAT_VERSION = 3``) encodes runs of
fully specific keys as fixed-width struct sections and decodes them
zero-copy through ``memoryview``/``Struct.iter_unpack``, skipping the
per-feature varint/string round trip entirely.  Fully specific keys are
what preaggregated ingestion produces, so this is the hot path of every
worker hand-off and every site -> collector summary.

Measured directly: encode+decode wall time of the same fully-specific
zipf batch through the fixed-width layout vs the forced-varint layout
(``allow_fixed=False``), median of 3.  The ratio is recorded as
``rel_wire_fixed_speedup`` and gated in CI at >= 2x; the decoded items —
and the trees built from them — must be identical between the two paths,
which is asserted unconditionally.
"""

import statistics
import time

import pytest

from workloads import print_header
from repro.analysis import render_table
from repro.core import Flowtree, FlowtreeConfig
from repro.core.key import FlowKey
from repro.core.serialization import (
    decode_aggregated_batch,
    encode_aggregated_batch,
    to_bytes,
)
from repro.features.schema import SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator


def _fully_specific_batch(packet_count: int = 60_000):
    """Preaggregate a zipf packet stream into distinct (key, p, b, f) items."""
    generator = CaidaLikeTraceGenerator(seed=108, flow_population=40_000)
    aggregated = {}
    for packet in generator.packets(packet_count):
        signature = SCHEMA_4F.signature_of(packet)
        entry = aggregated.get(signature)
        if entry is None:
            aggregated[signature] = [
                FlowKey.from_record(SCHEMA_4F, packet), packet.packets, packet.bytes, 1,
            ]
        else:
            entry[1] += packet.packets
            entry[2] += packet.bytes
            entry[3] += 1
    return [tuple(entry) for entry in aggregated.values()]


@pytest.mark.benchmark(group="wire")
def test_fixed_width_codec_speedup(benchmark):
    """CLAIM-WIRE: fixed-width encode+decode >= 2x varint on specific keys."""
    items = _fully_specific_batch()
    record_count = len(items)

    def round_trip(allow_fixed):
        start = time.perf_counter()
        payload = encode_aggregated_batch(
            items, record_count=record_count, allow_fixed=allow_fixed
        )
        decoded, decoded_count = decode_aggregated_batch(payload, SCHEMA_4F)
        elapsed = time.perf_counter() - start
        return payload, decoded, decoded_count, elapsed

    def run():
        fixed_times, varint_times = [], []
        for _ in range(3):
            fixed_payload, fixed_items, fixed_count, elapsed = round_trip(True)
            fixed_times.append(elapsed)
            varint_payload, varint_items, varint_count, elapsed = round_trip(False)
            varint_times.append(elapsed)
        return (
            fixed_payload, varint_payload, fixed_items, varint_items,
            fixed_count, varint_count,
            statistics.median(fixed_times), statistics.median(varint_times),
        )

    (fixed_payload, varint_payload, fixed_items, varint_items,
     fixed_count, varint_count, fixed_time, varint_time) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    speedup = varint_time / fixed_time
    benchmark.extra_info["rel_wire_fixed_speedup"] = round(speedup, 3)
    benchmark.extra_info["rel_wire_size_ratio"] = round(
        len(varint_payload) / len(fixed_payload), 3
    )
    benchmark.extra_info["batch_entries"] = len(items)
    print_header(
        "CLAIM-WIRE",
        f"fixed-width vs varint sub-batch codec ({len(items)} fully specific "
        f"entries; encode+decode, median of 3)",
    )
    print(render_table([
        {"layout": "varint sections (allow_fixed=False)",
         "encode_decode_ms": round(varint_time * 1e3, 1),
         "payload_kb": len(varint_payload) // 1024, "speedup": "1.00x"},
        {"layout": "fixed-width sections",
         "encode_decode_ms": round(fixed_time * 1e3, 1),
         "payload_kb": len(fixed_payload) // 1024,
         "speedup": f"{speedup:.2f}x"},
    ]))

    # Equivalence is unconditional: identical items in identical order, and
    # byte-identical trees built from either decode.
    assert fixed_count == varint_count == record_count
    assert fixed_items == varint_items == items
    config = FlowtreeConfig(max_nodes=len(items) * 2)
    via_fixed = Flowtree(SCHEMA_4F, config)
    via_fixed.add_aggregated(fixed_items, record_count=fixed_count)
    via_varint = Flowtree(SCHEMA_4F, config)
    via_varint.add_aggregated(varint_items, record_count=varint_count)
    assert to_bytes(via_fixed) == to_bytes(via_varint)

    # The tentpole claim, gated in CI (single-threaded, CPU-count independent).
    assert speedup >= 2.0, (
        f"fixed-width codec only reached {speedup:.2f}x over varint "
        f"({fixed_time * 1e3:.1f} ms vs {varint_time * 1e3:.1f} ms)"
    )
