"""Workload definitions, seeded inputs and query plans.

Sizes are for ``--seconds 20`` (``BENCHMARK.json``'s ``run_seconds``) on the
2-CPU reference host; ``README.md`` gives the measured rates behind each.
Other ``--seconds`` values scale the work linearly (``--smoke`` is
``--seconds 1``), so a faster commit finishes sooner rather than doing more.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import layers

REFERENCE_SECONDS = 20
BATCH_KEYS = 2_000
#: A point query on ``query-under-ingest`` that takes longer than this,
#: measured from its due time, counts as a failed operation.
QUERY_LIMIT_S = 0.250


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload at reference scale."""

    name: str
    why: str
    trace: str
    trace_params: Dict[str, int]
    sites: int
    bins: int
    records_per_bin: int          # per site
    feed_records: int             # records per ``consume_records`` call (each call drains)
    max_nodes: int
    cache_bins: int
    scale_axis: str               # "records" (per bin, with the budget) or "bins"
    ingest_rounds: int            # closed-loop rounds; the median round is reported
    setup_rounds: int             # set-ups timed; the median is reported
    point_queries: int
    point_passes: int             # the median pass is reported
    window_bins: int
    query_sites: int              # 0 = every site
    batch_repeats: int = 15
    #: > 0: after one closed-loop round measures this host's ingest rate, a
    #: second round is paced open-loop at this share of it while point queries
    #: run open-loop beside it, spread evenly over the paced round.
    offered_share: float = 0.0

    @property
    def paced(self) -> bool:
        return self.offered_share > 0

    @property
    def records(self) -> int:
        return self.sites * self.bins * self.records_per_bin


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="bulk-caida",
        why="Repeated flows in wide bins: per-record pre-aggregation, insert and "
            "incremental compaction dominate ingest; queries are all cache hits.",
        trace="caida", trace_params={"flow_population": 1_000},
        sites=4, bins=6, records_per_bin=8_000, feed_records=4_000, max_nodes=560, cache_bins=64,
        scale_axis="records", ingest_rounds=3, setup_rounds=3,
        point_queries=2_000, point_passes=5, window_bins=3, query_sites=0,
    ),
    WorkloadSpec(
        name="churn-flood",
        why="Randomized-source flood, distinct flows per bin over 10x the budget: "
            "no repeats to pre-aggregate, the rebuild compactor does most of the work.",
        trace="ddos", trace_params={"attackers": 200_000, "attack_share_pct": 85},
        sites=4, bins=4, records_per_bin=6_000, feed_records=16_384, max_nodes=512, cache_bins=64,
        scale_axis="records", ingest_rounds=5, setup_rounds=5,
        point_queries=2_000, point_passes=5, window_bins=3, query_sites=0,
    ),
    WorkloadSpec(
        name="small-bins-cold",
        why="800 small summaries: per-message diff/encode/frame/socket/dedup/commit "
            "work dominates ingest; range queries miss the tiny cache and pay decode.",
        trace="caida", trace_params={},
        sites=8, bins=100, records_per_bin=60, feed_records=16_384, max_nodes=128, cache_bins=2,
        scale_axis="bins", ingest_rounds=2, setup_rounds=3,
        point_queries=2_000, point_passes=1, window_bins=4, query_sites=1,
    ),
    WorkloadSpec(
        name="query-under-ingest",
        why="Point queries at a fixed rate beside ingest paced at 80% of its measured rate: "
            "reads wait behind Collector._lock and the GIL while poll/ingest hold them.",
        trace="caida", trace_params={},
        sites=8, bins=100, records_per_bin=60, feed_records=16_384, max_nodes=128, cache_bins=64,
        scale_axis="bins", ingest_rounds=1, setup_rounds=3,
        # 1 200 queries keep the query thread about half busy; 2 000 (240/s) put
        # it next to saturation, where it and the replay thread fight for the GIL
        # and some runs deliver half the records at twice the CPU.
        point_queries=1_200, point_passes=1, window_bins=4, query_sites=0,
        offered_share=0.8, batch_repeats=9,
    ),
)


def workload(name: str) -> WorkloadSpec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}; choose from {[s.name for s in WORKLOADS]}")


def scaled(spec: WorkloadSpec, seconds: float) -> WorkloadSpec:
    """The spec resized for a run of ``seconds`` (identity at the reference)."""
    scale = seconds / REFERENCE_SECONDS
    if scale == 1.0:
        return spec
    changes: Dict[str, object] = {
        "point_queries": max(200, int(spec.point_queries * scale)),
    }
    if scale < 0.5:
        changes.update(ingest_rounds=1, setup_rounds=1, point_passes=1, batch_repeats=3)
    if spec.scale_axis == "records":
        changes["records_per_bin"] = max(400, int(spec.records_per_bin * scale))
        changes["feed_records"] = max(200, int(spec.feed_records * scale))
        changes["max_nodes"] = max(32, int(spec.max_nodes * scale))
    else:
        changes["bins"] = max(3 * spec.window_bins, int(spec.bins * scale))
    return dataclasses.replace(spec, **changes)


# -- inputs ------------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything one round replays, made from the seed alone."""

    site_names: List[str]
    bin_width: float
    #: Per site, the chunks handed to ``consume_records`` in time order.  A
    #: chunk never spans two bins (bins are cut with the site's own origin,
    #: exactly as its daemon will cut them); a bin is fed in
    #: ``feed_records``-sized chunks, as a live exporter would deliver it.
    chunks: Dict[str, List[List[object]]]
    records: int
    totals: Tuple[int, int, int]          # packets, bytes, flows
    sample: List[object]                  # seeded record sample for query keys
    generate_s: float

    @property
    def steps(self) -> int:
        return max(len(chunks) for chunks in self.chunks.values())


def build_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    started = time.perf_counter()
    records = layers.generate_records(spec.trace, seed, spec.records, **spec.trace_params)
    site_names = [f"site-{index}" for index in range(spec.sites)]
    per_site = layers.split_sites(records, site_names)
    generate_s = time.perf_counter() - started
    span = records[-1].timestamp - records[0].timestamp
    bin_width = span / spec.bins * (1.0 + 1e-9)
    chunks: Dict[str, List[List[object]]] = {}
    for site, site_records in per_site.items():
        site_chunks: List[List[object]] = []
        if site_records:
            origin = site_records[0].timestamp
            current_bin = 0
            current: List[object] = []
            for record in site_records:
                bin_index = int((record.timestamp - origin) // bin_width)
                if bin_index > current_bin or len(current) >= spec.feed_records:
                    if current:
                        site_chunks.append(current)
                    current = []
                    current_bin = bin_index
                current.append(record)
            site_chunks.append(current)
        chunks[site] = site_chunks
    total_bytes = sum(record.bytes for record in records)
    rng = random.Random(seed * 7919 + 1)
    sample = rng.sample(records, min(len(records), 3 * BATCH_KEYS))
    return Inputs(
        site_names=site_names,
        bin_width=bin_width,
        chunks=chunks,
        records=len(records),
        totals=(len(records), total_bytes, len(records)),
        sample=sample,
        generate_s=generate_s,
    )


# -- query plan ----------------------------------------------------------------------

#: Specificity vectors (src /len, dst /len, src-port bits, dst-port bits) of the
#: prefix / wildcard third of the key set.  Half of it is *wide* (one coarse
#: feature, everything else wild: many kept descendants to sum, several times
#: the cost of any other key), so the slow mode holds a sixth of all queries
#: and the 95th percentile sits inside it instead of on its edge.
WIDE_LEVELS: Tuple[Tuple[int, int, int, int], ...] = ((8, 0, 0, 0), (0, 8, 0, 0), (0, 0, 0, 16))
NARROW_LEVELS: Tuple[Tuple[int, int, int, int], ...] = (
    (16, 16, 0, 0), (24, 0, 0, 0), (0, 24, 0, 0), (32, 32, 0, 0),
    (24, 24, 16, 16), (0, 8, 0, 16), (32, 0, 0, 16),
)

PointQuery = Tuple[int, Optional[Tuple[str, ...]], int, int]   # key index, sites, start, end
Window = Tuple[Optional[Tuple[str, ...]], int, int]


@dataclass
class QueryPlan:
    keys: List[object]
    points: List[PointQuery]
    batches: List[Window]
    class_sizes: Dict[str, int] = field(default_factory=dict)


def build_keys(seed: int, inputs: Inputs, node_keys: Optional[Set[object]]) -> Tuple[List[object], Dict[str, int]]:
    """The fixed-per-seed key set: a third kept, a third absent, a third prefixes.

    ``node_keys`` is the union of the keys kept in any stored bin.  Before
    ingest it is unknown (``None``): then every replayed key counts as kept,
    which holds on the shapes whose per-bin budget exceeds the distinct flows.
    """
    rng = random.Random(seed * 7919 + 2)
    third = BATCH_KEYS // 3
    sample_keys = []
    seen: Set[object] = set()
    for record in inputs.sample:
        key = layers.full_key(record)
        if key not in seen:
            seen.add(key)
            sample_keys.append((key, record))
    if node_keys is None:
        kept = [key for key, _ in sample_keys]
        compacted: List[object] = []
    else:
        kept = [key for key, _ in sample_keys if key in node_keys]
        compacted = [key for key, _ in sample_keys if key not in node_keys]
    kept = kept[:third]
    if node_keys is not None and len(kept) < third:
        # Few fully specific survivors (tight budgets): top up with kept aggregates.
        extra = sorted(
            (key for key in node_keys if not key.is_root and key not in seen),
            key=lambda key: key.to_wire(),
        )
        rng.shuffle(extra)
        kept.extend(extra[: third - len(kept)])
    absent = compacted[:third]
    attempts = 0
    while len(absent) < third and attempts < 20 * third:
        attempts += 1
        _, record = sample_keys[attempts % len(sample_keys)]
        ghost_record = copy.copy(record)
        ghost_record.src_port = rng.randrange(1, 65536)
        ghost_record.dst_port = rng.randrange(1, 65536)
        ghost = layers.full_key(ghost_record)
        if ghost not in seen and (node_keys is None or ghost not in node_keys):
            seen.add(ghost)
            absent.append(ghost)
    wanted = BATCH_KEYS - len(kept) - len(absent)
    prefixes: List[object] = []
    if node_keys is not None:
        # Kept aggregates: prefix keys answered straight from their own node.
        aggregates = sorted(
            (key for key in node_keys if not key.is_root and key not in seen and key not in kept),
            key=lambda key: key.to_wire(),
        )
        rng.shuffle(aggregates)
        prefixes.extend(aggregates[: wanted // 4])
    for index in range(wanted // 2):
        key, _ = sample_keys[index % len(sample_keys)]
        prefixes.append(key.generalize_to_vector(WIDE_LEVELS[index % len(WIDE_LEVELS)]))
    index = 0
    while len(prefixes) < wanted:
        key, _ = sample_keys[-1 - index % len(sample_keys)]
        prefixes.append(key.generalize_to_vector(NARROW_LEVELS[index % len(NARROW_LEVELS)]))
        index += 1
    keys = kept + absent + prefixes
    rng.shuffle(keys)
    return keys, {"kept": len(kept), "absent": len(absent), "prefix": len(prefixes)}


def build_plan(
    spec: WorkloadSpec, seed: int, inputs: Inputs, node_keys: Optional[Set[object]]
) -> QueryPlan:
    keys, class_sizes = build_keys(seed, inputs, node_keys)
    rng = random.Random(seed * 7919 + 3)
    last_start = max(0, spec.bins - spec.window_bins)

    def window() -> Window:
        start = rng.randint(0, last_start)
        sites: Optional[Tuple[str, ...]] = None
        if spec.query_sites:
            sites = tuple(sorted(rng.sample(inputs.site_names, spec.query_sites)))
        return sites, start, start + spec.window_bins - 1

    points = [(index % len(keys),) + window() for index in range(spec.point_queries)]
    batches = [window() for _ in range(spec.batch_repeats)]
    return QueryPlan(keys=keys, points=points, batches=batches, class_sizes=class_sizes)


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    rank = min(len(sorted_values) - 1, max(0, int(share * len(sorted_values))))
    return sorted_values[rank]
