"""Correctness oracle, run by every invocation.

Nothing here goes through the collector, the time series, the store's cache
or the query engine: stored bins are read back as bytes, decoded here, and
answers are recomputed per bin with ``core.estimator.estimate_many``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import layers
from .pipeline import IngestResult, QueryRecord
from .workloads import Inputs, QueryPlan

BinId = Tuple[str, int]


@dataclass
class Verdict:
    """Operations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def stored_bytes(store, site_names: Iterable[str]) -> Dict[BinId, bytes]:
    """Every committed bin's serialized form, straight from the backend."""
    stored: Dict[BinId, bytes] = {}
    for site in site_names:
        for bin_index in store.bin_indices(site):
            payload = store.get_bytes(site, bin_index)
            if payload is not None:
                stored[(site, bin_index)] = payload
    return stored


class Reference:
    """Per-bin trees decoded from the stored bytes, and answers over them."""

    def __init__(self, stored: Dict[BinId, bytes], site_names: Sequence[str]) -> None:
        self._site_names = list(site_names)
        self.trees = {bin_id: layers.from_bytes(payload) for bin_id, payload in stored.items()}
        self._memo: Dict[Tuple[BinId, object], int] = {}

    def node_keys(self) -> Set[object]:
        keys: Set[object] = set()
        for tree in self.trees.values():
            keys.update(tree.keys())
        return keys

    def totals(self) -> Tuple[int, int, int]:
        packets = byte_count = flows = 0
        for tree in self.trees.values():
            counters = tree.total_counters()
            packets += counters.packets
            byte_count += counters.bytes
            flows += counters.flows
        return packets, byte_count, flows

    def _bins(self, sites: Optional[Sequence[str]], start: int, end: int) -> List[BinId]:
        return [
            (site, bin_index)
            for site in (sites if sites is not None else self._site_names)
            for bin_index in range(start, end + 1)
            if (site, bin_index) in self.trees
        ]

    def answer(self, key: object, sites: Optional[Sequence[str]], start: int, end: int) -> int:
        total = 0
        for bin_id in self._bins(sites, start, end):
            value = self._memo.get((bin_id, key))
            if value is None:
                value = layers.tree_estimate_many(self.trees[bin_id], [key])[key].value("packets")
                self._memo[(bin_id, key)] = value
            total += value
        return total

    def answer_many(
        self, keys: Sequence[object], sites: Optional[Sequence[str]], start: int, end: int
    ) -> Dict[object, int]:
        totals = {key: 0 for key in keys}
        for bin_id in self._bins(sites, start, end):
            for key, estimate in layers.tree_estimate_many(self.trees[bin_id], keys).items():
                totals[key] += estimate.value("packets")
        return totals


def check_ingest(verdict: Verdict, inputs: Inputs, result: IngestResult, reference: Reference) -> None:
    """Exactly-once delivery and conservation through the whole ingest path."""
    counters = result.collector
    lost = abs(result.summaries - counters["messages"]) + abs(result.summaries - result.bins_stored)
    spurious = (
        counters["duplicates_dropped"] + counters["corrupt_dropped"]
        + counters["expired_dropped"] + counters["backlog"]
    )
    verdict.add(result.summaries, min(result.summaries, lost + spurious),
                "summaries committed exactly once")
    conserved = reference.totals() == inputs.totals
    verdict.add(1, 0 if conserved else 1,
                f"conservation (stored {reference.totals()} vs replayed {inputs.totals})")


def check_points(
    verdict: Verdict, plan: QueryPlan, records: Sequence[QueryRecord], reference: Reference,
    limit_s: Optional[float] = None,
) -> None:
    """Every point answer equals the reference (and, if set, met its limit)."""
    failed = 0
    for record in records:
        key_index, sites, start, end = record.query
        wrong = record.total is None or record.total != reference.answer(
            plan.keys[key_index], sites, start, end
        )
        late = limit_s is not None and record.latency_s > limit_s
        failed += 1 if (wrong or late) else 0
    verdict.add(len(records), failed, "point queries")


def check_batches(
    verdict: Verdict, plan: QueryPlan, answers: Sequence[Optional[Dict[object, int]]],
    reference: Reference,
) -> None:
    failed = 0
    for (sites, start, end), totals in zip(plan.batches, answers):
        if totals is None or totals != reference.answer_many(plan.keys, sites, start, end):
            failed += 1
    verdict.add(len(answers), failed, "batch queries")
