"""Time-binned Flowtree store.

The future-work system sketched in the paper's Sec. 3 "extends Flowtree by
adding two features, namely time and monitor location".  Location is the
collector's per-site dimension; time is this class: an ordered collection
of Flowtrees, one per fixed-width bin, with range queries implemented by
merging the bins of the range (the merge operator is exactly what makes
this cheap).

Bins live behind a pluggable :class:`~repro.distributed.stores.base.TimeSeriesStore`
(in-memory by default; the segment-file backend persists across
restarts).  The store holds committed trees only and
:meth:`FlowtreeTimeSeries.insert_tree` is this class's one write path: a
bin's new contents are built aside (``existing.merged(update)``) and
committed with one ``put``, so a failed commit leaves the bin — as served
and as stored — untouched; record ingestion (:meth:`add_records`) builds
one tree per touched bin and goes through the same path.  Reads
materialize bins lazily through the store's hot-bin cache, so a range
query only deserializes the bins the range touches, and eviction
(:meth:`FlowtreeTimeSeries.evict_before`) flows through to backend
deletion.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import QueryError
from repro.core.estimator import estimate_values
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.operators import merge_all
from repro.distributed.stores.base import TimeSeriesStore, pack_float, unpack_float
from repro.distributed.stores.memory import MemoryStore
from repro.features.schema import FlowSchema
from repro.flows.records import FlowRecord


class FlowtreeTimeSeries:
    """One Flowtree per time bin, with range merge and range queries."""

    def __init__(
        self,
        schema: FlowSchema,
        bin_width: float,
        config: Optional[FlowtreeConfig] = None,
        origin: Optional[float] = None,
        store: Optional[TimeSeriesStore] = None,
        site: str = "default",
    ) -> None:
        if bin_width <= 0:
            raise QueryError(f"bin_width must be positive, got {bin_width}")
        self._schema = schema
        self._bin_width = bin_width
        self._config = config or FlowtreeConfig()
        self._store = store if store is not None else MemoryStore()
        self._site = site
        if origin is None:
            raw = self._store.get_meta(self._origin_meta_key)
            origin = unpack_float(raw) if raw is not None else None
        else:
            self._persist_origin(origin)
        self._origin = origin

    # -- properties ------------------------------------------------------------

    @property
    def schema(self) -> FlowSchema:
        """Schema shared by every bin."""
        return self._schema

    @property
    def bin_width(self) -> float:
        """Width of each time bin in seconds."""
        return self._bin_width

    @property
    def origin(self) -> Optional[float]:
        """Timestamp of the start of bin 0 (set by the first record seen)."""
        return self._origin

    @property
    def store(self) -> TimeSeriesStore:
        """The storage backend holding this series' bins."""
        return self._store

    @property
    def site(self) -> str:
        """Site name this series' bins are keyed by in the store."""
        return self._site

    def bin_indices(self) -> List[int]:
        """Indices of all populated bins, in order."""
        return self._store.bin_indices(self._site)

    def __len__(self) -> int:
        return len(self.bin_indices())

    def __contains__(self, bin_index: int) -> bool:
        return bin_index in self._store.bin_indices(self._site)

    # -- writing -----------------------------------------------------------------

    @property
    def _origin_meta_key(self) -> str:
        return f"origin/{self._site}"

    def _persist_origin(self, origin: float) -> None:
        self._store.set_meta(self._origin_meta_key, pack_float(origin))

    def bin_index_of(self, timestamp: float) -> int:
        """Bin index a timestamp belongs to (read-only lookup).

        Raises :class:`~repro.core.errors.QueryError` when the series is
        empty: a pure lookup must not fix the origin as a side effect, or
        a query issued before the first record would mis-bin everything
        ingested afterwards.
        """
        if self._origin is None:
            raise QueryError(
                "time series is empty; no origin established yet "
                "(ingest a record before translating timestamps to bins)"
            )
        return int((timestamp - self._origin) // self._bin_width)

    def add_record(self, record: FlowRecord) -> int:
        """Route one record into its bin; returns the bin index used.

        One commit per call — feed streams through :meth:`add_records`.
        """
        self.add_records((record,))
        return self.bin_index_of(record.timestamp)

    def add_records(self, records: Iterable[FlowRecord]) -> int:
        """Route every record of an iterable; returns the number consumed.

        The first record's timestamp fixes the origin.  Records are
        bucketed per bin, each bucket is batched into a fresh tree and
        committed through :meth:`insert_tree` — one commit per touched bin.
        """
        buckets: Dict[int, List[FlowRecord]] = {}
        count = 0
        for record in records:
            if self._origin is None:
                self._origin = record.timestamp
                self._persist_origin(record.timestamp)
            buckets.setdefault(self.bin_index_of(record.timestamp), []).append(record)
            count += 1
        for bin_index, bucket in buckets.items():
            tree = Flowtree(self._schema, self._config)
            tree.add_batch(bucket)
            self.insert_tree(bin_index, tree)
        return count

    def insert_tree(
        self,
        bin_index: int,
        tree: Flowtree,
        meta: Optional[Dict[str, bytes]] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        """Install (or merge into) a bin from an externally built summary.

        The one write path: the bin's new contents (and any ``meta``
        updates, e.g. dedup guards and diff baselines) are committed to the
        backend atomically before the call returns.  A merge is built
        aside, so a failed commit leaves the served bin untouched.

        ``payload`` is ``tree``'s FTRE encoding, passed through to
        :meth:`TimeSeriesStore.put` for a fresh bin; a merge into an
        existing bin commits a different tree, so it is dropped there.
        """
        existing = self._store.get(self._site, bin_index)
        if existing is not None:
            tree = existing.merged(tree)
            payload = None
        self._store.put(self._site, bin_index, tree, meta=meta, payload=payload)

    def flush(self) -> None:
        """Durability barrier of the backend (every bin is already committed)."""
        self._store.flush()

    # -- reading -----------------------------------------------------------------

    def tree(self, bin_index: int) -> Optional[Flowtree]:
        """The Flowtree of a bin, or ``None`` if the bin is empty."""
        return self._store.get(self._site, bin_index)

    def bins(self) -> Iterator[Tuple[int, Flowtree]]:
        """Iterate over ``(bin_index, tree)`` pairs in time order."""
        for index in self.bin_indices():
            tree = self._store.get(self._site, index)
            if tree is not None:
                yield index, tree

    def _selected_indices(
        self, start_bin: Optional[int], end_bin: Optional[int]
    ) -> List[int]:
        return [
            index
            for index in self.bin_indices()
            if (start_bin is None or index >= start_bin)
            and (end_bin is None or index <= end_bin)
        ]

    def trees_in_range(
        self, start_bin: Optional[int] = None, end_bin: Optional[int] = None
    ) -> List[Flowtree]:
        """Trees of the populated bins in ``[start_bin, end_bin]`` (lazy).

        Only the selected bins are materialized from the backend — bins
        outside the range are never deserialized.
        """
        trees = []
        for index in self._selected_indices(start_bin, end_bin):
            tree = self._store.get(self._site, index)
            if tree is not None:
                trees.append(tree)
        return trees

    def bin_bounds(self, bin_index: int) -> Tuple[float, float]:
        """``(start, end)`` timestamps of a bin."""
        if self._origin is None:
            raise QueryError("time series is empty; no origin established yet")
        start = self._origin + bin_index * self._bin_width
        return start, start + self._bin_width

    def merged_range(
        self, start_bin: Optional[int] = None, end_bin: Optional[int] = None
    ) -> Flowtree:
        """One summary covering ``[start_bin, end_bin]`` (inclusive; ``None`` = open end)."""
        selected = self.trees_in_range(start_bin, end_bin)
        if not selected:
            raise QueryError(
                f"no populated bins in range [{start_bin}, {end_bin}]"
            )
        return merge_all(selected)

    def query_range(
        self,
        key: FlowKey,
        start_bin: Optional[int] = None,
        end_bin: Optional[int] = None,
        metric: str = "packets",
    ) -> int:
        """Estimated popularity of ``key`` over a bin range."""
        return self.query_range_many(
            [key], start_bin=start_bin, end_bin=end_bin, metric=metric
        )[key]

    def query_range_many(
        self,
        keys: Iterable[FlowKey],
        start_bin: Optional[int] = None,
        end_bin: Optional[int] = None,
        metric: str = "packets",
    ) -> Dict[FlowKey, int]:
        """Range popularity of many keys at once.

        Each touched bin answers the whole key batch through
        :func:`~repro.core.estimator.estimate_values`, so the primed query
        caches and ancestor memos are shared across the batch instead of
        paying one estimate dispatch per (key, bin) pair.
        """
        key_list = list(keys)
        totals: Dict[FlowKey, int] = {key: 0 for key in key_list}
        if not key_list:
            return totals
        for index in self._selected_indices(start_bin, end_bin):
            tree = self._store.get(self._site, index)
            if tree is None:
                continue
            for key, value in estimate_values(tree, key_list, metric=metric).items():
                totals[key] += value
        return totals

    def series(self, key: FlowKey, metric: str = "packets") -> Dict[int, int]:
        """Per-bin popularity of ``key`` (the drill-down-over-time view)."""
        return {
            index: values[key]
            for index, values in self.series_many([key], metric=metric).items()
        }

    def series_many(
        self, keys: Iterable[FlowKey], metric: str = "packets"
    ) -> Dict[int, Dict[FlowKey, int]]:
        """Per-bin popularity of many keys (batched through ``estimate_many``)."""
        key_list = list(keys)
        result: Dict[int, Dict[FlowKey, int]] = {}
        for index, tree in self.bins():
            result[index] = estimate_values(tree, key_list, metric=metric)
        return result

    def total_by_bin(self, metric: str = "packets") -> Dict[int, int]:
        """Per-bin total traffic (capacity-planning style time series)."""
        return {index: tree.total_counters().weight(metric) for index, tree in self.bins()}

    def evict_before(self, bin_index: int) -> int:
        """Drop bins older than ``bin_index`` (retention); returns bins removed.

        Flows through to backend deletion, so retention actually reclaims
        durable storage rather than only trimming the in-process view.
        """
        return self._store.delete_before(self._site, bin_index)
