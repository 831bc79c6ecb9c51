"""Central collector: the database of Fig. 1.

The collector drains summary messages from the transport, reconstructs full
per-bin summaries (applying diffs on top of the last full summary per
site), and stores them in one :class:`FlowtreeTimeSeries` per site.  On top
of that it offers the cross-site views the paper motivates: merged
summaries over any set of sites and time range, per-site breakdowns and the
inputs the alerting layer needs.

Storage is pluggable (:class:`CollectorConfig.store`): the default keeps
bins in process memory, the ``file`` backend persists every ingested
message durably — bin payload, diff-decoder baseline and dedup
guard commit atomically per message — so a killed collector comes back
with :meth:`Collector.reopen` answering queries byte-identically to an
uninterrupted one.  Ingestion is idempotent under message replay (daemon
retries, crash replays) via a per-``(site, bin, sequence)`` guard, and
retention (:attr:`CollectorConfig.retain_bins` / :meth:`evict_before`)
flows through to backend deletion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import (
    CollectorUnavailableError,
    ConfigurationError,
    DaemonError,
    SerializationError,
)
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.operators import merge_all
from repro.core.serialization import from_bytes, to_bytes
from repro.distributed.diffsync import DiffSyncDecoder
from repro.distributed.faults import FAULT_COLLECTOR_KILL, FaultPlan
from repro.distributed.messages import SUMMARY_FULL, SummaryMessage
from repro.distributed.stores import STORE_KINDS, TimeSeriesStore, open_store
from repro.distributed.stores.base import (
    pack_float,
    pack_int_pairs,
    pack_ints,
    unpack_float,
    unpack_int_pairs,
    unpack_ints,
)
from repro.distributed.timeseries import FlowtreeTimeSeries
from repro.distributed.transport import Transport
from repro.features.schema import FlowSchema

_BIN_WIDTH_KEY = "collector/bin_width"
_SCHEMA_KEY = "collector/schema"
_COUNTERS_KEY = "collector/counters"


def stored_identity(store: TimeSeriesStore) -> Tuple[Optional[float], Optional[str]]:
    """``(bin_width, schema name)`` a store was written with (``None`` = fresh).

    Lets tooling (e.g. the CLI's ``store-info``) adopt a store's recorded
    geometry instead of guessing it before constructing a collector.
    """
    raw_width = store.get_meta(_BIN_WIDTH_KEY)
    raw_schema = store.get_meta(_SCHEMA_KEY)
    return (
        unpack_float(raw_width) if raw_width is not None else None,
        raw_schema.decode("utf-8") if raw_schema is not None else None,
    )


@dataclass(frozen=True)
class CollectorConfig:
    """Operational configuration of one :class:`Collector`.

    Attributes:
        bin_width: width of the collector's time bins in seconds; incoming
            summaries must match it (see :meth:`Collector.ingest`).
        storage: Flowtree configuration applied to per-bin summaries.
        store: storage backend — ``"memory"`` (default, process-local) or
            ``"file"`` (append-only segments, durable; needs ``store_path``).
        store_path: directory of the ``file`` store.
        cache_bins: LRU hot-bin cache size of the ``file`` store.
        retain_bins: keep only the newest N bins per site, evicting older
            ones from the backend as ingestion advances (``None`` = keep
            everything).
    """

    bin_width: float = 60.0
    storage: Optional[FlowtreeConfig] = None
    store: str = "memory"
    store_path: Optional[str] = None
    cache_bins: int = 64
    retain_bins: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise ConfigurationError(f"bin_width must be positive, got {self.bin_width}")
        if self.store not in STORE_KINDS:
            raise ConfigurationError(
                f"store must be one of {sorted(STORE_KINDS)}, got {self.store!r}"
            )
        if self.store != "memory" and self.store_path is None:
            raise ConfigurationError(f"store {self.store!r} needs a store_path")
        if self.cache_bins < 1:
            raise ConfigurationError(f"cache_bins must be positive, got {self.cache_bins}")
        if self.retain_bins is not None and self.retain_bins < 1:
            raise ConfigurationError(
                f"retain_bins must be positive or None, got {self.retain_bins}"
            )


class Collector:
    """Receives summaries from all daemons and serves cross-site queries."""

    def __init__(
        self,
        schema: FlowSchema,
        transport: Transport,
        name: str = "collector",
        config: Optional[CollectorConfig] = None,
        store: Optional[TimeSeriesStore] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        """``config`` defaults to ``CollectorConfig()``; a prebuilt ``store``
        wins over ``config.store``."""
        if config is None:
            config = CollectorConfig()
        self._schema = schema
        self._transport = transport
        self._name = name
        self._config = config
        self._bin_width = config.bin_width
        self._storage_config = config.storage or FlowtreeConfig()
        self._store = store if store is not None else open_store(
            config.store, config.store_path, cache_bins=config.cache_bins
        )
        self._faults = faults
        if faults is not None:
            self._store.attach_faults(faults)
        #: Serializes every entry point: the supervisor heartbeat thread
        #: polls/reopens this collector while the query engine's gather
        #: pool reads it and the main thread replays into it.  Reentrant
        #: because entry points nest (``poll`` -> ``ingest``,
        #: ``evict_before`` -> ``site_series``).  Lock order: always taken
        #: *after* any caller's lock (supervisor ``_check_lock``) and
        #: *before* leaf locks (``FaultPlan._lock``, store connections) —
        #: never the reverse, so no ordering cycles.
        self._lock = threading.RLock()
        #: ``None`` = alive; otherwise the reason the collector went down.
        self._killed: Optional[str] = None
        #: Messages drained from the transport but not yet ingested (the
        #: transport acked them, so a failed ingest must keep them for
        #: retry instead of losing them).
        self._backlog: List[SummaryMessage] = []
        self._corrupt_dropped = 0
        self._decoder = DiffSyncDecoder()
        self._series: Dict[str, FlowtreeTimeSeries] = {}
        self._seen: Dict[str, Set[Tuple[int, int]]] = {}
        #: Per-site retention horizon: bins below it were evicted and
        #: stay rejected, which is what lets the dedup guards for them be
        #: pruned without replays resurrecting deleted bins.
        self._horizon: Dict[str, int] = {}
        self._messages_processed = 0
        self._bytes_received = 0
        self._duplicates_dropped = 0
        self._expired_dropped = 0
        self._validate_store_identity()
        transport.register(name)

    def _validate_store_identity(self) -> None:
        """Pin bin geometry and schema in the backend; reject mismatched reuse."""
        raw = self._store.get_meta(_BIN_WIDTH_KEY)
        if raw is None:
            self._store.set_meta(_BIN_WIDTH_KEY, pack_float(self._bin_width))
        else:
            stored = unpack_float(raw)
            if abs(stored - self._bin_width) > self._geometry_tolerance:
                raise DaemonError(
                    f"store was written with bin_width {stored}, "
                    f"collector configured with {self._bin_width}"
                )
        raw = self._store.get_meta(_SCHEMA_KEY)
        if raw is None:
            self._store.set_meta(_SCHEMA_KEY, self._schema.name.encode("utf-8"))
        else:
            stored_name = raw.decode("utf-8")
            if stored_name != self._schema.name:
                raise DaemonError(
                    f"store holds schema {stored_name!r}, "
                    f"collector configured with {self._schema.name!r}"
                )

    # -- properties -----------------------------------------------------------------

    @property
    def name(self) -> str:
        """Transport endpoint name of the collector."""
        return self._name

    @property
    def config(self) -> CollectorConfig:
        """The collector's operational configuration."""
        return self._config

    @property
    def store(self) -> TimeSeriesStore:
        """The storage backend holding every site's bins."""
        return self._store

    @property
    def sites(self) -> List[str]:
        """Sites the collector has received at least one summary from."""
        with self._lock:
            return sorted(self._series)

    @property
    def messages_processed(self) -> int:
        """Number of summary messages stored so far (duplicates excluded)."""
        with self._lock:
            return self._messages_processed

    @property
    def bytes_received(self) -> int:
        """Total summary payload bytes received (excludes transport overhead)."""
        with self._lock:
            return self._bytes_received

    @property
    def duplicates_dropped(self) -> int:
        """Re-delivered messages skipped by the idempotency guard."""
        with self._lock:
            return self._duplicates_dropped

    @property
    def expired_dropped(self) -> int:
        """Messages for bins below a site's retention horizon, skipped."""
        with self._lock:
            return self._expired_dropped

    @property
    def corrupt_dropped(self) -> int:
        """Messages with undecodable payloads, dropped as poison."""
        with self._lock:
            return self._corrupt_dropped

    @property
    def pending_backlog(self) -> int:
        """Drained-but-not-ingested messages awaiting the next poll."""
        with self._lock:
            return len(self._backlog)

    # -- health -----------------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """Whether the collector is serving (not killed)."""
        with self._lock:
            return self._killed is None

    @property
    def kill_reason(self) -> Optional[str]:
        """Why the collector is down, or ``None`` when healthy."""
        with self._lock:
            return self._killed

    def kill(self, reason: str = "killed") -> None:
        """Mark the collector dead: every entry point raises until it is
        revived (memory store) or reopened (durable store)."""
        with self._lock:
            self._killed = reason

    def revive(self) -> None:
        """Bring a killed *in-memory* collector back.

        Models a service restart where process state survived (the memory
        backend holds the trees); durable collectors come back through
        :meth:`reopen`, which rebuilds state from the backend instead.
        """
        with self._lock:
            self._killed = None

    def ping(self) -> bool:
        """Cheap liveness probe (raises when killed) for heartbeat checks."""
        with self._lock:
            self._ensure_alive()
        return True

    def _ensure_alive(self) -> None:
        if self._killed is not None:
            raise CollectorUnavailableError(
                f"collector {self._name!r} is down: {self._killed}"
            )

    # -- ingestion --------------------------------------------------------------------

    def poll(self, limit: Optional[int] = None) -> int:
        """Drain pending summaries from the transport; returns how many were processed.

        The transport acknowledged every drained message, so a failed
        ingest must not lose the rest of the drain: unprocessed messages
        go to an internal backlog the next poll retries.  Poison messages
        (payloads that cannot decode, geometry mismatches) are dropped —
        retrying them can never succeed — while transient failures (store
        commit errors, a killed collector) keep the failing message itself
        queued for retry.
        """
        with self._lock:
            self._ensure_alive()
            pending: List[object] = list(self._backlog)
            self._backlog = []
            if limit is None:
                pending.extend(m for _, m in self._transport.receive(self._name))
            elif len(pending) < limit:
                pending.extend(
                    m for _, m in self._transport.receive(self._name, limit=limit - len(pending))
                )
            processed = 0
            for index, message in enumerate(pending):
                if not isinstance(message, SummaryMessage):
                    # Poison: drop it, keep everything behind it.
                    self._backlog = list(pending[index + 1 :])
                    raise DaemonError(
                        f"collector received unexpected message type {type(message).__name__}"
                    )
                try:
                    self.ingest(message)
                except SerializationError:
                    # Poison payload (corruption that slipped past transport
                    # checks): a retry cannot succeed — count and drop it so
                    # the acked messages behind it still get through.
                    self._corrupt_dropped += 1
                    continue
                except CollectorUnavailableError:
                    # Transient: the collector died mid-drain; retry this very
                    # message once it is revived/reopened.
                    self._backlog = list(pending[index:])
                    raise
                except DaemonError:
                    # Validation poison (geometry / alignment mismatch): the
                    # message can never be accepted; drop it, keep the rest.
                    self._backlog = list(pending[index + 1 :])
                    raise
                except BaseException:
                    # Transient (store commit failure, ...): keep the failing
                    # message for retry — it was acked and must not be lost.
                    self._backlog = list(pending[index:])
                    raise
                processed += 1
            return processed

    @property
    def _geometry_tolerance(self) -> float:
        return 1e-6 * max(1.0, self._bin_width)

    def _validate_geometry(self, message: SummaryMessage) -> None:
        """Reject summaries whose bin geometry disagrees with this collector's.

        A daemon configured with a different ``bin_width`` would otherwise
        have its bins silently mis-placed on the collector's time axis.
        """
        span = message.bin_end - message.bin_start
        tolerance = self._geometry_tolerance
        if abs(span - self._bin_width) > tolerance:
            raise DaemonError(
                f"summary from site {message.site!r} covers {span}s bins; "
                f"this collector is configured with bin_width {self._bin_width}"
            )
        series = self._series.get(message.site)
        if series is not None and series.origin is not None:
            expected_start = series.origin + message.bin_index * self._bin_width
            # Epoch-scale timestamps leave only ~1e-7 of float precision;
            # widen the alignment tolerance by a few ulps of the operands.
            alignment_tolerance = tolerance + abs(message.bin_start) * 1e-12
            if abs(message.bin_start - expected_start) > alignment_tolerance:
                raise DaemonError(
                    f"summary from site {message.site!r} for bin {message.bin_index} "
                    f"starts at {message.bin_start}, expected {expected_start} "
                    f"(misaligned bin origin)"
                )

    def ingest(self, message: SummaryMessage) -> bool:
        """Store one summary message (reconstructing from a diff if needed).

        Returns ``False`` when the message was dropped: either a duplicate
        delivery (same ``(site, bin_index, sequence)`` as an already-stored
        message) or a message for a bin below the site's retention horizon.
        Drops touch no counter, bin or baseline — replays are idempotent.
        Messages carrying no sequence (``sequence < 0``) bypass the guard.

        In-memory state only advances *after* the backend commit, so a
        failed durable write leaves the collector exactly as before the
        call and a retry of the same message goes through cleanly.
        """
        with self._lock:
            self._ensure_alive()
            if self._faults is not None and self._faults.should_fire(FAULT_COLLECTOR_KILL):
                self.kill("fault injection [collector.kill]: killed mid-ingest")
                raise CollectorUnavailableError(
                    f"collector {self._name!r} was killed mid-ingest (fault injection)"
                )
            self._validate_geometry(message)
            site = message.site
            horizon = self._horizon.get(site)
            if horizon is not None and message.bin_index < horizon:
                self._expired_dropped += 1
                return False
            seen = self._seen.setdefault(site, set())
            guard = (message.bin_index, message.sequence)
            if message.sequence >= 0 and guard in seen:
                self._duplicates_dropped += 1
                return False
            prior_baseline = self._decoder.baseline(site)
            # Decoding is also the poison check (it raises SerializationError
            # for corrupt payloads), so it runs even for a full summary.
            tree = self._decoder.decode(message)
            series = self._series.get(site)
            if series is None:
                series = FlowtreeTimeSeries(
                    self._schema,
                    self._bin_width,
                    config=self._storage_config,
                    origin=message.bin_start - message.bin_index * self._bin_width,
                    store=self._store,
                    site=site,
                )
                self._series[site] = series
            new_seen = set(seen)
            if message.sequence >= 0:
                new_seen.add(guard)
            processed = self._messages_processed + 1
            received = self._bytes_received + message.payload_bytes
            meta: Optional[Dict[str, bytes]] = None
            payload: Optional[bytes] = None
            if self._store.durable:
                # One encoding serves as the bin payload and the baseline: a
                # full summary's wire bytes, or a diff's reconstruction
                # encoded once.  Everything restart recovery needs commits
                # atomically with the bin payload: the diff baseline this
                # message established, the dedup guard covering it, and the
                # running counters.
                payload = message.payload if message.kind == SUMMARY_FULL else to_bytes(tree)
                meta = {
                    f"baseline/{site}": payload,
                    f"dedup/{site}": pack_int_pairs(new_seen),
                    _COUNTERS_KEY: pack_ints(
                        (processed, received,
                         self._duplicates_dropped, self._expired_dropped)
                    ),
                }
            try:
                series.insert_tree(message.bin_index, tree, meta=meta, payload=payload)
            except BaseException:
                # The commit failed: roll the decoder back so retrying this
                # message decodes exactly like the first attempt did.  Guards
                # and counters were not advanced yet, so the retry is not
                # mistaken for a duplicate.
                self._decoder.set_baseline(site, prior_baseline)
                raise
            self._seen[site] = new_seen
            self._messages_processed = processed
            self._bytes_received = received
            if self._config.retain_bins is not None:
                indices = series.bin_indices()
                if len(indices) > self._config.retain_bins:
                    self._evict_site_before(site, indices[-1] - self._config.retain_bins + 1)
            return True

    def _evict_site_before(self, site: str, bin_index: int) -> int:
        """Evict one site's bins below ``bin_index`` and advance its horizon.

        Dedup guards for evicted bins are pruned (bounding the guard set
        under retention); the horizon keeps replays of those evicted
        messages from resurrecting deleted bins.
        """
        removed = self.site_series(site).evict_before(bin_index)
        current = self._horizon.get(site)
        if current is None or bin_index > current:
            self._horizon[site] = bin_index
            pruned = {
                guard for guard in self._seen.get(site, set()) if guard[0] >= bin_index
            }
            self._seen[site] = pruned
            if self._store.durable:
                self._store.set_meta_many({
                    f"dedup/{site}": pack_int_pairs(pruned),
                    f"horizon/{site}": pack_ints((bin_index,)),
                })
        return removed

    # -- durability ------------------------------------------------------------------

    def reopen(self) -> List[str]:
        """Rebuild the collector's state from its storage backend.

        Re-creates every site's time series, the diff-decoder baselines
        and the replay dedup guards, so a restarted collector continues
        exactly where the killed one stopped: pending diffs decode against
        the recovered baselines and duplicate replays stay dropped.
        Returns the recovered site names.

        A killed collector comes back alive; its drained-but-uningested
        backlog is preserved (those messages were acked at the transport
        and would otherwise be lost).
        """
        with self._lock:
            self._killed = None
            self._series = {}
            self._seen = {}
            self._horizon = {}
            self._decoder = DiffSyncDecoder()
            for site in self._store.sites():
                self._series[site] = FlowtreeTimeSeries(
                    self._schema,
                    self._bin_width,
                    config=self._storage_config,
                    store=self._store,
                    site=site,
                )
                raw = self._store.get_meta(f"dedup/{site}")
                self._seen[site] = unpack_int_pairs(raw) if raw is not None else set()
                raw = self._store.get_meta(f"horizon/{site}")
                if raw is not None:
                    self._horizon[site] = unpack_ints(raw)[0]
                raw = self._store.get_meta(f"baseline/{site}")
                if raw is not None:
                    self._decoder.set_baseline(site, from_bytes(raw))
            raw = self._store.get_meta(_COUNTERS_KEY)
            if raw is not None:
                counters = unpack_ints(raw)
                if len(counters) == 4:
                    (self._messages_processed, self._bytes_received,
                     self._duplicates_dropped, self._expired_dropped) = counters
            return self.sites

    def flush(self) -> None:
        """Durability barrier: every ingested message is already committed;
        this forces the backend's writes to stable storage."""
        with self._lock:
            self._store.flush()

    def close(self) -> None:
        """Flush and release the storage backend."""
        with self._lock:
            self._store.close()

    def evict_before(self, bin_index: int, sites: Optional[Iterable[str]] = None) -> int:
        """Drop bins older than ``bin_index`` across sites (retention sweep).

        Returns the total number of bins removed from the backend.
        """
        with self._lock:
            removed = 0
            for site in list(sites) if sites is not None else self.sites:
                removed += self._evict_site_before(site, bin_index)
            return removed

    # -- views -----------------------------------------------------------------------

    def site_series(self, site: str) -> FlowtreeTimeSeries:
        """The per-bin series of one site (raises for unknown sites)."""
        with self._lock:
            self._ensure_alive()
            series = self._series.get(site)
            if series is None:
                raise DaemonError(f"no summaries received from site {site!r}")
            return series

    def merged(
        self,
        sites: Optional[Iterable[str]] = None,
        start_bin: Optional[int] = None,
        end_bin: Optional[int] = None,
    ) -> Flowtree:
        """One summary over the chosen sites and bin range (the cross-site merge).

        Only the bins inside the range are materialized from the backend.
        """
        with self._lock:
            self._ensure_alive()
            selected_sites = list(sites) if sites is not None else self.sites
            trees = []
            for site in selected_sites:
                trees.extend(self.site_series(site).trees_in_range(start_bin, end_bin))
            if not trees:
                raise DaemonError("no summaries match the requested sites/bins")
            return merge_all(trees)

    def estimate(
        self,
        key: FlowKey,
        sites: Optional[Iterable[str]] = None,
        start_bin: Optional[int] = None,
        end_bin: Optional[int] = None,
        metric: str = "packets",
    ) -> Tuple[int, Dict[str, int]]:
        """``(total, per_site)`` popularity of ``key`` over sites and bins."""
        totals, per_site = self.estimate_many(
            [key], sites=sites, start_bin=start_bin, end_bin=end_bin, metric=metric
        )
        return totals[key], {site: values[key] for site, values in per_site.items()}

    def estimate_many(
        self,
        keys: Iterable[FlowKey],
        sites: Optional[Iterable[str]] = None,
        start_bin: Optional[int] = None,
        end_bin: Optional[int] = None,
        metric: str = "packets",
    ) -> Tuple[Dict[FlowKey, int], Dict[str, Dict[FlowKey, int]]]:
        """``(totals, per_site)`` popularity of many keys over sites and bins.

        Each touched bin answers the whole batch through the primed query
        caches of :func:`~repro.core.estimator.estimate_many` instead of
        dispatching one estimate per (key, site, bin).
        """
        with self._lock:
            self._ensure_alive()
            key_list = list(keys)
            selected_sites = list(sites) if sites is not None else self.sites
            per_site: Dict[str, Dict[FlowKey, int]] = {}
            totals: Dict[FlowKey, int] = {key: 0 for key in key_list}
            for site in selected_sites:
                values = self.site_series(site).query_range_many(
                    key_list, start_bin=start_bin, end_bin=end_bin, metric=metric
                )
                per_site[site] = values
                for key, value in values.items():
                    totals[key] += value
            return totals, per_site

    def bins_for(self, site: str) -> List[int]:
        """Populated bin indices of one site."""
        with self._lock:
            return self.site_series(site).bin_indices()
