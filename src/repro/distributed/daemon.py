"""Per-router Flowtree daemon.

Fig. 1 of the paper: "each router exports its data to a close-by Flowtree
daemon using APIs such as NetFlow to continuously construct summaries of
the active flows".  The daemon consumes flow records (or raw NetFlow v5
datagrams), maintains one Flowtree per time bin, and when a bin closes
exports its summary — full or diff-encoded — to the collector over the
simulated transport.

With ``workers > 0`` the per-bin summarizer is a
:class:`~repro.core.sharded.ShardedFlowtree` whose shards live in a
:class:`~repro.core.parallel.ShardWorkerPool` and the export path is
*pipelined*: closing a bin schedules its per-shard summaries
asynchronously, ingestion of the next bin proceeds while the workers
finish folding and serializing the previous one, and :meth:`flush` joins
whatever is outstanding before emitting the
:class:`~repro.distributed.messages.SummaryMessage`.  Bin advancement,
late-record policy and the exported payloads are identical to the
single-process mode (byte-identical when compaction is disabled, since
merging the shards reproduces the unsharded tree exactly).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.core.config import FlowtreeConfig
from repro.core.errors import DaemonError
from repro.core.flowtree import DEFAULT_BATCH_SIZE, Flowtree
from repro.core.parallel import PendingSummaries, ShardWorkerPool
from repro.core.serialization import from_bytes
from repro.core.sharded import ShardedFlowtree
from repro.distributed.diffsync import DiffSyncEncoder
from repro.distributed.faults import FaultPlan
from repro.distributed.messages import SummaryMessage
from repro.distributed.transport import Transport
from repro.features.schema import FlowSchema
from repro.flows.netflow import decode_datagram
from repro.flows.records import FlowRecord


@dataclass
class DaemonStats:
    """Operational counters of one daemon."""

    records_consumed: int = 0
    bins_exported: int = 0
    full_summaries: int = 0
    diff_summaries: int = 0
    exported_bytes: int = 0
    late_records: int = 0
    pipelined_exports: int = 0


@dataclass
class _PendingBinExport:
    """A closed bin whose per-shard summaries are still being folded."""

    bin_index: int
    record_count: int
    pending: PendingSummaries


class FlowtreeDaemon:
    """Summarizes one router's export stream into per-bin Flowtrees.

    ``workers=0`` (default) keeps every bin in one in-process Flowtree.
    ``workers >= 1`` spawns that many shard worker processes (shared across
    bins — the pool is created once and reset per bin) and overlaps bin
    N+1's ingestion with bin N's folding and serialization.
    """

    def __init__(
        self,
        site: str,
        schema: FlowSchema,
        transport: Transport,
        collector_name: str = "collector",
        bin_width: float = 60.0,
        config: Optional[FlowtreeConfig] = None,
        use_diffs: bool = True,
        full_every: int = 10,
        workers: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if bin_width <= 0:
            raise DaemonError(f"bin_width must be positive, got {bin_width}")
        if workers < 0:
            raise DaemonError(f"workers must be non-negative, got {workers}")
        self._site = site
        self._schema = schema
        self._transport = transport
        self._collector = collector_name
        self._bin_width = bin_width
        self._config = config or FlowtreeConfig()
        self._encoder = DiffSyncEncoder(prefer_diff=use_diffs, full_every=full_every)
        self._workers = workers
        self._faults = faults
        self._sharded: Optional[ShardedFlowtree] = None
        self._pending_export: Optional[_PendingBinExport] = None
        self._current: Optional[Union[Flowtree, ShardedFlowtree]] = None
        self._current_bin: Optional[int] = None
        self._origin: Optional[float] = None
        self._records_in_bin = 0
        self._closed = False
        # Export sequence: a fresh random run nonce in the high 32 bits
        # plus a per-run counter.  Replaying this run's messages hits the
        # collector's dedup guard; a restarted daemon (new nonce) does not
        # collide with guards persisted from the previous run.
        self._sequence = int.from_bytes(os.urandom(4), "big") << 32
        self._stats = DaemonStats()
        transport.register(site)
        transport.register(collector_name)

    # -- properties ---------------------------------------------------------------

    @property
    def site(self) -> str:
        """Name of the monitoring site / router this daemon serves."""
        return self._site

    @property
    def stats(self) -> DaemonStats:
        """Operational counters."""
        return self._stats

    @property
    def workers(self) -> int:
        """Worker process count (0 = single-process mode)."""
        return self._workers

    @property
    def current_tree(self) -> Optional[Union[Flowtree, ShardedFlowtree]]:
        """The (still open) summarizer of the current bin.

        A :class:`Flowtree` in single-process mode; the shared
        worker-backed :class:`ShardedFlowtree` when ``workers > 0``.
        """
        return self._current

    @property
    def bin_width(self) -> float:
        """Export interval in seconds."""
        return self._bin_width

    def worker_stats(self) -> Dict[str, int]:
        """Executor stats snapshot (empty dict in single-process mode).

        Exposes the worker/queue counters (``workers``,
        ``batches_submitted``, ``worker_restarts``, ``journal_entries``,
        ...) so deployments report numbers comparable with the benchmark
        tables.  Joins any in-flight bin export first.
        """
        if self._sharded is None:
            return {}
        self._finalize_pending()
        return self._sharded.stats_snapshot()

    # -- ingestion ------------------------------------------------------------------

    def consume_record(self, record: object) -> None:
        """Consume one flow/packet record, rolling the bin over if needed."""
        self._advance_bin(record.timestamp)
        if self._workers:
            self._finalize_pending(block=False)
        self._current.add_record(record)
        self._records_in_bin += 1
        self._stats.records_consumed += 1

    def _advance_bin(self, timestamp: float, pending: Optional[List[object]] = None) -> None:
        """Apply the bin policy for one record's timestamp (both ingest paths).

        ``pending`` is the batched path's not-yet-charged buffer; it is
        drained into the finishing bin before a rollover exports it.
        """
        if self._origin is None:
            self._origin = timestamp
        bin_index = int((timestamp - self._origin) // self._bin_width)
        if self._current_bin is None:
            self._open_bin(bin_index)
        elif bin_index > self._current_bin:
            if pending:
                self._drain(pending)
            if self._workers:
                # Depth-1 pipeline: the previously scheduled bin must land
                # before this one is scheduled, then ingestion continues
                # while the workers fold and serialize the closing bin.
                self._finalize_pending()
                self._schedule_export()
            else:
                self.flush()
            self._open_bin(bin_index)
        elif bin_index < self._current_bin:
            # Flow exports routinely arrive out of start-time order (a long
            # flow ends after a short one that started later).  Late records
            # are charged to the currently open bin rather than dropped.
            self._stats.late_records += 1

    def consume_records(
        self, records: Iterable[object], batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    ) -> int:
        """Consume every record of an iterable; returns how many were consumed.

        Consecutive records that fall into the same time bin are buffered
        (up to ``batch_size``) and charged through the bin tree's batched
        fast path, which is what keeps per-site replay throughput close to
        :meth:`Flowtree.add_batch` rates.  Bin rollover, late-record
        accounting and the exported summaries are identical to calling
        :meth:`consume_record` per record.  ``batch_size=None`` (or ``<= 1``)
        falls back to the per-record path.
        """
        if batch_size is None or batch_size <= 1:
            count = 0
            for record in records:
                self.consume_record(record)
                count += 1
            return count
        count = 0
        bucket: List[object] = []
        for record in records:
            self._advance_bin(record.timestamp, pending=bucket)
            bucket.append(record)
            count += 1
            if len(bucket) >= batch_size:
                self._drain(bucket)
        self._drain(bucket)
        return count

    def _drain(self, bucket: List[object]) -> None:
        """Charge buffered records to the open bin through the batched path."""
        if not bucket:
            return
        if self._workers:
            # Harvest a finished previous-bin export without stalling the
            # pipeline; submission below overlaps with any remaining folds.
            self._finalize_pending(block=False)
        consumed = self._current.add_batch(bucket)
        self._records_in_bin += consumed
        self._stats.records_consumed += consumed
        bucket.clear()

    def consume_netflow(
        self, datagrams: Iterable[bytes], batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    ) -> int:
        """Consume raw NetFlow v5 datagrams (the router-facing API of Fig. 1).

        Decoded flows go through :meth:`consume_records`, so they get the
        batched fast path — essential in workers mode, where per-record
        ingestion would pay one process round-trip per flow.
        """
        def flows_of(packets: Iterable[bytes]) -> Iterator[FlowRecord]:
            for datagram in packets:
                _, flows = decode_datagram(datagram, exporter=self._site)
                yield from flows

        return self.consume_records(flows_of(datagrams), batch_size=batch_size)

    # -- export ---------------------------------------------------------------------

    def flush(self) -> Optional[SummaryMessage]:
        """Export the current bin (if any) to the collector; returns the message sent.

        In pipelined mode this is the join point: any previously scheduled
        bin is finalized first, then the current bin is scheduled and its
        outstanding per-shard summaries are collected before the
        :class:`SummaryMessage` is emitted.  The returned message is the
        one for the most recent bin this call exported (``None`` when
        nothing was open or outstanding).
        """
        if self._workers:
            message = self._finalize_pending()
            if self._current_bin is not None:
                self._schedule_export()
                message = self._finalize_pending()
            return message
        if self._current is None or self._current_bin is None:
            return None
        message = self._emit(self._current, self._current_bin, self._records_in_bin)
        self._current = None
        self._current_bin = None
        self._records_in_bin = 0
        return message

    def close(self) -> None:
        """Flush outstanding bins and shut any worker processes down.

        The worker pool is reaped even when the final flush fails (e.g. a
        worker that keeps dying during the join), so no processes linger.
        Further records raise :class:`~repro.core.errors.DaemonError` —
        silently respawning a pool would leak it.
        """
        try:
            self.flush()
        finally:
            self._closed = True
            if self._sharded is not None:
                self._sharded.close()
                self._sharded = None
                self._current = None

    def _schedule_export(self) -> None:
        """Close the current bin asynchronously: workers keep folding it."""
        pending = self._sharded.pool.begin_summaries(reset=True)
        self._pending_export = _PendingBinExport(
            bin_index=self._current_bin,
            record_count=self._records_in_bin,
            pending=pending,
        )
        self._stats.pipelined_exports += 1
        self._current_bin = None
        self._records_in_bin = 0

    def _finalize_pending(self, block: bool = True) -> Optional[SummaryMessage]:
        """Emit the scheduled bin's message once its summaries are all in."""
        export = self._pending_export
        if export is None:
            return None
        if not block and not export.pending.poll():
            return None
        payloads = export.pending.collect()
        shard_trees = [from_bytes(payload) for payload in payloads]
        merged = ShardedFlowtree.from_shard_trees(
            self._schema, self._config, shard_trees
        ).merged_tree()
        self._pending_export = None
        return self._emit(merged, export.bin_index, export.record_count)

    def _emit(self, tree: Flowtree, bin_index: int, record_count: int) -> SummaryMessage:
        """Encode one finished bin tree and ship it to the collector."""
        encoded = self._encoder.encode(tree)
        bin_start = self._origin + bin_index * self._bin_width
        message = SummaryMessage(
            site=self._site,
            bin_index=bin_index,
            bin_start=bin_start,
            bin_end=bin_start + self._bin_width,
            kind=encoded.kind,
            payload=encoded.payload,
            record_count=record_count,
            sequence=self._sequence,
        )
        self._sequence += 1
        self._transport.send(self._site, self._collector, message)
        self._stats.bins_exported += 1
        self._stats.exported_bytes += len(encoded.payload)
        if encoded.kind == "full":
            self._stats.full_summaries += 1
        else:
            self._stats.diff_summaries += 1
        return message

    def _open_bin(self, bin_index: int) -> None:
        if self._closed:
            raise DaemonError(f"daemon for site {self._site!r} is closed")
        if self._workers:
            if self._sharded is None:
                self._sharded = ShardedFlowtree(
                    self._schema,
                    self._config,
                    num_shards=self._workers,
                    pool=partial(ShardWorkerPool, faults=self._faults),
                )
            # The pool is reset by the previous bin's summarize-and-reset
            # command, so the new bin starts empty without a join here.
            self._current = self._sharded
        else:
            self._current = Flowtree(self._schema, self._config)
        self._current_bin = bin_index
        self._records_in_bin = 0
