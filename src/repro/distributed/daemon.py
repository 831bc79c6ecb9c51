"""Per-router Flowtree daemon.

Fig. 1 of the paper: "each router exports its data to a close-by Flowtree
daemon using APIs such as NetFlow to continuously construct summaries of
the active flows".  The daemon consumes flow records (or raw NetFlow v5
datagrams), maintains one Flowtree per time bin, and when a bin closes
exports its summary — full or diff-encoded — to the collector over the
simulated transport.

One daemon is one process's worth of work: each bin is a single
in-process :class:`~repro.core.flowtree.Flowtree`, and :meth:`flush` is
the only export path.  A deployment scales out the way the paper does, by
running one daemon per site.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.core.config import FlowtreeConfig
from repro.core.errors import DaemonError
from repro.core.flowtree import DEFAULT_BATCH_SIZE, Flowtree
from repro.distributed.diffsync import DiffSyncEncoder
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


class FlowtreeDaemon:
    """Summarizes one router's export stream into per-bin Flowtrees."""

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
    ) -> None:
        if bin_width <= 0:
            raise DaemonError(f"bin_width must be positive, got {bin_width}")
        self._site = site
        self._schema = schema
        self._transport = transport
        self._collector = collector_name
        self._bin_width = bin_width
        self._config = config or FlowtreeConfig()
        self._encoder = DiffSyncEncoder(prefer_diff=use_diffs, full_every=full_every)
        self._current: Optional[Flowtree] = None
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
    def current_tree(self) -> Optional[Flowtree]:
        """The (still open) Flowtree of the current bin."""
        return self._current

    @property
    def bin_width(self) -> float:
        """Export interval in seconds."""
        return self._bin_width

    # -- ingestion ------------------------------------------------------------------

    def consume_record(self, record: object) -> None:
        """Consume one flow/packet record, rolling the bin over if needed."""
        self._advance_bin(record.timestamp)
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
        consumed = self._current.add_batch(bucket)
        self._records_in_bin += consumed
        self._stats.records_consumed += consumed
        bucket.clear()

    def consume_netflow(
        self, datagrams: Iterable[bytes], batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    ) -> int:
        """Consume raw NetFlow v5 datagrams (the router-facing API of Fig. 1).

        Decoded flows go through :meth:`consume_records`, so they get the
        batched fast path.
        """
        def flows_of(packets: Iterable[bytes]) -> Iterator[FlowRecord]:
            for datagram in packets:
                _, flows = decode_datagram(datagram, exporter=self._site)
                yield from flows

        return self.consume_records(flows_of(datagrams), batch_size=batch_size)

    # -- export ---------------------------------------------------------------------

    def flush(self) -> Optional[SummaryMessage]:
        """Export the current bin (if any) to the collector.

        Returns the message sent, or ``None`` when no bin was open.  The
        finished tree is handed to the diff encoder as its next baseline,
        so the daemon drops its own reference and never touches it again.
        """
        if self._current is None or self._current_bin is None:
            return None
        message = self._emit(self._current, self._current_bin, self._records_in_bin)
        self._current = None
        self._current_bin = None
        self._records_in_bin = 0
        return message

    def close(self) -> None:
        """Flush the open bin; further records raise
        :class:`~repro.core.errors.DaemonError` (idempotent)."""
        try:
            self.flush()
        finally:
            self._closed = True

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
        self._current = Flowtree(self._schema, self._config)
        self._current_bin = bin_index
        self._records_in_bin = 0
