"""Message types exchanged between Flowtree daemons and the collector.

The distributed system (paper Fig. 1 and Sec. 3) ships *summaries*, never
raw flows: a daemon periodically exports either the full Flowtree of the
bin that just closed or the diff against the previous bin.  Queries and
alerts flow the other way.  Messages carry their payload as bytes so the
simulated transport can account transfer volume exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SUMMARY_FULL = "full"
SUMMARY_DIFF = "diff"


@dataclass(frozen=True)
class SummaryMessage:
    """One exported summary (full or diff) for one time bin at one site."""

    site: str
    bin_index: int
    bin_start: float
    bin_end: float
    kind: str
    payload: bytes
    record_count: int = 0
    #: Per-site export counter assigned by the daemon, with a random
    #: per-daemon-run nonce in the high bits.  The collector uses
    #: ``(site, bin_index, sequence)`` as its idempotency key, so a re-sent
    #: message (daemon retry, crash replay) is dropped instead of merged a
    #: second time, while a *restarted* daemon's fresh exports carry a new
    #: nonce and are never mistaken for replays of the previous run.
    #: ``-1`` (hand-built messages) opts out of dedup.
    sequence: int = -1

    @property
    def payload_bytes(self) -> int:
        """Size of the serialized summary."""
        return len(self.payload)

    def __post_init__(self) -> None:
        if self.kind not in (SUMMARY_FULL, SUMMARY_DIFF):
            raise ValueError(f"summary kind must be 'full' or 'diff', got {self.kind!r}")


@dataclass(frozen=True)
class QueryRequest:
    """A popularity query against one or more sites and a time range.

    ``key_wire`` is the per-feature wire form of the queried key (so the
    request itself is schema-agnostic and serializable); ``sites=None``
    means "all sites".
    """

    key_wire: Tuple[str, ...]
    metric: str = "packets"
    start_bin: Optional[int] = None
    end_bin: Optional[int] = None
    sites: Optional[Tuple[str, ...]] = None
    request_id: int = 0


@dataclass(frozen=True)
class QueryResponse:
    """Result of a :class:`QueryRequest`: total plus per-site / per-bin breakdowns.

    ``unavailable_collectors`` is non-empty only when the engine ran with
    ``on_unavailable="partial"`` and degraded: the totals then cover the
    reachable collectors only (and ``exact`` is forced off).
    """

    request_id: int
    total: int
    per_site: Dict[str, int] = field(default_factory=dict)
    per_bin: Dict[int, int] = field(default_factory=dict)
    exact: bool = False
    unavailable_collectors: Tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        """Whether any collector was unreachable when this was computed."""
        return bool(self.unavailable_collectors)


@dataclass(frozen=True)
class Alert:
    """Raised when a key's popularity changes significantly between bins."""

    site: str
    bin_index: int
    key_wire: Tuple[str, ...]
    metric: str
    before: int
    after: int
    change: float
    severity: str = "warning"

    def describe(self) -> str:
        """One-line human readable description (used by the CLI and examples)."""
        direction = "increased" if self.change >= 0 else "dropped"
        return (
            f"[{self.severity}] site={self.site} bin={self.bin_index} "
            f"key=({', '.join(self.key_wire)}) {self.metric} {direction} "
            f"{abs(self.change) * 100:.0f}% ({self.before} -> {self.after})"
        )


@dataclass
class TransferLog:
    """Running totals of what a channel carried (used by CLAIM-TRANSFER)."""

    messages: int = 0
    payload_bytes: int = 0
    overhead_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Payload plus per-message overhead."""
        return self.payload_bytes + self.overhead_bytes

    def record(self, payload_bytes: int, overhead_bytes: int) -> None:
        """Account one message."""
        self.messages += 1
        self.payload_bytes += payload_bytes
        self.overhead_bytes += overhead_bytes
