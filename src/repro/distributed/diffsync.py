"""Differential synchronization of consecutive summaries.

The paper's transfer-cost argument: "Mergeable flow summaries can reduce
transfer and storage volume by allowing transfer of only summaries or even
difference of consecutive summaries."  This module implements both sides of
that protocol:

* the **encoder** (daemon side) decides, per bin, whether to ship the full
  summary or the diff against the previous bin — diffs win when consecutive
  bins share most of their keys, full summaries win after resets or when
  traffic changed drastically;
* the **decoder** (collector side) reconstructs the full per-bin summary by
  applying diffs on top of the last full summary it holds.

The encoder decides before it builds.  A diff holds one nonzero entry per
*changed* key — a key whose ``(packets, bytes, flows)`` differ from the
baseline, or a nonzero baseline key that is now absent — so when the
changed keys are at least as many as the tree's entries the diff is not
built at all: no ``Flowtree.diff``, no prune, no second encode.  Over
1,376 consecutive-bin pairs of caida and enterprise traffic (budgets 128,
512 and unbounded) no diff was smaller than its full summary, and the rule
skipped every pair; steady streams whose keys repeat still build and ship
their diffs.

Baselines are held by reference, never copied.  The encoder keeps the tree
it just encoded (the daemon drops its own reference when it exports the
bin), and the decoder keeps the tree it reconstructed (the collector
commits it, and committed trees are never mutated).  Neither side mutates
a tree it was handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.errors import DaemonError
from repro.core.flowtree import Flowtree
from repro.core.node import Counters
from repro.core.serialization import from_bytes, to_bytes
from repro.distributed.messages import SUMMARY_DIFF, SUMMARY_FULL, SummaryMessage


@dataclass
class EncodedSummary:
    """Outcome of encoding one bin: the chosen kind and its payload."""

    kind: str
    payload: bytes
    full_size: int
    #: ``None`` when no diff was built (first bin, checkpoint, or a diff that
    #: could not beat the full summary).
    diff_size: Optional[int]

    @property
    def chosen_size(self) -> int:
        """Size of the payload actually shipped."""
        return len(self.payload)

    @property
    def savings_fraction(self) -> float:
        """Bytes saved relative to always shipping the full summary."""
        if self.full_size == 0:
            return 0.0
        return 1.0 - self.chosen_size / self.full_size


def changed_entries(tree: Flowtree, baseline: Flowtree) -> int:
    """Nonzero entries ``tree.diff(baseline)`` would hold, counted without building it.

    A key of ``tree`` counts when its counters differ from the baseline's
    (an absent baseline key counts as zero); a baseline key absent from
    ``tree`` counts when its counters are nonzero.
    """
    zero = Counters()
    before = dict(baseline.items())
    changed = sum(1 for key, counters in tree.items() if before.pop(key, zero) != counters)
    return changed + sum(1 for counters in before.values() if counters != zero)


class DiffSyncEncoder:
    """Daemon-side encoder: full summary or diff, whichever is smaller."""

    def __init__(self, prefer_diff: bool = True, full_every: int = 0) -> None:
        """``full_every > 0`` forces a full summary every N bins (checkpointing)."""
        self._prefer_diff = prefer_diff
        self._full_every = full_every
        self._previous: Optional[Flowtree] = None
        self._since_full = 0

    def encode(self, tree: Flowtree) -> EncodedSummary:
        """Encode one finished bin; remembers it as the new baseline.

        The diff is built only when it may ship: a baseline exists, no
        checkpoint is due, and fewer keys changed than ``tree`` has entries
        (:func:`changed_entries`).  Otherwise ``diff_size`` is ``None``.

        ``tree`` becomes the baseline by reference: the caller hands it
        over and must not mutate it afterwards (``FlowtreeDaemon`` drops
        its reference on export).
        """
        full_payload = to_bytes(tree)
        previous, self._previous = self._previous, tree
        force_full = self._full_every > 0 and self._since_full >= self._full_every
        diff_payload: Optional[bytes] = None
        if (
            previous is not None
            and self._prefer_diff
            and not force_full
            and changed_entries(tree, previous) < len(tree)
        ):
            delta = tree.diff(previous)
            delta.prune_zero_nodes()
            diff_payload = to_bytes(delta)
            if len(diff_payload) < len(full_payload):
                self._since_full += 1
                return EncodedSummary(
                    kind=SUMMARY_DIFF,
                    payload=diff_payload,
                    full_size=len(full_payload),
                    diff_size=len(diff_payload),
                )
        self._since_full = 0
        return EncodedSummary(
            kind=SUMMARY_FULL,
            payload=full_payload,
            full_size=len(full_payload),
            diff_size=len(diff_payload) if diff_payload is not None else None,
        )

    def reset(self) -> None:
        """Forget the baseline (the next bin will be a full summary)."""
        self._previous = None
        self._since_full = 0


class DiffSyncDecoder:
    """Collector-side decoder: rebuilds full summaries from fulls + diffs."""

    def __init__(self) -> None:
        self._previous: Dict[str, Flowtree] = {}

    def decode(self, message: SummaryMessage) -> Flowtree:
        """Reconstruct the full summary carried by ``message``.

        Raises :class:`~repro.core.errors.DaemonError` when a diff arrives
        for a site whose baseline is unknown (the daemon must send a full
        summary first).
        """
        # Either way the returned tree is owned here and doubles as the
        # baseline without a defensive copy: the collector commits it as-is
        # and the store never mutates a committed tree (merges are built aside).
        payload_tree = from_bytes(message.payload)
        if message.kind == SUMMARY_FULL:
            reconstructed = payload_tree
        elif message.kind == SUMMARY_DIFF:
            baseline = self._previous.get(message.site)
            if baseline is None:
                raise DaemonError(
                    f"received a diff from site {message.site!r} without a prior full summary"
                )
            reconstructed = baseline.merged(payload_tree)
            reconstructed.prune_zero_nodes()
        else:
            raise DaemonError(f"unknown summary kind {message.kind!r}")
        self._previous[message.site] = reconstructed
        return reconstructed

    def baseline(self, site: str) -> Optional[Flowtree]:
        """The last reconstructed summary for a site (``None`` if none yet)."""
        return self._previous.get(site)

    def set_baseline(self, site: str, tree: Optional[Flowtree]) -> None:
        """Install (or, with ``None``, clear) a site's baseline.

        Used by collector restart recovery and by the ingest path's
        rollback when a durable commit fails after the decode advanced
        the baseline.
        """
        if tree is None:
            self._previous.pop(site, None)
        else:
            self._previous[site] = tree


def transfer_comparison(trees: Iterable[Flowtree]) -> Tuple[int, int]:
    """``(full_bytes, diff_bytes)`` for shipping a time-ordered list of summaries.

    Convenience used by the CLAIM-TRANSFER benchmark: the first summary is
    always shipped in full; subsequent ones as diffs where those are
    smaller.  The trees are only read (the encoder holds each one as its
    baseline by reference), never mutated.
    """
    trees = list(trees)
    full_total = sum(len(to_bytes(tree)) for tree in trees)
    encoder = DiffSyncEncoder(prefer_diff=True)
    diff_total = 0
    for tree in trees:
        diff_total += encoder.encode(tree).chosen_size
    return full_total, diff_total
