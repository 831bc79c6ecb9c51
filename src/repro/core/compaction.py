"""Self-adjustment: folding unpopular nodes into coarser aggregates.

When a Flowtree exceeds its node budget the compactor selects the leaves
with the smallest complementary popularity and folds them *upward along
their canonical generalization chain*.  Victims are folded at the deepest
chain level where they either meet another victim or an aggregate that
already exists in the tree; this is how the intermediate summary nodes of
the paper's Fig. 2 (``1.1.1.0/24``-style aggregates with their own
complementary popularity) come into existence.  Victims that meet nothing
anywhere fold into their current tree parent, so every round is guaranteed
to shrink the tree.

Both compactors here work in one *token space* (see :func:`fold_levels`):
an entry is a ``(specificity vector, token signature)`` pair and a chain
step is one cached :meth:`~repro.core.policy.ChainBuilder.fold_step` plus
one :meth:`~repro.features.base.Feature.mask_raw`.  They share one registry
with the query side — :class:`~repro.core.query.QueryIndex`'s ``vec ->
signature -> node`` map — which the incremental rounds probe for "is this
aggregate kept?" and the rebuild hands over ready-made.  A
:class:`~repro.core.key.FlowKey` is built once per aggregate that is
created (incremental) or survives (rebuild), never per chain step.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.key import FlowKey
from repro.core.node import Counters, FlowtreeNode
from repro.core.policy import ChainBuilder
from repro.core.query import signature_at

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.flowtree import Flowtree

#: Overshoot, as a fraction of ``max_nodes``, past which the bulk rebuild
#: beats the incremental victim rounds.  Not a user option: the strategy is
#: chosen from what the tree observes.  Tests that need one strategy forced
#: patch this constant (``inf`` never rebuilds, ``0`` rebuilds on any excess).
REBUILD_OVERSHOOT = 0.5


def rebuild_pays_off(
    kept: int, incoming: int, limit: int, max_nodes: Optional[int]
) -> bool:
    """The one incremental-vs-rebuild decision.

    ``kept`` nodes sit in the tree, ``incoming`` distinct keys are about to
    join them (0 for a plain ``compact()``) and the result has to fit
    ``limit`` (``max_nodes`` while ingesting, the compaction target while
    compacting).  ``max(kept, incoming)`` is a conservative lower bound on
    the union: summing the two would count already-kept keys twice and
    trigger destructive rebuilds in the steady state of the paper-like
    regime, where each batch mostly re-covers the resident working set.
    Small overshoots stay with the incremental :class:`Compactor` (what the
    per-record path always ran); only the budget ≪ distinct-flows regime,
    where victim rounds degenerate, goes to the :class:`RebuildCompactor`.
    """
    if max_nodes is None:
        return False
    return max(kept, incoming) - limit > REBUILD_OVERSHOOT * max_nodes


class Compactor:
    """Implements the folding strategy configured by :class:`FlowtreeConfig`."""

    def __init__(self, config: FlowtreeConfig) -> None:
        self._config = config

    def compact(self, tree: "Flowtree", target_nodes: int) -> int:
        """Shrink ``tree`` to at most ``target_nodes`` nodes; return nodes removed."""
        removed_total = 0
        # Every processed round removes at least one node, so the loop
        # terminates; the guard protects against pathological configurations
        # (e.g. a tree that consists only of the root and protected nodes).
        max_rounds = 64
        for _ in range(max_rounds):
            excess = len(tree) - target_nodes
            if excess <= 0:
                break
            removed = self._compact_round(tree, excess)
            removed_total += removed
            if removed == 0:
                break
        return removed_total

    # -- one round -------------------------------------------------------------

    def _compact_round(self, tree: "Flowtree", excess: int) -> int:
        victims = self._select_victims(tree, excess)
        if not victims:
            return 0

        before = len(tree)
        nodes = tree._nodes
        # Kept aggregates are looked up as ``kept[vec][sig]`` in the query
        # index's registry (built here if cold, then kept coherent by the
        # node_added/node_removed hooks behind every structural change below).
        kept = tree._query_index.registry()
        fold_step = tree.chain_builder.fold_step
        maskers = tuple(spec.feature_type.mask_raw for spec in tree.schema.fields)
        # Victims climb their canonical chains in lock-step, in token space:
        # positions[i] is the ``(vec, sig)`` of victim i's current chain
        # ancestor, ``None`` once it has stepped onto the root.  A FlowKey is
        # built only for a fold target that has to be created.
        positions: List[Optional[Tuple[tuple, tuple]]] = [
            (victim.key.specificity_vector,
             signature_at(victim.key, victim.key.specificity_vector))
            for victim in victims
        ]
        remaining = set(range(len(victims)))

        while len(tree) > before - excess and remaining:
            groups: Dict[Tuple[tuple, tuple], List[int]] = {}
            progressed = False
            for index in sorted(remaining):
                position = positions[index]
                if position is None:
                    continue
                progressed = True
                vec, sig = position
                feature, target, parent_vec = fold_step(vec)
                if not any(parent_vec):
                    positions[index] = None
                    continue
                position = (
                    parent_vec,
                    sig[:feature]
                    + (maskers[feature](sig[feature], target),)
                    + sig[feature + 1:],
                )
                positions[index] = position
                groups.setdefault(position, []).append(index)
            if not progressed:
                break
            eligible = []
            missing = []
            for position, members in groups.items():
                vec, sig = position
                if sig in kept.get(vec, ()):
                    eligible.append((position, members))
                elif len(members) >= 2:
                    eligible.append((position, members))
                    missing.append((vec, sig, victims[members[0]].key))
            # Materialize every new fold target of this level in one sweep
            # (per-key insertion re-scans the parent's children each time,
            # which is quadratic when a level creates hundreds of targets).
            tree._bulk_create_aggregates(missing)
            for (vec, sig), members in eligible:
                bucket = kept.get(vec)
                target_node = bucket.get(sig) if bucket else None
                if target_node is None:
                    if len(members) < 2:
                        # The aggregate this singleton would have joined was
                        # itself a victim, folded earlier in the level;
                        # recreating it empty would not shrink the tree, so
                        # the victim keeps climbing instead.
                        continue
                    target_node = tree._get_or_create_node(
                        victims[members[0]].key.generalize_to_vector(vec)
                    )
                for index in members:
                    victim = victims[index]
                    remaining.discard(index)
                    if victim is target_node or victim.key not in nodes:
                        continue
                    target_node.counters.add(victim.counters)
                    target_node.invalidate_subtree_cache()
                    tree._remove_node(victim)

        # Whatever is left met nothing below the root: fold into the tree parent
        # (usually the root), which is the coarsest possible summary.
        shortfall = len(tree) - (before - excess)
        if shortfall > 0:
            for index in sorted(remaining):
                victim = victims[index]
                if victim.key not in nodes:
                    continue
                parent = victim.parent if victim.parent is not None else tree.root
                parent.counters.add(victim.counters)
                parent.invalidate_subtree_cache()
                tree._remove_node(victim)
                shortfall -= 1
                if shortfall <= 0:
                    break
        return before - len(tree)

    def _select_victims(self, tree: "Flowtree", excess: int) -> List[FlowtreeNode]:
        """Leaves with the smallest complementary popularity, cheapest first."""
        candidates = [
            node
            for node in tree._all_nodes()
            if node is not tree.root and node.is_leaf
        ]
        if self._config.protected_min_count > 0:
            unprotected = [
                node
                for node in candidates
                if node.counters.packets < self._config.protected_min_count
            ]
            # Protection is best-effort: if honouring it would leave the tree
            # over budget with nothing to evict, fall back to all leaves.
            if unprotected:
                candidates = unprotected
        if not candidates:
            return []
        candidates.sort(key=lambda node: (node.counters.packets, -node.key.specificity))
        batch = max(self._config.victim_batch, excess)
        return candidates[:batch]


class RebuildCompactor:
    """Single-pass bulk rebuild for the budget ≪ distinct-flows regime.

    The incremental :class:`Compactor` is built for small overshoots: each
    round selects the cheapest leaves of a *tree* and folds them upward.
    When a batch brings in many times more distinct keys than ``max_nodes``
    can hold, that shape degenerates — the tree materializes (and then
    dismantles) the whole working set, and victim selection re-sorts it
    round after round.

    The rebuild path never materializes the working set as a tree.  It
    flattens the kept nodes plus the pending batch into one ``key ->
    counters`` map, buckets the entries by total specificity, and folds
    bottom-up along the canonical generalization chains, one lattice level
    at a time (Flowyager-style bulk construction): at every level the
    least-popular entries take one chain step up — where they meet sibling
    victims or existing aggregates and merge — until the survivor count
    fits the target.  Each level is sorted once, each entry is touched at
    most once per level it traverses, and the compacted tree is then
    constructed directly from the survivors, most general keys first, so no
    insert is ever undone.

    Semantics match the incremental strategy's contract, not its byte
    output: counters are conserved exactly, the node budget is enforced,
    and each level folds its least popular entries first — so every entry
    below ``protected_min_count`` goes before any entry at or above it,
    with the budget taking precedence (the end state incremental's rounds
    converge to) — but the surviving aggregate set may differ (the
    equivalence bound is pinned by ``tests/test_compaction_rebuild``).

    What survives when the budget fills at full specificity — a flood into
    a tree without coarse aggregates, such as flowbench's ``churn-flood``:
    the first level's survivors fill the budget, so the rebuild keeps the
    ``target_nodes - 1`` heaviest full-specificity entries and charges
    everything else to the root; no aggregate survives.  On
    ``churn-flood`` (seed 1) that is 408 survivors per bin, all at depth
    96, and 84.5 % of the packets in the root.  This is a stated limit of
    the fold, not a goal.
    """

    def rebuild(
        self,
        tree: "Flowtree",
        items: Sequence[tuple],
        target_nodes: int,
        pending: Optional[Dict[object, list]] = None,
    ) -> int:
        """Fold ``tree`` plus a pending batch down to ``target_nodes`` nodes.

        The batch arrives either as ``items`` — ``(key, packets, bytes,
        flows)`` tuples, the :meth:`~repro.core.flowtree.Flowtree.add_aggregated`
        shape — or as ``pending``, the raw pre-aggregation dict produced by
        :func:`~repro.core.flowtree.preaggregate_records` (``signature ->
        [packets, bytes, flows, sample record]``).  The ``pending`` form is
        the fast path: a record's signature *is* its full-specificity token
        tuple, so batch keys that will not survive the fold never become
        :class:`~repro.core.key.FlowKey` objects at all.

        Returns the number of entries folded away.  The tree is left
        compacted, valid and queryable; its root absorbs everything that
        folds past the last interior level.
        """
        levels, before = flatten_levels(tree, items, pending)
        survivors, folded = fold_levels(
            levels,
            before,
            tree.root.counters,
            target_nodes,
            tree.schema,
            tree.chain_builder,
        )
        tree._rebuild_from_entries(survivors)
        return folded


def flatten_levels(
    tree: "Flowtree",
    items: Sequence[tuple],
    pending: Optional[Dict[object, list]] = None,
) -> Tuple[Dict[int, Dict[tuple, Dict[tuple, list]]], int]:
    """Flatten kept nodes plus a batch into the fold's level buckets.

    Returns ``(levels, before)`` where ``levels`` maps ``depth ->
    specificity vector -> token signature -> entry``; an entry is the
    mutable list ``[packets, bytes, flows, representative]`` and the
    representative (a key or a raw record) exists only to materialize the
    survivor's FlowKey at the end.  Root-keyed batch items are charged to
    the tree's root counters directly.  The result is pure token-space
    data (plus picklable representatives).
    """
    schema = tree.schema
    max_spec = tree.chain_builder.max_specificity
    max_depth = sum(max_spec)
    root_counters = tree.root.counters
    # Root-keyed batch items mutate the root counters below; the flatten is
    # always followed by a rebuild, so dropping the root's cached aggregate
    # here is both coherent and free.
    tree.root.subtree_cache = None
    levels: Dict[int, Dict[tuple, Dict[tuple, list]]] = defaultdict(dict)
    before = 0
    for node in tree._all_nodes():
        if node is tree.root:
            continue
        key = node.key
        vec = key.specificity_vector
        sig = tuple(
            feature.mask_token(spec) for feature, spec in zip(key.features, vec)
        )
        counters = node.counters
        levels[sum(vec)].setdefault(vec, {})[sig] = [
            counters.packets, counters.bytes, counters.flows, key,
        ]
        before += 1
    full_bucket = levels[max_depth].setdefault(max_spec, {})
    if pending:
        wrap = len(schema) == 1
        for signature, entry in pending.items():
            sig = (signature,) if wrap else signature
            existing = full_bucket.get(sig)
            if existing is None:
                full_bucket[sig] = entry
                before += 1
            else:
                existing[0] += entry[0]
                existing[1] += entry[1]
                existing[2] += entry[2]
    for key, packets, byte_count, flows in items:
        if key.is_root:
            root_counters.packets += packets
            root_counters.bytes += byte_count
            root_counters.flows += flows
            continue
        vec = key.specificity_vector
        sig = tuple(
            feature.mask_token(spec) for feature, spec in zip(key.features, vec)
        )
        bucket = (
            full_bucket if vec == max_spec
            else levels[sum(vec)].setdefault(vec, {})
        )
        existing = bucket.get(sig)
        if existing is None:
            bucket[sig] = [packets, byte_count, flows, key]
            before += 1
        else:
            existing[0] += packets
            existing[1] += byte_count
            existing[2] += flows
    return levels, before


def fold_levels(
    levels: Dict[int, Dict[tuple, Dict[tuple, list]]],
    before: int,
    root_counters: Counters,
    target_nodes: int,
    schema,
    chain_builder: ChainBuilder,
) -> tuple:
    """Level-by-level bottom-up fold; returns ``(survivors, folded)``.

    ``survivors`` is a list of ``(key, [packets, bytes, flows, ...],
    signature)`` triples sorted by ascending specificity, so ancestors
    always precede the keys they contain — the ordering the tree
    reconstruction relies on.  The signature is the key's own-level token
    signature, carried along so the reconstruction can prime the query
    index without recomputing it.

    The fold itself never constructs :class:`FlowKey` objects.  Every
    entry is represented by ``(specificity vector, token signature)``
    where the signature holds one :meth:`~repro.features.base.Feature.mask_token`
    per feature; a fold step changes exactly one vector component and
    one token (a masked-integer :meth:`~repro.features.base.Feature.mask_raw`
    call), and two entries denote the same generalized key exactly when
    vector and signature agree.  Keys are materialized once per
    *survivor* — at most ``target_nodes`` of them — from the entry's
    retained representative.

    Once a level's survivors fill the budget with nothing waiting at a
    shallower depth, that level's victims are charged to the root without
    a single chain step: they would climb every remaining level and end
    there anyway.  Under a flood into a tree without coarse aggregates
    this is the first level processed, and the fold steps nothing.

    This is a pure function of its arguments (``levels`` and
    ``root_counters`` are mutated, nothing else is touched): the same
    flattened levels always take exactly the same victim-selection and
    fold steps.
    """
    budget = max(0, target_nodes - 1)   # the root is kept implicitly
    maskers = tuple(spec.feature_type.mask_raw for spec in schema.fields)
    fold_step = chain_builder.fold_step
    parent_cache: Dict[tuple, tuple] = {}
    total = before
    final = 0   # entries kept at the depths already processed
    for depth in range(max(levels, default=0), 0, -1):
        if total <= budget:
            break
        at_depth = levels.get(depth)
        if not at_depth:
            continue
        count_here = sum(len(bucket) for bucket in at_depth.values())
        # Depths above ``depth`` are final; depths below may still fold,
        # but they get their full reservation — a shallow aggregate
        # summarizes strictly more key space than anything at this level.
        keep = max(0, budget - (total - count_here))
        need = count_here - keep
        if need <= 0:
            continue
        # Victims are the least popular entries; ``sorted`` is stable, so
        # ties fold in bucket order.  Every entry below a protection
        # threshold is cheaper than every entry at or above it, so the
        # unprotected ones always fold first.
        victims = sorted(
            (
                (entry, vec, sig)
                for vec, bucket in at_depth.items()
                for sig, entry in bucket.items()
            ),
            key=lambda item: item[0][0],
        )[:need]
        if total - count_here == final:
            # Nothing waits at a shallower depth: this level's survivors
            # fill the budget, every later level keeps nothing, and each
            # victim would climb its whole chain into the root.  Charge it
            # there directly; integer sums do not depend on the order.
            for entry, vec, sig in victims:
                del at_depth[vec][sig]
                root_counters.packets += entry[0]
                root_counters.bytes += entry[1]
                root_counters.flows += entry[2]
            break
        final += keep
        for entry, vec, sig in victims:
            del at_depth[vec][sig]
            total -= 1
            step = parent_cache.get(vec)
            if step is None:
                index, target, parent_vec = fold_step(vec)
                step = (index, target, parent_vec, sum(parent_vec))
                parent_cache[vec] = step
            index, target, parent_vec, parent_depth = step
            if parent_depth == 0:
                root_counters.packets += entry[0]
                root_counters.bytes += entry[1]
                root_counters.flows += entry[2]
                continue
            parent_sig = (
                sig[:index] + (maskers[index](sig[index], target),) + sig[index + 1:]
            )
            parent_bucket = levels[parent_depth].setdefault(parent_vec, {})
            existing = parent_bucket.get(parent_sig)
            if existing is None:
                parent_bucket[parent_sig] = entry
                total += 1
            else:
                existing[0] += entry[0]
                existing[1] += entry[1]
                existing[2] += entry[2]

    survivors: List[tuple] = []
    for depth in sorted(levels):
        for vec, bucket in levels[depth].items():
            for sig, entry in bucket.items():
                representative = entry[3]
                if not isinstance(representative, FlowKey):
                    representative = FlowKey.from_record(schema, representative)
                if representative.specificity_vector == vec:
                    survivors.append((representative, entry, sig))
                else:
                    survivors.append(
                        (representative.generalize_to_vector(vec), entry, sig)
                    )
    return survivors, before - len(survivors)
