"""Query-side indexes over a Flowtree's kept nodes.

The update path (PR 1/PR 3) got its own index — the populated-level
ancestor probe and the token-space rebuild fold — but queries still walked
chains and whole node sets: an on-trajectory absent estimate swept an
ancestor's entire subtree with one containment test per member, an
off-trajectory estimate scanned every kept node, and ``children_of`` /
``drill_down`` re-scanned ``tree.items()`` per level.

This module supplies the missing query-side structure, a
:class:`QueryIndex` with two parts:

* a **per-level registry** — for every kept specificity vector, a dict
  from the node's token signature (one
  :meth:`~repro.features.base.Feature.mask_token` per feature — the PR 3
  token space) to the node.  Nearest-kept-ancestor lookups become a few
  integer-mask probes, deepest level first, with no
  :class:`~repro.core.key.FlowKey` construction at all.
* **per-level projections** — for a query level ``vec``, a dict from the
  projected token signature to every kept node beneath that projection.
  Absent-key descendant sums and ``children_of`` bucketing become one hash
  lookup instead of a containment sweep; levels are materialized lazily on
  first use and maintained incrementally afterwards.

The index is lazy: it costs nothing until the first query *or the first
incremental compaction* touches it (every maintenance hook is an O(1)
no-op while the index is cold).  The registry is shared with the update
path — both compactors work in the same token space
(:mod:`repro.core.compaction`): the incremental rounds build it on entry
and probe it instead of constructing ancestor keys, and the rebuild
compactor drops the index wholesale and re-primes the registry from its
survivors.  Either way the first query after a compaction finds it warm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.key import FlowKey
from repro.core.node import FlowtreeNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.flowtree import Flowtree

#: Token signature of a key at some specificity vector.
Signature = Tuple[object, ...]

#: Batch-scoped ancestor memo: ``(probe plan index, signature)`` -> result
#: of completing the probe walk from that level (see ``nearest_ancestor``).
ProbeMemo = Dict[Tuple[int, Signature], FlowtreeNode]

#: At most this many query levels keep a materialized projection; beyond
#: it the oldest materialized level is dropped (it rebuilds lazily if the
#: workload comes back to it).  Real drill-down sessions touch a handful
#: of levels; the cap only guards against adversarial query streams.
MAX_MATERIALIZED_LEVELS = 64


def signature_at(key: FlowKey, vec: Tuple[int, ...]) -> Signature:
    """Token signature of ``key`` projected onto specificity vector ``vec``.

    Two keys share a signature at ``vec`` exactly when their projections
    onto ``vec`` are the same generalized key (the
    :meth:`~repro.features.base.Feature.mask_token` contract), so
    signatures stand in for projected keys without constructing them.
    """
    return tuple(
        feature.mask_token(spec) for feature, spec in zip(key.features, vec)
    )


def covers(general: Tuple[int, ...], specific: Tuple[int, ...]) -> bool:
    """``True`` when ``specific`` is component-wise at least ``general``.

    Keys at vector ``specific`` can be projected onto level ``general``;
    containment between two keys implies this relation between their
    specificity vectors (feature hierarchies only deepen).
    """
    for g, s in zip(general, specific):
        if s < g:
            return False
    return True


class QueryIndex:
    """Incrementally-maintained query-side index of one Flowtree.

    Lifecycle: the index starts *cold* (nothing built, hooks are no-ops).
    The first query call — or the first incremental compaction, via
    :meth:`registry` — builds the per-level registry in one O(n) pass;
    from then on :meth:`node_added` / :meth:`node_removed` keep the
    registry — and any materialized projections — in sync per mutation.
    :meth:`invalidate` (bulk rewrites: rebuild compaction, deserialization
    into an existing tree) drops everything back to cold.
    """

    def __init__(self, tree: "Flowtree") -> None:
        self._tree = tree
        #: Whether the registry is built and the hooks are live (read-only).
        self.warm = False
        # kept specificity vector -> own-level token signature -> node
        self._by_vec: Dict[Tuple[int, ...], Dict[Signature, FlowtreeNode]] = {}
        # kept levels sorted by descending total specificity (ancestor probes)
        self._levels_desc: Optional[List[Tuple[int, Tuple[int, ...]]]] = None
        # query level -> projected signature -> {kept key -> node}
        self._projections: Dict[
            Tuple[int, ...], Dict[Signature, Dict[FlowKey, FlowtreeNode]]
        ] = {}
        # query vector -> ancestor probe plan (see _probe_plan); cleared
        # whenever the set of kept levels changes.
        self._plans: Dict[Tuple[int, ...], Tuple[List[tuple], bool]] = {}

    # -- maintenance hooks (called by Flowtree on every structural change) --

    def invalidate(self) -> None:
        """Drop all index state (next query rebuilds lazily)."""
        self.warm = False
        self._by_vec = {}
        self._levels_desc = None
        self._projections = {}
        self._plans = {}

    def prime(
        self, by_vec: Dict[Tuple[int, ...], Dict[Signature, FlowtreeNode]]
    ) -> None:
        """Adopt a pre-built per-level registry, skipping the cold O(n) pass.

        Bulk rebuild already walks every survivor once to re-insert it; the
        per-level registry it accumulates along the way is exactly what
        :meth:`_ensure` would recompute from scratch on the first query
        after the rebuild.  Handing it over here makes the projection index
        a *by-product* of the rebuild: the index comes up :attr:`warm`
        and the maintenance hooks take over immediately.

        The caller owns the contract that ``by_vec`` covers every node in
        the tree (including the root) with own-level signatures — the same
        shape :meth:`_ensure` builds.
        """
        self._by_vec = by_vec
        self._levels_desc = None
        self._projections = {}
        self._plans = {}
        self.warm = True

    def node_added(self, node: FlowtreeNode) -> None:
        """Register a newly kept node (O(1) no-op while the index is cold)."""
        if not self.warm:
            return
        key = node.key
        vec = key.specificity_vector
        bucket = self._by_vec.get(vec)
        if bucket is None:
            self._by_vec[vec] = bucket = {}
            self._levels_desc = None
            self._plans = {}
        bucket[signature_at(key, vec)] = node
        for pvec, projection in self._projections.items():
            if covers(pvec, vec):
                projection.setdefault(signature_at(key, pvec), {})[key] = node

    def node_removed(self, node: FlowtreeNode) -> None:
        """Unregister a removed node (O(1) no-op while the index is cold)."""
        if not self.warm:
            return
        key = node.key
        vec = key.specificity_vector
        bucket = self._by_vec.get(vec)
        if bucket is not None:
            bucket.pop(signature_at(key, vec), None)
            if not bucket:
                del self._by_vec[vec]
                self._levels_desc = None
                self._plans = {}
        for pvec, projection in self._projections.items():
            if covers(pvec, vec):
                members = projection.get(signature_at(key, pvec))
                if members is not None:
                    members.pop(key, None)

    # -- lazy construction ---------------------------------------------------

    def registry(self) -> Dict[Tuple[int, ...], Dict[Signature, FlowtreeNode]]:
        """The live per-level registry ``vec -> signature -> node`` (built if cold).

        This is the update path's view of the index: the incremental
        compactor asks "is the aggregate at ``(vec, sig)`` kept?" here
        instead of building the key to look it up.  The hooks mutate the
        returned dict in place and :meth:`node_removed` deletes emptied
        buckets, so probe ``registry.get(vec)`` afresh each time rather
        than holding a bucket across a structural change.
        """
        self._ensure()
        return self._by_vec

    def _ensure(self) -> None:
        if self.warm:
            return
        by_vec: Dict[Tuple[int, ...], Dict[Signature, FlowtreeNode]] = {}
        for node in self._tree._nodes.values():
            key = node.key
            vec = key.specificity_vector
            by_vec.setdefault(vec, {})[signature_at(key, vec)] = node
        self._by_vec = by_vec
        self._levels_desc = None
        self._projections = {}
        self._plans = {}
        self.warm = True

    def _levels(self) -> List[Tuple[int, Tuple[int, ...]]]:
        levels = self._levels_desc
        if levels is None:
            levels = sorted(
                ((sum(vec), vec) for vec in self._by_vec), reverse=True
            )
            self._levels_desc = levels
        return levels

    def _projection(
        self, vec: Tuple[int, ...]
    ) -> Dict[Signature, Dict[FlowKey, FlowtreeNode]]:
        """Materialize (or fetch) the projection of all kept nodes onto ``vec``."""
        self._ensure()
        projection = self._projections.get(vec)
        if projection is not None:
            return projection
        projection = {}
        for node_vec, bucket in self._by_vec.items():
            if not covers(vec, node_vec):
                continue
            for node in bucket.values():
                key = node.key
                projection.setdefault(signature_at(key, vec), {})[key] = node
        while len(self._projections) >= MAX_MATERIALIZED_LEVELS:
            self._projections.pop(next(iter(self._projections)))
        self._projections[vec] = projection
        return projection

    # -- queries ---------------------------------------------------------------

    def contained_nodes(self, key: FlowKey) -> List[FlowtreeNode]:
        """Every kept node strictly contained in ``key`` (hash lookup).

        One bucket probe of the projection at ``key``'s own level: a kept
        node is contained in ``key`` exactly when its projection onto that
        level *is* ``key``, i.e. when the token signatures agree.
        """
        vec = key.specificity_vector
        members = self._projection(vec).get(signature_at(key, vec))
        if not members:
            return []
        return [node for node in members.values() if node.key != key]

    def _probe_plan(self, vec: Tuple[int, ...]) -> Tuple[List[tuple], bool]:
        """Ancestor probe plan for query vector ``vec``: ``(entries, nested)``.

        One entry per kept level strictly below ``vec`` (deepest first):
        ``(depth, level, bucket, changes)`` where ``changes`` lists the
        ``(feature index, target specificity)`` components that differ
        from the previous plan entry — a probe refines the previous
        signature in place instead of recomputing every token, so a whole
        probe sequence costs about one token per *changed* component.
        ``bucket`` is the level's live registry dict (plans are dropped
        whenever the set of kept levels changes, so the reference can
        never go stale).

        ``nested`` is ``True`` when the plan levels form a chain under
        component-wise containment (always the case for trees whose kept
        keys all sit on the policy trajectory).  Then every coarser
        signature is a pure function of the first (deepest) one, so the
        whole probe outcome is determined by that first signature — which
        is what lets batch callers memoize ancestors per deep signature.
        """
        plan = self._plans.get(vec)
        if plan is not None:
            return plan
        entries: List[tuple] = []
        nested = True
        previous: Optional[Tuple[int, ...]] = None
        for depth, level in self._levels():
            if level == vec or not covers(level, vec):
                continue
            if previous is None:
                changes: List[Tuple[int, int]] = list(enumerate(level))
            else:
                if not covers(level, previous):
                    nested = False
                changes = [
                    (i, spec)
                    for i, (spec, prev) in enumerate(zip(level, previous))
                    if spec != prev
                ]
            entries.append((depth, level, self._by_vec[level], changes))
            previous = level
        while len(self._plans) >= MAX_MATERIALIZED_LEVELS:
            self._plans.pop(next(iter(self._plans)))
        self._plans[vec] = (entries, nested)
        return entries, nested

    def nearest_ancestor(
        self,
        key: FlowKey,
        memo: Optional[ProbeMemo] = None,
    ) -> FlowtreeNode:
        """Most specific kept strict ancestor of ``key`` (root if none).

        Probes the kept levels below ``key``'s vector, deepest first, in
        token space — no key construction, and successive probes only
        re-mask the signature components that changed between levels.
        Kept ancestors of one key at comparable vectors are totally
        ordered by containment (feature hierarchies are trees), so "most
        specific" is unique for trajectory-consistent trees; incomparable
        off-trajectory ties are broken deterministically by wire form.

        ``memo`` (optional, for batch callers querying many keys against
        an unchanging tree) caches the walk's outcome per ``(level index,
        signature)`` — the *suffix* result of probing from that level
        down.  It is consulted only when the probe plan is *nested*: then
        every coarser signature is a function of the deeper one, so two
        keys that agree at any probed level share the entire remaining
        walk, and batch workloads collapse onto the few distinct coarse
        projections after one or two private probes.
        """
        self._ensure()
        features = key.features
        plan, nested = self._probe_plan(key.specificity_vector)
        if not plan:
            return self._tree.root
        live_memo = memo if nested else None
        root = self._tree.root
        last = len(plan) - 1
        best: Optional[FlowtreeNode] = None
        best_depth = -1
        sig: Optional[List[object]] = None
        visited: List[Tuple[int, Signature]] = []
        result: Optional[FlowtreeNode] = None
        for index, (depth, _level, bucket, changes) in enumerate(plan):
            if best is not None and depth < best_depth:
                break
            if sig is None:
                sig = [features[i].mask_token(spec) for i, spec in changes]
            else:
                for i, spec in changes:
                    sig[i] = features[i].mask_token(spec)
            # The all-wildcard root matches every key; skip the no-op probe.
            if index == last and depth == 0 and best is None:
                result = root
                break
            probe = tuple(sig)
            if live_memo is not None and best is None:
                cached = live_memo.get((index, probe))
                if cached is not None:
                    result = cached
                    break
                visited.append((index, probe))
            node = bucket.get(probe)
            if node is None:
                continue
            if best is None or depth > best_depth:
                best, best_depth = node, depth
            elif node.key.to_wire() < best.key.to_wire():
                best = node
        if result is None:
            result = best if best is not None else root
        if live_memo is not None:
            for entry in visited:
                live_memo[entry] = result
        return result
