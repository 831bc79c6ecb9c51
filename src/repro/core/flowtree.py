"""The Flowtree data structure.

A Flowtree is a bounded-size, self-adjusting summary of a stream of flows or
packets.  It keeps popular generalized flows as explicit nodes, stores only
*complementary* popularity per node, folds unpopular nodes into coarser
aggregates when the node budget is exceeded, and supports the paper's three
operators: ``query``, ``merge`` and ``diff``.

Update path (paper Sec. 2): when a flow arrives we look up its fully
specific key; if present we increment its counters, otherwise we walk the
canonical generalization chain to the *longest matching ancestor* already in
the tree and insert the new node directly below it.  No statistics are
aggregated upward during updates, which keeps updates amortized O(1);
queries pay the aggregation cost instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.compaction import Compactor, RebuildCompactor, rebuild_pays_off
from repro.core.config import FlowtreeConfig
from repro.core.errors import QueryError, SchemaMismatchError
from repro.core.key import FlowKey
from repro.core.node import Counters, FlowtreeNode
from repro.core.policy import ChainBuilder, GeneralizationPolicy, get_policy
from repro.core.query import QueryIndex, covers, signature_at
from repro.features.schema import FlowSchema


#: Records pre-aggregated per ingestion batch when callers don't choose;
#: shared by :meth:`Flowtree.add_batch` and the distributed daemon so the
#: two paths can't drift apart.
DEFAULT_BATCH_SIZE = 16_384

#: :meth:`Flowtree.merge_many` switches from pairwise merges to the
#: token-space bulk fold at this many input summaries — below it the
#: per-key path's constant factors win.
MERGE_FOLD_MIN_TREES = 4


def preaggregate_records(records, signature_of, count_bytes: bool) -> Dict[object, list]:
    """Group records by key signature into ``[packets, bytes, flows, sample]``.

    The flat-dict phase of :meth:`Flowtree.add_batch`: one counter merge
    per record, one sample record kept per distinct signature so the caller
    can build the :class:`~repro.core.key.FlowKey` once.
    """
    pending: Dict[object, list] = {}
    for record in records:
        signature = signature_of(record)
        entry = pending.get(signature)
        if entry is None:
            pending[signature] = [
                getattr(record, "packets", 1),
                getattr(record, "bytes", 0) if count_bytes else 0,
                1,
                record,
            ]
        else:
            entry[0] += getattr(record, "packets", 1)
            if count_bytes:
                entry[1] += getattr(record, "bytes", 0)
            entry[2] += 1
    return pending


@dataclass
class UpdateStats:
    """Bookkeeping about the work a Flowtree has done (exposed read-only)."""

    updates: int = 0
    inserts: int = 0
    chain_steps: int = 0
    compactions: int = 0
    folded_nodes: int = 0
    merged_trees: int = 0
    rebuilds: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy for reports and tests."""
        return {
            "updates": self.updates,
            "inserts": self.inserts,
            "chain_steps": self.chain_steps,
            "compactions": self.compactions,
            "folded_nodes": self.folded_nodes,
            "merged_trees": self.merged_trees,
            "rebuilds": self.rebuilds,
        }


class Estimate:
    """Result of a popularity query (treat as immutable).

    A plain ``__slots__`` class rather than a dataclass: batch queries
    construct one per key, and the slimmer constructor is measurable on
    the ``estimate_many`` hot path.

    Attributes:
        key: the queried key.
        counters: estimated popularity (packets / bytes / flows).
        exact_node: ``True`` when the key itself is a kept node, so the
            estimate contains no proportional component.
        from_descendants: portion of the estimate contributed by kept
            descendants of the key.
        from_ancestor: proportional share attributed from the nearest kept
            ancestor's complementary popularity (zero for exact nodes).
    """

    __slots__ = ("key", "counters", "exact_node", "from_descendants", "from_ancestor")

    def __init__(
        self,
        key: FlowKey,
        counters: Counters,
        exact_node: bool,
        from_descendants: Optional[Counters] = None,
        from_ancestor: Optional[Counters] = None,
    ) -> None:
        self.key = key
        self.counters = counters
        self.exact_node = exact_node
        self.from_descendants = (
            from_descendants if from_descendants is not None else Counters()
        )
        self.from_ancestor = (
            from_ancestor if from_ancestor is not None else Counters()
        )

    def value(self, metric: str = "packets") -> int:
        """Shortcut for ``counters.weight(metric)``."""
        return self.counters.weight(metric)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Estimate)
            and self.key == other.key
            and self.counters == other.counters
            and self.exact_node == other.exact_node
            and self.from_descendants == other.from_descendants
            and self.from_ancestor == other.from_ancestor
        )

    def __repr__(self) -> str:
        return (
            f"Estimate(key={self.key!r}, counters={self.counters!r}, "
            f"exact_node={self.exact_node}, "
            f"from_descendants={self.from_descendants!r}, "
            f"from_ancestor={self.from_ancestor!r})"
        )


class Flowtree:
    """Self-adjusting summary of hierarchical flows (the paper's contribution).

    Args:
        schema: which features make up the flow key (1-, 2-, 4- or
            5-feature schemas are provided in :mod:`repro.features.schema`).
        config: node budget and self-adjustment knobs; defaults to the
            paper's evaluation configuration shape (40 k nodes, round-robin
            generalization).

    Example::

        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=40_000))
        for record in trace:
            tree.add_record(record)
        estimate = tree.estimate(FlowKey.from_wire(SCHEMA_4F, ("1.1.1.0/24", "*", "*", "*")))
    """

    def __init__(self, schema: FlowSchema, config: Optional[FlowtreeConfig] = None) -> None:
        self._schema = schema
        self._config = config or FlowtreeConfig()
        self._policy: GeneralizationPolicy = get_policy(self._config.policy)
        self._chain = ChainBuilder.for_schema(
            schema,
            self._policy,
            ip_stride=self._config.ip_stride,
            port_stride=self._config.port_stride,
        )
        self._max_spec = self._chain.max_specificity
        self._trajectory_order = self._chain.trajectory()

        root_key = FlowKey.root(schema)
        self._root = FlowtreeNode(root_key)
        self._nodes: Dict[FlowKey, FlowtreeNode] = {root_key: self._root}
        self._stats = UpdateStats()
        self._compactor = Compactor(self._config)
        self._rebuilder = RebuildCompactor()
        # Whether raw record signatures double as full-specificity token
        # tuples for every field — the precondition of the rebuild
        # compactor's key-construction-free batch path (see
        # Feature.raw_signature_tokens).
        self._raw_token_schema = all(
            spec.feature_type.raw_signature_tokens for spec in schema.fields
        )
        self._root_spec = self._trajectory_order[-1]
        self._traj_index = {vec: i for i, vec in enumerate(self._trajectory_order)}
        # Interior-level index: how many kept nodes sit at each trajectory
        # specificity vector below full specificity.  Maintained by
        # _insert_under/_remove_node, it lets ancestor lookups probe only the
        # populated generalization levels instead of walking whole chains.
        self._interior_levels: Dict[Tuple[int, ...], int] = {self._root_spec: 1}
        self._populated_levels: List[Tuple[int, Tuple[int, ...]]] = [
            (len(self._trajectory_order) - 1, self._root_spec)
        ]
        # Query-side index (per-level token registry + lazy projections).
        # Cold until the first query or the first incremental compaction
        # touches it; every maintenance hook below is an O(1) no-op before
        # that, so ingestion into a tree under budget pays nothing.
        self._query_index = QueryIndex(self)

    # -- basic properties -----------------------------------------------------

    @property
    def schema(self) -> FlowSchema:
        """The flow schema this tree summarizes."""
        return self._schema

    @property
    def config(self) -> FlowtreeConfig:
        """The configuration the tree was built with."""
        return self._config

    @property
    def policy(self) -> GeneralizationPolicy:
        """The generalization policy defining canonical parents."""
        return self._policy

    @property
    def chain_builder(self) -> ChainBuilder:
        """The canonical-chain builder (policy + generalization levels)."""
        return self._chain

    @property
    def root(self) -> FlowtreeNode:
        """The all-wildcard root node (always present)."""
        return self._root

    @property
    def stats(self) -> UpdateStats:
        """Work counters (updates, inserts, compactions, ...)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._nodes

    def node_count(self) -> int:
        """Number of kept nodes, including the root."""
        return len(self._nodes)

    def keys(self) -> Iterator[FlowKey]:
        """Iterate over all kept keys (order unspecified)."""
        return iter(self._nodes.keys())

    def items(self) -> Iterator[Tuple[FlowKey, Counters]]:
        """Iterate over ``(key, complementary counters)`` pairs."""
        for key, node in self._nodes.items():
            yield key, node.counters

    def complementary_counters(self, key: FlowKey) -> Optional[Counters]:
        """Complementary popularity stored at ``key`` (``None`` if absent)."""
        node = self._nodes.get(key)
        return node.counters.copy() if node is not None else None

    def total_counters(self) -> Counters:
        """Total traffic summarized (sum of all complementary counters).

        Equals the root's subtree aggregate (every kept node is reachable
        from the root), so this is O(1) once the caches are warm.
        """
        return self._root.subtree_total().copy()

    # -- update path ----------------------------------------------------------

    def add(
        self,
        key: FlowKey,
        packets: int = 1,
        bytes: int = 0,
        flows: int = 1,
    ) -> None:
        """Charge ``packets``/``bytes``/``flows`` to ``key``.

        ``key`` is usually a fully specific flow key, but partially
        generalized keys are accepted (they must come from the same policy
        trajectory for the structural invariants to hold; arbitrary keys
        still work, they are simply inserted below their longest matching
        chain ancestor).
        """
        self._stats.updates += 1
        node = self._nodes.get(key)
        if node is None:
            ancestor = self._longest_matching_ancestor(key)
            node = self._insert_under(key, ancestor)
        node.counters.packets += packets
        node.counters.bytes += bytes
        node.counters.flows += flows
        node.updated_seq = self._stats.updates
        node.invalidate_subtree_cache()
        self._maybe_compact()

    def add_record(self, record: object) -> None:
        """Charge one flow/packet record (duck-typed, see :mod:`repro.flows.records`)."""
        key = FlowKey.from_record(self._schema, record)
        packets = getattr(record, "packets", 1)
        record_bytes = getattr(record, "bytes", 0) if self._config.count_bytes else 0
        self.add(key, packets=packets, bytes=record_bytes, flows=1)

    def add_records(self, records: Iterable[object]) -> int:
        """Charge every record of an iterable; returns the number consumed."""
        count = 0
        for record in records:
            self.add_record(record)
            count += 1
        return count

    def add_batch(self, records: Iterable[object], batch_size: int = DEFAULT_BATCH_SIZE) -> int:
        """Batched ingestion fast path; returns the number of records consumed.

        Produces exactly the counters a :meth:`add_record` loop over the
        same records would, but does the work per *distinct* key instead of
        per record:

        1. records are pre-aggregated by their raw-attribute signature
           (:meth:`~repro.features.schema.FlowSchema.signature_of`) in a
           flat dict — one counter merge per record, no ``FlowKey``
           construction,
        2. at most one :class:`FlowKey` is built per distinct signature and
           the keys are applied in first-seen order by a single
           :meth:`add_aggregated` pass, and
        3. compaction is amortized: instead of a check per record, it runs
           at batch boundaries and whenever a batch overshoots the node
           budget by more than one victim-batch-sized margin.

        ``batch_size`` bounds how many records are pre-aggregated before
        the tree is touched, which keeps memory bounded on arbitrarily long
        iterables (pass ``0`` to aggregate everything in one batch).

        With compaction disabled the result is byte-identical to the
        per-record loop; with a node budget, compaction fires at slightly
        different points in the stream, so the two paths may fold different
        victims (same totals, slightly different aggregates).
        """
        iterator = iter(records)
        consumed = 0
        while True:
            if batch_size and batch_size > 0:
                chunk = list(islice(iterator, batch_size))
            else:
                chunk = list(iterator)
            if not chunk:
                break
            self._add_chunk(chunk)
            consumed += len(chunk)
        return consumed

    def _add_chunk(self, records: List[object]) -> None:
        """Pre-aggregate one bounded chunk and apply it in a single pass.

        The pre-aggregation dict goes to :meth:`add_aggregated` as-is, so
        when the chunk lands on the rebuild side of the dispatch no
        :class:`FlowKey` is built for keys that will not survive the fold.
        """
        pending = preaggregate_records(
            records, self._schema.signature_of, self._config.count_bytes
        )
        self.add_aggregated((), record_count=len(records), pending=pending)

    def add_aggregated(
        self,
        items: Iterable[Tuple[FlowKey, int, int, int]] = (),
        record_count: Optional[int] = None,
        pending: Optional[Dict[object, list]] = None,
    ) -> None:
        """Charge pre-aggregated ``(key, packets, bytes, flows)`` tuples.

        Equivalent to one :meth:`add` call per item except that compaction
        is checked once at the end instead of once per item.  ``record_count``
        is how many raw records the batch summarizes (defaults to the number
        of distinct keys) and is what :attr:`stats` ``updates`` advances by,
        so the counter keeps meaning "records charged" on the batched path
        too.  ``pending`` carries (more of) the batch in its raw form — the
        dict :func:`preaggregate_records` returns — which is how
        :meth:`add_batch` hands its chunks over: their keys are built only
        if the batch is actually inserted.

        Ancestor resolution goes through the populated-level index (see
        :meth:`_longest_matching_ancestor`): because the index is maintained
        incrementally, every new key costs a few dict probes — one per
        populated generalization level — rather than a full canonical chain
        walk, and keys sharing a chain prefix share the cached level state.

        Compaction strategy: when the batch overshoots the budget far
        enough (:func:`~repro.core.compaction.rebuild_pays_off`), it is
        *not* inserted at all — the
        :class:`~repro.core.compaction.RebuildCompactor` folds the kept
        nodes plus the batch straight down to the compaction target in one
        bottom-up pass, working on raw record signatures where the schema
        allows (:attr:`~repro.features.base.Feature.raw_signature_tokens`).
        Otherwise the incremental pass below runs.  The decision needs the
        batch size, so with a node budget any iterable is materialized
        first: the same items give the same tree whatever their container.
        """
        nodes = self._nodes
        stats = self._stats
        max_nodes = self._config.max_nodes
        rebuild = False
        if max_nodes is not None:
            if not isinstance(items, (list, tuple)):
                items = list(items)
            incoming = len(items) + (len(pending) if pending else 0)
            rebuild = rebuild_pays_off(len(nodes), incoming, max_nodes, max_nodes)
        if pending and not (rebuild and self._raw_token_schema):
            # The keys are needed after all: the incremental pass inserts
            # them, and signatures of a non-raw-token schema are not fold
            # tokens (key items are self-consistent for any feature type).
            schema = self._schema
            items = [
                *items,
                *(
                    (FlowKey.from_record(schema, entry[3]), entry[0], entry[1], entry[2])
                    for entry in pending.values()
                ),
            ]
            pending = None
        if rebuild:
            stats.updates += record_count if record_count is not None else incoming
            self._rebuild_apply(items, pending=pending)
            return
        if max_nodes is not None:
            # Let the batch overshoot the budget by one victim-batch-sized
            # margin before compacting mid-pass.  Compacting from a tree
            # that ballooned far past its budget degenerates (most leaves
            # become victims and fold pairwise), so overshoot is bounded at
            # roughly what the per-record path tolerates.
            overshoot_limit = max_nodes + max(self._config.victim_batch, max_nodes // 16)
        else:
            overshoot_limit = None
        touched: List[FlowtreeNode] = []
        applied = 0
        for key, packets, byte_count, flows in items:
            applied += 1
            node = nodes.get(key)
            inserted = node is None
            if inserted:
                node = self._insert_under(key, self._longest_matching_ancestor(key))
            counters = node.counters
            counters.packets += packets
            counters.bytes += byte_count
            counters.flows += flows
            node.invalidate_subtree_cache()
            touched.append(node)
            if inserted and overshoot_limit is not None and len(nodes) > overshoot_limit:
                self.compact()
        stats.updates += record_count if record_count is not None else applied
        seq = stats.updates
        for node in touched:
            node.updated_seq = seq
        self._maybe_compact()

    def _longest_matching_ancestor(self, key: FlowKey) -> FlowtreeNode:
        """First canonical-chain ancestor of ``key`` kept in the tree.

        For keys on the policy trajectory the chain elements are exactly the
        key's projections onto the trajectory levels below it, so only the
        *populated* levels (tracked incrementally by the interior-level
        index) need probing — usually one or two dict lookups instead of a
        full chain walk.  Off-trajectory keys fall back to the generic walk.
        """
        index = self._traj_index.get(key.specificity_vector)
        if index is None:
            for ancestor_key in self._chain.chain(key):
                self._stats.chain_steps += 1
                node = self._nodes.get(ancestor_key)
                if node is not None:
                    return node
            return self._root
        nodes = self._nodes
        root_spec = self._root_spec
        # Once the query index is warm its registry answers the same probe
        # from a token signature, without building the projected key.
        query_index = self._query_index
        kept = query_index.registry() if query_index.warm else None
        for level_index, vec in self._populated_levels:
            if level_index <= index:
                continue
            self._stats.chain_steps += 1
            if vec == root_spec:
                break
            if kept is not None:
                node = kept[vec].get(signature_at(key, vec))
            else:
                node = nodes.get(key.generalize_to_vector(vec))
            if node is not None:
                return node
        return self._root

    def _level_added(self, vec: Tuple[int, ...]) -> None:
        count = self._interior_levels.get(vec, 0)
        self._interior_levels[vec] = count + 1
        if count == 0:
            self._rebuild_populated_levels()

    def _level_removed(self, vec: Tuple[int, ...]) -> None:
        count = self._interior_levels.get(vec, 0) - 1
        if count <= 0:
            self._interior_levels.pop(vec, None)
            self._rebuild_populated_levels()
        else:
            self._interior_levels[vec] = count

    def _rebuild_populated_levels(self) -> None:
        traj_index = self._traj_index
        self._populated_levels = sorted(
            (traj_index[vec], vec) for vec in self._interior_levels
        )

    def _insert_under(self, key: FlowKey, ancestor: FlowtreeNode) -> FlowtreeNode:
        """Create a node for ``key`` below ``ancestor``, preserving containment.

        Children of ``ancestor`` that the new key contains are re-parented
        below the new node; this only ever happens for partially
        generalized keys (fully specific keys cannot contain anything),
        so the hot update path never pays for it.
        """
        node = FlowtreeNode(key, created_seq=self._stats.updates)
        vec = key.specificity_vector
        if vec != self._max_spec:
            to_reparent = [
                child for child in ancestor.children.values() if key.is_ancestor_of(child.key)
            ]
            for child in to_reparent:
                node.attach_child(child)
            if vec in self._traj_index:
                self._level_added(vec)
        ancestor.attach_child(node)
        self._nodes[key] = node
        self._stats.inserts += 1
        self._query_index.node_added(node)
        return node

    def _maybe_compact(self) -> None:
        if not self._config.compaction_enabled:
            return
        if len(self._nodes) <= self._config.max_nodes:
            return
        self.compact()

    def compact(self, target_nodes: Optional[int] = None) -> int:
        """Fold low-contribution nodes until the tree fits ``target_nodes``.

        Returns the number of nodes removed.  Public so callers can compact
        eagerly before serializing or shipping a summary.  A large enough
        excess over the target folds the whole tree in one bottom-up
        rebuild pass; otherwise the incremental victim rounds run, as the
        per-record update path always did.
        """
        if target_nodes is None:
            target_nodes = self._config.target_nodes
        if target_nodes is None:
            return 0
        before = len(self._nodes)
        if before <= target_nodes:
            return 0
        # The excess is measured against the actual compaction target; the
        # threshold still scales with max_nodes, which keeps the per-record
        # path's overshoot compactions incremental.
        if rebuild_pays_off(before, 0, target_nodes, self._config.max_nodes):
            self._rebuild_apply((), target_nodes=target_nodes)
            return before - len(self._nodes)
        removed = self._compactor.compact(self, target_nodes)
        if removed:
            self._stats.compactions += 1
            self._stats.folded_nodes += removed
        return removed

    def _rebuild_apply(
        self,
        items: Iterable[Tuple[FlowKey, int, int, int]],
        pending: Optional[Dict[object, list]] = None,
        target_nodes: Optional[int] = None,
    ) -> None:
        """Bulk-rebuild ingestion: fold the batch + kept nodes to the target.

        The batch arrives as ``items`` (key tuples) and/or ``pending`` (the
        raw pre-aggregation dict — see
        :meth:`~repro.core.compaction.RebuildCompactor.rebuild`).  The
        heavy lifting lives in the compactor; this wrapper owns the stats
        accounting so every entry point (``add_aggregated``, ``compact``
        and ``merge_many``) counts the work identically.  Callers advance
        ``stats.updates`` themselves.
        """
        if target_nodes is None:
            target_nodes = self._config.target_nodes or len(self._nodes)
        folded = self._rebuilder.rebuild(self, items, target_nodes, pending=pending)
        self._stats.rebuilds += 1
        if folded > 0:
            self._stats.compactions += 1
            self._stats.folded_nodes += folded

    def _rebuild_from_entries(
        self, survivors: List[Tuple[FlowKey, List[int], tuple]]
    ) -> None:
        """Replace the tree's contents with ``survivors`` (rebuild semantics).

        ``survivors`` must be sorted by ascending specificity so that every
        key's kept ancestors are inserted before it — then no insert ever
        needs the containment re-parenting scan of :meth:`_insert_under`,
        and the populated-level ancestor index answers each lookup in a few
        dict probes.  The root node object (and its counters, which the
        rebuild fold has already topped up) is preserved.

        Each survivor carries its own-level token signature (computed by
        the fold, which works entirely in signature space), so the pass
        that re-inserts the survivors also accumulates the per-level query
        registry and hands it to :meth:`QueryIndex.prime` — the first query
        after a rebuild no longer pays the cold O(n) index build.
        """
        old_nodes = self._nodes
        root = self._root
        root.children.clear()
        # Wholesale rewrite: drop the query index (re-primed below) and the
        # root's cached aggregate (its counters were topped up directly).
        self._query_index.invalidate()
        root.subtree_cache = None
        self._nodes = {root.key: root}
        self._interior_levels = {self._root_spec: 1}
        self._populated_levels = [
            (len(self._trajectory_order) - 1, self._root_spec)
        ]
        seq = self._stats.updates
        max_spec = self._max_spec
        traj_index = self._traj_index
        new_inserts = 0
        by_vec: Dict[Tuple[int, ...], Dict[tuple, FlowtreeNode]] = {
            self._root_spec: {signature_at(root.key, self._root_spec): root}
        }
        for key, counters, sig in survivors:
            ancestor = self._longest_matching_ancestor(key)
            node = FlowtreeNode(key, created_seq=seq)
            node.counters = Counters(counters[0], counters[1], counters[2])
            ancestor.attach_child(node)
            self._nodes[key] = node
            vec = key.specificity_vector
            by_vec.setdefault(vec, {})[sig] = node
            if vec != max_spec and vec in traj_index:
                self._level_added(vec)
            if key not in old_nodes:
                new_inserts += 1
        root.updated_seq = seq
        self._stats.inserts += new_inserts
        self._query_index.prime(by_vec)

    # -- internal hooks used by the compactor and the operators ----------------

    def _get_node(self, key: FlowKey) -> Optional[FlowtreeNode]:
        return self._nodes.get(key)

    def _all_nodes(self) -> List[FlowtreeNode]:
        return list(self._nodes.values())

    def _remove_node(self, node: FlowtreeNode) -> None:
        """Unlink ``node`` and hand its children to its parent (root never removed)."""
        if node is self._root:
            raise QueryError("the root node cannot be removed")
        parent = node.parent if node.parent is not None else self._root
        for child in list(node.children.values()):
            parent.attach_child(child)
        node.detach()
        del self._nodes[node.key]
        self._query_index.node_removed(node)
        vec = node.key.specificity_vector
        if vec != self._max_spec and vec in self._traj_index:
            self._level_removed(vec)

    def _get_or_create_node(self, key: FlowKey) -> FlowtreeNode:
        node = self._nodes.get(key)
        if node is None:
            ancestor = self._longest_matching_ancestor(key)
            node = self._insert_under(key, ancestor)
        return node

    def _bulk_create_aggregates(
        self, targets: Iterable[Tuple[Tuple[int, ...], tuple, FlowKey]]
    ) -> None:
        """Create several missing aggregates in one containment sweep.

        Each target is ``(vec, sig, descendant key)``: the aggregate's
        specificity vector and token signature (how the compactor knows it)
        plus any key beneath it, from which the aggregate's own key is
        projected — the only key built per target.

        :meth:`_insert_under` re-scans the ancestor's entire child list per
        inserted key; when compaction materializes hundreds of aggregates
        under the same few parents that is quadratic.  Here all targets are
        attached first, then each affected parent's children are swept
        once: a child belongs under a new aggregate exactly when its
        signature at the aggregate's specificity vector *is* the
        aggregate's (containment in a per-feature hierarchy), so the sweep
        costs one signature per child and candidate level instead of one
        containment test per (child, new aggregate) pair.
        """
        created: Dict[Tuple[Tuple[int, ...], tuple], FlowtreeNode] = {}
        parents: List[FlowtreeNode] = []
        seq = self._stats.updates
        for vec, sig, descendant in targets:
            key = descendant.generalize_to_vector(vec)
            ancestor = self._longest_matching_ancestor(key)
            node = FlowtreeNode(key, created_seq=seq)
            ancestor.attach_child(node)
            self._nodes[key] = node
            self._stats.inserts += 1
            if vec != self._max_spec and vec in self._traj_index:
                self._level_added(vec)
            self._query_index.node_added(node)
            created[(vec, sig)] = node
            parents.append(ancestor)
        if not created:
            return
        # Candidate levels, deepest first, so a child lands under its
        # nearest containing aggregate when the new keys are nested.
        levels = sorted({vec for vec, _ in created}, key=lambda vec: -sum(vec))
        swept = set()
        for parent in parents:
            if id(parent) in swept:
                continue
            swept.add(id(parent))
            for child in list(parent.children.values()):
                child_key = child.key
                child_vec = child_key.specificity_vector
                for vec in levels:
                    if child_vec != vec and covers(vec, child_vec):
                        target = created.get((vec, signature_at(child_key, vec)))
                        if target is not None:
                            target.attach_child(child)
                            break

    # -- queries ----------------------------------------------------------------

    def estimate(self, key: FlowKey) -> Estimate:
        """Estimated popularity of ``key`` (the paper's *query* operator).

        If the key is a kept node the answer is exact with respect to the
        summary (own complementary popularity plus kept descendants).  If
        not, the query is decomposed: kept descendants of the key are
        summed and the nearest kept ancestor contributes a share of its
        complementary popularity proportional to the fraction of its key
        space the query covers.
        """
        if key.arity != len(self._schema):
            raise QueryError(
                f"query key has arity {key.arity}, schema {self._schema.name!r} "
                f"has {len(self._schema)} fields"
            )
        node = self._nodes.get(key)
        if node is not None:
            # Kept key: answered from the cached subtree aggregate — O(1)
            # after the first touch instead of one subtree walk per call.
            total = node.subtree_total()
            return Estimate(
                key=key,
                counters=total.copy(),
                exact_node=True,
                from_descendants=total - node.counters,
                from_ancestor=Counters(),
            )
        return self._estimate_absent(key)

    def _estimate_absent(self, key: FlowKey) -> Estimate:
        ancestor, contained = self._absent_query_parts(key)
        descendants = Counters()
        for member in contained:
            descendants.add(member.counters)
        share = min(1.0, key.cardinality / ancestor.key.cardinality)
        from_ancestor = ancestor.counters.scaled(share)
        total = descendants + from_ancestor
        return Estimate(
            key=key,
            counters=total,
            exact_node=False,
            from_descendants=descendants,
            from_ancestor=from_ancestor,
        )

    def _absent_query_parts(
        self, key: FlowKey
    ) -> Tuple[FlowtreeNode, List[FlowtreeNode]]:
        """Estimate inputs for an absent query key, via the query index.

        Returns ``(nearest kept ancestor, kept nodes strictly contained in
        the key)`` — the two ingredients :meth:`estimate` combines into an
        absent key's answer.  Fully specific keys contain nothing, so only
        the ancestor probe runs (the hot path of the Fig. 3 accuracy
        evaluation); generalized keys — on- or
        off-trajectory — get their descendants from one projection-bucket
        lookup instead of a subtree containment sweep or a full node scan.
        """
        index = self._query_index
        if key.specificity_vector == self._max_spec:
            return index.nearest_ancestor(key), []
        return index.nearest_ancestor(key), index.contained_nodes(key)

    def popularity(self, key: FlowKey, metric: str = "packets") -> int:
        """Convenience wrapper: estimated popularity as a single number."""
        return self.estimate(key).value(metric)

    def subtree_counters(self, key: FlowKey) -> Counters:
        """Popularity of a kept key (raises if the key is not kept)."""
        node = self._nodes.get(key)
        if node is None:
            raise QueryError(f"key {key.pretty()} is not present in the Flowtree")
        return node.subtree_counters()

    def prime_query_caches(self) -> None:
        """Fill every node's subtree aggregate in one bottom-up sweep.

        One call makes all subsequent kept-key estimates O(1); batch
        operators (:func:`~repro.core.estimator.estimate_many`,
        :meth:`cumulative_counters`) call it so the aggregation cost is
        paid once per mutation burst, not once per query.  Only the dirty
        region is visited — a fully warm tree returns immediately.
        """
        self._root.subtree_total()

    def cumulative_counters(self) -> Dict[FlowKey, Counters]:
        """Cumulative (subtree) popularity of every kept key, in one pass.

        Equivalent to calling :meth:`subtree_counters` for every key but
        served from the subtree aggregates (filled bottom-up in one sweep),
        which the alerting layer and reports rely on when comparing whole
        summaries.
        """
        self.prime_query_caches()
        return {key: node.subtree_total().copy() for key, node in self._nodes.items()}

    def top(self, n: int = 10, metric: str = "packets") -> List[Tuple[FlowKey, int]]:
        """The ``n`` keys with the largest complementary popularity.

        Complementary (not cumulative) popularity is the natural ranking
        for "which individual aggregates matter most": a node that is only
        popular because of one popular child ranks below that child.
        """
        ranked = sorted(
            ((key, node.counters.weight(metric)) for key, node in self._nodes.items()),
            key=lambda item: item[1],
            reverse=True,
        )
        return ranked[:n]

    def heavy_keys(self, threshold_fraction: float, metric: str = "packets") -> List[FlowKey]:
        """Keys whose *cumulative* popularity exceeds a fraction of total traffic.

        Used for the paper's claim that every flow above 1 % of packets is
        present in the tree.
        """
        if not 0.0 < threshold_fraction <= 1.0:
            raise QueryError(f"threshold_fraction must be in (0, 1], got {threshold_fraction}")
        total = self.total_counters().weight(metric)
        if total == 0:
            return []
        cutoff = total * threshold_fraction
        cumulative = self.cumulative_counters()
        return [key for key, counters in cumulative.items() if counters.weight(metric) >= cutoff]

    # -- operators ----------------------------------------------------------------

    def merge(self, other: "Flowtree") -> None:
        """In-place merge (the paper's *merge* operator): ``self += other``.

        Complementary counters are added node-wise; keys absent from this
        tree are inserted under their longest matching ancestor.  The node
        budget is re-enforced afterwards, so merging never grows the
        summary past its configured size.
        """
        self._check_compatible(other)
        # Insert more general keys first so containment re-parenting stays cheap
        # and deterministic.
        for key, counters in sorted(other.items(), key=lambda item: item[0].specificity):
            if counters.is_zero:
                continue
            node = self._get_or_create_node(key)
            node.counters.add(counters)
            node.invalidate_subtree_cache()
        self._stats.merged_trees += 1
        self._maybe_compact()

    def merge_many(self, others: Iterable["Flowtree"]) -> None:
        """Merge many summaries into this tree: ``self += sum(others)``.

        Below :data:`MERGE_FOLD_MIN_TREES` inputs this is exactly a
        :meth:`merge` loop.  At or above it, all input entries are folded
        into this tree in one
        token-space bulk pass (the PR 3 rebuild fold, with a no-fold
        target, so it acts as bulk union + deduplication): per-key
        ``_get_or_create_node`` chain resolution is replaced by one sorted
        construction sweep.  The node budget is then re-enforced once at
        the end — same contract as the loop, which also only guarantees
        the budget after each whole ``merge``.

        Counters are conserved exactly and, without a node budget, the
        result is identical to the pairwise loop; with a budget the two
        paths may fold different victims (same totals), exactly like the
        batched-vs-per-record ingestion paths.
        """
        others = list(others)
        for other in others:
            self._check_compatible(other)
        if len(others) < MERGE_FOLD_MIN_TREES:
            for other in others:
                self.merge(other)
            return
        items: List[Tuple[FlowKey, int, int, int]] = []
        for other in others:
            for key, counters in other.items():
                if counters.is_zero:
                    continue
                items.append(
                    (key, counters.packets, counters.bytes, counters.flows)
                )
        # No-fold target: the rebuild pass only unions and deduplicates;
        # budget enforcement happens once below, through compact()'s own
        # strategy choice, mirroring the pairwise path's end state.
        self._rebuild_apply(items, target_nodes=len(self._nodes) + len(items) + 1)
        self._stats.merged_trees += len(others)
        self._maybe_compact()

    def merged(self, other: "Flowtree") -> "Flowtree":
        """Pure version of :meth:`merge`: returns a new tree, operands untouched."""
        result = self.copy()
        result.merge(other)
        return result

    def diff(self, other: "Flowtree") -> "Flowtree":
        """The paper's *diff* operator: a new tree holding ``self - other``.

        Counters of the result may be negative; a negative complementary
        count means the key lost popularity between the two summaries,
        which is exactly the signal the alarming layer looks for.
        """
        self._check_compatible(other)
        result = self.copy()
        for key, counters in sorted(other.items(), key=lambda item: item[0].specificity):
            if counters.is_zero:
                continue
            node = result._get_or_create_node(key)
            node.counters.subtract(counters)
            node.invalidate_subtree_cache()
        return result

    def copy(self) -> "Flowtree":
        """Deep copy (same schema, config and counters; fresh node objects)."""
        clone = Flowtree(self._schema, self._config)
        for key, counters in sorted(self.items(), key=lambda item: item[0].specificity):
            if key.is_root:
                clone._root.counters = counters.copy()
                clone._root.invalidate_subtree_cache()
                continue
            node = clone._get_or_create_node(key)
            node.counters = counters.copy()
            node.invalidate_subtree_cache()
        clone._stats.updates = self._stats.updates
        return clone

    def _check_compatible(self, other: "Flowtree") -> None:
        if not isinstance(other, Flowtree):
            raise SchemaMismatchError(f"expected a Flowtree, got {type(other).__name__}")
        if other._schema != self._schema:
            raise SchemaMismatchError(
                f"cannot combine Flowtrees with schemas {self._schema.name!r} "
                f"and {other._schema.name!r}"
            )

    # -- maintenance ---------------------------------------------------------------

    def prune_zero_nodes(self) -> int:
        """Drop nodes whose counters are all zero (after diffs); returns count removed."""
        removable = [
            node
            for node in self._nodes.values()
            if node is not self._root and node.counters.is_zero and node.is_leaf
        ]
        # Removing leaves can expose new zero-count leaves; iterate to a fixed point.
        removed = 0
        while removable:
            for node in removable:
                self._remove_node(node)
                removed += 1
            removable = [
                node
                for node in self._nodes.values()
                if node is not self._root and node.counters.is_zero and node.is_leaf
            ]
        return removed

    def validate(self) -> None:
        """Check structural invariants (used heavily by the test suite).

        * every non-root node's parent contains it,
        * every child link is mirrored by a parent link,
        * the node index matches the tree reachable from the root,
        * no node other than the root is its own ancestor.
        """
        reachable = {node.key for node in self._root.iter_subtree()}
        indexed = set(self._nodes.keys())
        if reachable != indexed:
            missing = indexed - reachable
            extra = reachable - indexed
            raise QueryError(
                f"node index out of sync with tree: missing={len(missing)}, extra={len(extra)}"
            )
        for node in self._nodes.values():
            if node is self._root:
                if node.parent is not None:
                    raise QueryError("root must not have a parent")
                continue
            if node.parent is None:
                raise QueryError(f"non-root node {node.key.pretty()} has no parent")
            if not node.parent.key.contains(node.key):
                raise QueryError(
                    f"parent {node.parent.key.pretty()} does not contain child {node.key.pretty()}"
                )
            if node.parent.children.get(node.key) is not node:
                raise QueryError(f"child link missing for {node.key.pretty()}")

    def __repr__(self) -> str:
        return (
            f"Flowtree(schema={self._schema.name!r}, nodes={len(self._nodes)}, "
            f"updates={self._stats.updates})"
        )
