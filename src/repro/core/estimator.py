"""Higher-level query helpers: batch estimation and drill-down.

The Flowtree's :meth:`~repro.core.flowtree.Flowtree.estimate` answers one
popularity query.  Operators rarely ask one question at a time — they ask
"what is underneath this /8?" or "estimate every flow in this list" — so
this module provides the batch and exploratory forms used by the analysis
layer, the CLI and the distributed query engine.

All helpers run on the tree's query index (cached subtree aggregates plus
the per-level token projection index, see :mod:`repro.core.query`):
:func:`estimate_many` warms the aggregates in one bottom-up sweep and then
answers each key in O(1)-ish time, and :func:`children_of` /
:func:`drill_down` bucket projection-index hits instead of re-scanning
every kept node per level.  The naive full-scan
semantics these must match are kept executable in
:mod:`repro.core.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.errors import QueryError
from repro.core.flowtree import Estimate, Flowtree
from repro.core.key import FlowKey
from repro.core.node import Counters
from repro.core.query import ProbeMemo


def estimate_many(tree: Flowtree, keys: Iterable[FlowKey]) -> Dict[FlowKey, Estimate]:
    """Estimate every key of an iterable; returns a key-indexed mapping.

    This is the preferred bulk API: the subtree aggregates are primed once
    (one bottom-up sweep over the dirty region, shared by every queried
    key), then each answer is assembled inline from cache hits and
    token-space index probes — no per-key aggregation walk, no per-key
    dispatch overhead.  Answers are byte-identical to per-key
    :meth:`~repro.core.flowtree.Flowtree.estimate` calls (the property
    tests pin this), but a large batch runs several times faster.
    """
    keys = list(keys)
    if not keys:
        return {}
    tree.prime_query_caches()
    nodes = tree._nodes
    index = tree._query_index
    arity = len(tree.schema)
    max_spec = tree.chain_builder.max_specificity
    answers: Dict[FlowKey, Estimate] = {}
    # Batch-local caches (the tree does not mutate inside one call):
    # ancestors memoized per deepest-level token signature, and the scaled
    # ancestor share memoized per (ancestor, key cardinality) for fully
    # specific keys — nothing is contained in them, so that pair fully
    # determines the answer's counters.
    ancestor_memo: ProbeMemo = {}
    share_memo: Dict[Tuple[int, int], Counters] = {}
    for key in keys:
        if key.arity != arity:
            raise QueryError(
                f"query key has arity {key.arity}, schema {tree.schema.name!r} "
                f"has {arity} fields"
            )
        if key in answers:
            continue  # duplicate query keys share one computed answer
        node = nodes.get(key)
        if node is not None:
            total = node.subtree_total()
            answers[key] = Estimate(
                key, total.copy(), True, total - node.counters, None
            )
            continue
        if key.specificity_vector == max_spec:
            # The memo is scoped to one probe plan; fully specific keys all
            # share the max-specificity plan, so only they may use it.
            ancestor = index.nearest_ancestor(key, memo=ancestor_memo)
            cardinality = key.cardinality
            template = share_memo.get((id(ancestor), cardinality))
            if template is None:
                share = min(1.0, cardinality / ancestor.key.cardinality)
                template = ancestor.counters.scaled(share)
                share_memo[(id(ancestor), cardinality)] = template
            answers[key] = Estimate(
                key, template.copy(), False, None, template.copy()
            )
            continue
        answers[key] = tree._estimate_absent(key)
    return answers


def estimate_values(
    tree: Flowtree, keys: Iterable[FlowKey], metric: str = "packets"
) -> Dict[FlowKey, int]:
    """Like :func:`estimate_many` but returning bare numbers for one metric."""
    return {
        key: estimate.value(metric)
        for key, estimate in estimate_many(tree, keys).items()
    }


def children_of(
    tree: Flowtree,
    key: FlowKey,
    feature_index: int,
    step: int = 1,
    metric: str = "packets",
    min_value: int = 0,
) -> List[Tuple[FlowKey, int]]:
    """Popularity broken down one level below ``key`` along one feature.

    ``feature_index`` selects which dimension to specialize and ``step`` how
    many hierarchy levels to descend (e.g. ``step=8`` splits an IPv4 /8 into
    /16s).  Only kept keys contribute, so the breakdown reflects what the
    summary knows; the remainder (traffic the summary only holds at coarser
    granularity) is reported under ``key`` itself as the last entry.

    The kept keys below ``key`` come from one projection-index bucket
    lookup and are grouped by their masked feature *token*, so neither a
    full node scan nor a per-node bucket-key construction happens: one
    bucket key is built per distinct child, not per contributing node.
    """
    if not 0 <= feature_index < key.arity:
        raise QueryError(f"feature index {feature_index} out of range for key {key.pretty()}")
    total = tree.estimate(key).value(metric)
    target_spec = key[feature_index].specificity + step
    # token -> [accumulated value, sample feature to materialize the bucket key]
    groups: Dict[object, list] = {}
    for node in tree._query_index.contained_nodes(key):
        feature = node.key[feature_index]
        if feature.specificity < target_spec:
            continue
        token = feature.mask_token(target_spec)
        entry = groups.get(token)
        if entry is None:
            groups[token] = [node.counters.weight(metric), feature]
        else:
            entry[0] += node.counters.weight(metric)
    features = list(key.features)
    ranked = []
    for value, feature in groups.values():
        if value < min_value:
            continue
        features[feature_index] = feature.generalize_to(target_spec)
        ranked.append((FlowKey(features), value))
    # Deterministic order: by value, ties by wire form (full scans used to
    # leave ties in insertion order, which is not reproducible).
    ranked.sort(key=lambda item: (-item[1], item[0].to_wire()))
    accounted = sum(value for _, value in ranked)
    remainder = total - accounted
    if remainder > 0:
        ranked.append((key, remainder))
    return ranked


@dataclass(frozen=True)
class DrilldownStep:
    """One level of an automated drill-down investigation."""

    key: FlowKey
    value: int
    share_of_parent: float
    depth: int


def drill_down(
    tree: Flowtree,
    start: FlowKey,
    feature_index: int,
    metric: str = "packets",
    step: int = 8,
    dominance: float = 0.5,
    max_depth: int = 6,
) -> List[DrilldownStep]:
    """Follow the dominant contributor below ``start`` until it stops dominating.

    This automates the paper's motivating workflow ("prefix X/8 received a
    lot of traffic — is it one IP, one /24, or something broader?"): at each
    level the largest bucket is followed as long as it carries at least
    ``dominance`` of its parent's traffic.  Each level costs one
    projection-bucket lookup instead of a scan over every kept node, so a
    whole investigation is output-sized, not depth × tree-sized.
    """
    path: List[DrilldownStep] = []
    current = start
    current_value = tree.estimate(start).value(metric)
    for depth in range(1, max_depth + 1):
        if current_value <= 0:
            break
        breakdown = children_of(tree, current, feature_index, step=step, metric=metric)
        candidates = [(key, value) for key, value in breakdown if key != current]
        if not candidates:
            break
        best_key, best_value = candidates[0]
        share = best_value / current_value if current_value else 0.0
        if share < dominance:
            break
        path.append(
            DrilldownStep(key=best_key, value=best_value, share_of_parent=share, depth=depth)
        )
        current, current_value = best_key, best_value
    return path
