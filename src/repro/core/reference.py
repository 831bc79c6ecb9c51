"""Naive reference walkers: the executable spec of the query engine.

The indexed query paths (:mod:`repro.core.query`,
:mod:`repro.core.estimator`) are required to answer byte-identically to
these walkers, which implement the same semantics with no index at all —
per-call subtree walks, containment sweeps and full node scans, exactly
the pre-index cost model.  They serve two purposes:

* the property tests (``tests/test_query_index.py``) re-check the indexed
  answers against them after every mutation kind, so a stale cache or a
  missed invalidation shows up as a hard mismatch, and
* the ``CLAIM-QUERY`` benchmark uses them as the per-key baseline the
  batch operators must beat.

Semantics (shared with the engine): the estimate of an absent key is the
sum of all kept nodes strictly contained in it plus a proportional share
of the *most specific* kept strict ancestor's complementary popularity;
incomparable-ancestor ties (possible only with off-trajectory kept keys)
break deterministically by wire form.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import QueryError
from repro.core.flowtree import Estimate, Flowtree
from repro.core.key import FlowKey
from repro.core.node import Counters, FlowtreeNode


def walk_estimate(tree: Flowtree, key: FlowKey) -> Estimate:
    """Index-free :meth:`Flowtree.estimate`: one walk or scan per call."""
    if key.arity != len(tree.schema):
        raise QueryError(
            f"query key has arity {key.arity}, schema {tree.schema.name!r} "
            f"has {len(tree.schema)} fields"
        )
    node = tree._get_node(key)
    if node is not None:
        descendants = Counters()
        for member in node.iter_subtree():
            if member is not node:
                descendants.add(member.counters)
        return Estimate(
            key=key,
            counters=node.counters + descendants,
            exact_node=True,
            from_descendants=descendants,
            from_ancestor=Counters(),
        )
    ancestor, contained = walk_absent_parts(tree, key)
    descendants = Counters()
    for member in contained:
        descendants.add(member.counters)
    share = min(1.0, key.cardinality / ancestor.key.cardinality)
    from_ancestor = ancestor.counters.scaled(share)
    return Estimate(
        key=key,
        counters=descendants + from_ancestor,
        exact_node=False,
        from_descendants=descendants,
        from_ancestor=from_ancestor,
    )


def walk_absent_parts(
    tree: Flowtree, key: FlowKey
) -> Tuple[FlowtreeNode, List[FlowtreeNode]]:
    """Full-scan counterpart of :meth:`Flowtree._absent_query_parts`."""
    contained: List[FlowtreeNode] = []
    ancestor: Optional[FlowtreeNode] = None
    for node in tree._all_nodes():
        if node is tree.root:
            continue
        other = node.key
        if key.contains(other):
            contained.append(node)
        elif other.contains(key):
            if ancestor is None:
                ancestor = node
                continue
            best = ancestor.key
            if other.specificity > best.specificity or (
                other.specificity == best.specificity
                and other.to_wire() < best.to_wire()
            ):
                ancestor = node
    return (ancestor if ancestor is not None else tree.root), contained


def walk_children_of(
    tree: Flowtree,
    key: FlowKey,
    feature_index: int,
    step: int = 1,
    metric: str = "packets",
    min_value: int = 0,
) -> List[Tuple[FlowKey, int]]:
    """Index-free :func:`~repro.core.estimator.children_of`: full node scan."""
    if not 0 <= feature_index < key.arity:
        raise QueryError(f"feature index {feature_index} out of range for key {key.pretty()}")
    total = walk_estimate(tree, key).value(metric)
    target_spec = key[feature_index].specificity + step
    buckets: Dict[FlowKey, int] = {}
    for other_key, counters in tree.items():
        if other_key == key or not key.contains(other_key):
            continue
        feature = other_key[feature_index]
        if feature.specificity < target_spec:
            continue
        features = list(key.features)
        features[feature_index] = feature.generalize_to(target_spec)
        bucket_key = FlowKey(features)
        buckets[bucket_key] = buckets.get(bucket_key, 0) + counters.weight(metric)
    ranked = [
        (bucket, value) for bucket, value in buckets.items() if value >= min_value
    ]
    ranked.sort(key=lambda item: (-item[1], item[0].to_wire()))
    accounted = sum(value for _, value in ranked)
    remainder = total - accounted
    if remainder > 0:
        ranked.append((key, remainder))
    return ranked


def walk_drill_down(
    tree: Flowtree,
    start: FlowKey,
    feature_index: int,
    metric: str = "packets",
    step: int = 8,
    dominance: float = 0.5,
    max_depth: int = 6,
) -> List[Tuple[FlowKey, int, float, int]]:
    """Index-free drill-down: ``(key, value, share, depth)`` per step."""
    path: List[Tuple[FlowKey, int, float, int]] = []
    current = start
    current_value = walk_estimate(tree, start).value(metric)
    for depth in range(1, max_depth + 1):
        if current_value <= 0:
            break
        breakdown = walk_children_of(
            tree, current, feature_index, step=step, metric=metric
        )
        candidates = [(key, value) for key, value in breakdown if key != current]
        if not candidates:
            break
        best_key, best_value = candidates[0]
        share = best_value / current_value if current_value else 0.0
        if share < dominance:
            break
        path.append((best_key, best_value, share, depth))
        current, current_value = best_key, best_value
    return path
