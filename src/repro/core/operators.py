"""Whole-summary operators built on top of the Flowtree primitives.

The Flowtree class exposes pairwise ``merge`` / ``diff``; this module adds
the aggregate forms used by the distributed layer: merging many summaries
(across sites, across time bins), computing relative changes, and the
conservation check the tests compare trees against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.errors import SchemaMismatchError
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.node import Counters


def merge_all(trees: Sequence[Flowtree]) -> Flowtree:
    """Merge any number of Flowtrees into a fresh summary.

    The result uses the schema and configuration of the first tree; the
    inputs are not modified.  An empty input is rejected because there is
    no schema to build the result from.

    Merging many summaries goes through :meth:`Flowtree.merge_many`: at
    :data:`~repro.core.flowtree.MERGE_FOLD_MIN_TREES` or more inputs the
    entries are unioned in one token-space bulk fold instead of per-key
    ``merge`` chain resolution (same totals; identical keys when the
    budget is unbounded).
    """
    if not trees:
        raise SchemaMismatchError("merge_all needs at least one Flowtree")
    result = trees[0].copy()
    result.merge_many(trees[1:])
    return result


def key_union(trees: Sequence[Flowtree]) -> List[FlowKey]:
    """All keys kept by at least one of the summaries (sorted, deduplicated)."""
    keys = set()
    for tree in trees:
        keys.update(tree.keys())
    return sorted(keys, key=lambda key: (key.specificity, key.to_wire()))


def relative_change(
    before: Flowtree,
    after: Flowtree,
    metric: str = "packets",
    min_popularity: int = 1,
) -> List[Tuple[FlowKey, int, int, float]]:
    """Per-key relative popularity change between two summaries.

    Returns ``(key, before, after, change)`` tuples where ``change`` is
    ``(after - before) / max(before, 1)``; keys whose popularity is below
    ``min_popularity`` in both summaries are skipped.  This is the signal
    the alarming layer thresholds on.
    """
    before_totals = before.cumulative_counters()
    after_totals = after.cumulative_counters()
    results = []
    for key in key_union([before, after]):
        value_before = before_totals[key].weight(metric) if key in before_totals else 0
        value_after = after_totals[key].weight(metric) if key in after_totals else 0
        if max(value_before, value_after) < min_popularity:
            continue
        change = (value_after - value_before) / max(value_before, 1)
        results.append((key, value_before, value_after, change))
    results.sort(key=lambda item: abs(item[3]), reverse=True)
    return results


def conservation_error(tree: Flowtree, expected: Counters) -> Dict[str, int]:
    """Difference between the tree's total counters and an expected total.

    Flowtree updates and folds never lose counts, so for a tree that
    summarized a known stream this should be all zeros; the property tests
    assert exactly that.
    """
    actual = tree.total_counters()
    return {
        "packets": actual.packets - expected.packets,
        "bytes": actual.bytes - expected.bytes,
        "flows": actual.flows - expected.flows,
    }
