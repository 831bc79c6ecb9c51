"""Flowtree core: the paper's primary contribution.

This package contains the self-adjusting summary data structure itself
(:class:`~repro.core.flowtree.Flowtree`), its configuration, the
generalization policies that define canonical parent chains, the query
estimator helpers, whole-summary operators (merge-all, diff chains,
heavy-hitter extraction) and the binary/JSON serialization formats.
"""

from repro.core.compaction import Compactor, RebuildCompactor
from repro.core.config import EXACT_CONFIG, PAPER_EVAL_CONFIG, FlowtreeConfig
from repro.core.errors import (
    ConfigurationError,
    DaemonError,
    FlowtreeError,
    QueryError,
    SchemaMismatchError,
    SerializationError,
    TransportError,
)
from repro.core.flowtree import Estimate, Flowtree, UpdateStats
from repro.core.key import FlowKey
from repro.core.node import Counters, FlowtreeNode
from repro.core.operators import (
    apply_diff,
    counter_table,
    diff_chain,
    find_heavy_hitters,
    merge_all,
    reconstruct_from_diffs,
    relative_change,
    summary_distance,
)
from repro.core.policy import (
    GeneralizationPolicy,
    available_policies,
    get_policy,
    register_policy,
    schema_max_specificity,
)
from repro.core.serialization import (
    from_bytes,
    from_json,
    size_report,
    to_bytes,
    to_json,
)
from repro.core.estimator import (
    children_of,
    coverage,
    decompose,
    drill_down,
    estimate_many,
    estimate_values,
)

__all__ = [
    "Flowtree",
    "FlowtreeConfig",
    "PAPER_EVAL_CONFIG",
    "EXACT_CONFIG",
    "Compactor",
    "RebuildCompactor",
    "FlowKey",
    "Counters",
    "FlowtreeNode",
    "Estimate",
    "UpdateStats",
    "FlowtreeError",
    "ConfigurationError",
    "SchemaMismatchError",
    "SerializationError",
    "QueryError",
    "TransportError",
    "DaemonError",
    "GeneralizationPolicy",
    "get_policy",
    "available_policies",
    "register_policy",
    "schema_max_specificity",
    "merge_all",
    "diff_chain",
    "apply_diff",
    "reconstruct_from_diffs",
    "relative_change",
    "summary_distance",
    "counter_table",
    "find_heavy_hitters",
    "to_bytes",
    "from_bytes",
    "to_json",
    "from_json",
    "size_report",
    "estimate_many",
    "estimate_values",
    "decompose",
    "children_of",
    "drill_down",
    "coverage",
]
