"""Flowtree core: the paper's primary contribution.

This package contains the self-adjusting summary data structure itself
(:class:`~repro.core.flowtree.Flowtree`), its configuration, the
generalization policies that define canonical parent chains, the query
estimator helpers, whole-summary operators (merge-all, relative change)
and the FTRE binary serialization format (plus a JSON dump).
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
from repro.core.operators import merge_all, relative_change
from repro.core.policy import (
    GeneralizationPolicy,
    available_policies,
    get_policy,
    schema_max_specificity,
)
from repro.core.serialization import (
    from_bytes,
    size_report,
    to_bytes,
    to_json,
)
from repro.core.estimator import (
    children_of,
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
    "schema_max_specificity",
    "merge_all",
    "relative_change",
    "to_bytes",
    "from_bytes",
    "to_json",
    "size_report",
    "estimate_many",
    "estimate_values",
    "children_of",
    "drill_down",
]
