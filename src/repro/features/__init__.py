"""Feature hierarchies for generalized flows.

A *feature* is one dimension of a flow key (a source prefix, a destination
port range, a protocol, ...).  Every feature value belongs to a
generalization hierarchy: IPv4/IPv6 addresses generalize through shorter
prefixes, ports generalize through power-of-two aligned ranges, protocols
generalize straight to the wildcard.  The :class:`~repro.features.base.Feature`
protocol defines the small surface the Flowtree core needs:

* ``generalize()``    -- one step towards the root of the hierarchy
* ``contains(other)`` -- partial order test ("is ``other`` inside me?")
* ``specificity``     -- depth in the hierarchy (root == 0)
* ``cardinality``     -- how many fully-specific values the value covers

Concrete features:

* :class:`~repro.features.ipaddr.IPv4Prefix`, :class:`~repro.features.ipaddr.IPv6Prefix`
* :class:`~repro.features.ports.PortRange`
* :class:`~repro.features.protocol.Protocol`

Schemas (:mod:`repro.features.schema`) bundle an ordered list of feature
types into the 1-, 2-, 4- and 5-feature flow keys used in the paper.
"""

from repro.features.base import Feature, FeatureError, ParseError
from repro.features.ipaddr import IPv4Prefix, IPv6Prefix, parse_prefix
from repro.features.ports import PortRange
from repro.features.protocol import Protocol
from repro.features.schema import (
    FlowSchema,
    SCHEMA_1F_SRC,
    SCHEMA_2F_SRC_DST,
    SCHEMA_4F,
    SCHEMA_5F,
    schema_by_name,
)

__all__ = [
    "Feature",
    "FeatureError",
    "ParseError",
    "IPv4Prefix",
    "IPv6Prefix",
    "parse_prefix",
    "PortRange",
    "Protocol",
    "FlowSchema",
    "SCHEMA_1F_SRC",
    "SCHEMA_2F_SRC_DST",
    "SCHEMA_4F",
    "SCHEMA_5F",
    "schema_by_name",
]
