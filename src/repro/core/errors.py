"""Exception hierarchy for the Flowtree core.

All library-specific errors derive from :class:`FlowtreeError` so callers can
catch one base class at API boundaries while the library keeps raising
specific subclasses internally.
"""

from __future__ import annotations


class FlowtreeError(Exception):
    """Base class for all Flowtree library errors."""


class ConfigurationError(FlowtreeError):
    """A :class:`~repro.core.config.FlowtreeConfig` value is invalid."""


class SchemaMismatchError(FlowtreeError):
    """Two summaries with different flow schemas were combined."""


class KeyError_(FlowtreeError):
    """A flow key is malformed or inconsistent with its schema."""


class SerializationError(FlowtreeError):
    """A summary could not be encoded or decoded."""


class QueryError(FlowtreeError):
    """A query is malformed (wrong schema, unknown metric, ...)."""


class TransportError(FlowtreeError):
    """A simulated transport operation failed (unknown site, closed channel, ...)."""


class DaemonError(FlowtreeError):
    """A distributed daemon/collector operation failed."""


class CollectorUnavailableError(DaemonError):
    """A collector is down or unreachable.

    Raised by a killed collector's entry points and by the query engine's
    gather when a collector times out; with ``on_unavailable="partial"``
    the engine degrades to partial results instead of propagating it.
    """


class FaultError(FlowtreeError):
    """An injected failure from a :class:`~repro.distributed.faults.FaultPlan`.

    Distinct from the organic error types so tests can assert that a
    failure came from the harness.
    """
