"""Base protocol and helpers shared by all flow features.

The Flowtree core never looks inside a feature value; it only relies on the
small interface defined by :class:`Feature`.  Keeping the interface minimal
is what lets users plug in their own hierarchies (AS numbers, DSCP classes,
geographic regions, ...) without touching the core.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator


class FeatureError(ValueError):
    """Raised when a feature value is constructed from invalid arguments."""


class ParseError(FeatureError):
    """Raised when a textual or binary representation cannot be parsed."""


class Feature(abc.ABC):
    """One dimension of a generalized flow key.

    Implementations must be immutable, hashable and totally determined by
    their constructor arguments; the Flowtree stores them inside dictionary
    keys and serialized summaries.
    """

    __slots__ = ()

    #: Short, stable identifier used in serialized summaries (e.g. ``"ip4"``).
    kind: str = "feature"

    #: ``True`` when this type guarantees ``mask_token(full specificity)``
    #: equals the raw record attribute the schema extracts the feature
    #: from.  Only then may the rebuild compactor treat a record's raw
    #: signature as a ready-made token tuple and skip key construction for
    #: the batch; types relying on the generic wire-form fallbacks below
    #: must leave this ``False`` (their tokens are wire strings, which a
    #: raw attribute would never equal).
    raw_signature_tokens: bool = False

    @abc.abstractmethod
    def generalize(self) -> "Feature":
        """Return the value one level up the hierarchy.

        Calling :meth:`generalize` on the root must return the root itself;
        callers use ``value.is_root`` to detect the fixed point.
        """

    @abc.abstractmethod
    def contains(self, other: "Feature") -> bool:
        """Return ``True`` if ``other`` is equal to or a specialization of ``self``."""

    @property
    @abc.abstractmethod
    def is_root(self) -> bool:
        """``True`` for the fully generalized (wildcard) value."""

    @property
    @abc.abstractmethod
    def specificity(self) -> int:
        """Depth in the hierarchy; the root has specificity 0."""

    @property
    @abc.abstractmethod
    def cardinality(self) -> int:
        """Number of fully-specific values covered by this value.

        Used by the estimator to spread residual popularity proportionally
        over the uncovered part of an ancestor.  May overflow for IPv6 /0 —
        implementations return a Python ``int`` so that is fine.
        """

    @abc.abstractmethod
    def to_wire(self) -> str:
        """Stable textual form used in serialization (round-trips via ``from_wire``)."""

    @classmethod
    @abc.abstractmethod
    def from_wire(cls, text: str) -> "Feature":
        """Inverse of :meth:`to_wire`."""

    @classmethod
    @abc.abstractmethod
    def root(cls) -> "Feature":
        """Return the hierarchy's root (full wildcard) value."""

    # -- derived helpers ---------------------------------------------------

    def generalize_to(self, target_specificity: int) -> "Feature":
        """Generalize until :attr:`specificity` equals ``target_specificity``.

        Subclasses with wide hierarchies (prefixes, port ranges) override
        this with a single-step implementation; the generic fallback walks
        one level at a time.
        """
        current: Feature = self
        if target_specificity > current.specificity:
            raise FeatureError(
                f"cannot specialize {current!r} to specificity {target_specificity}"
            )
        while current.specificity > target_specificity:
            current = current.generalize()
        return current

    def mask_token(self, target_specificity: int) -> Any:
        """Hashable token identifying ``generalize_to(target_specificity)``.

        Contract: for two features at the same schema position,
        ``a.mask_token(s) == b.mask_token(s)`` exactly when
        ``a.generalize_to(s) == b.generalize_to(s)`` (``s`` at most either
        feature's specificity).  The bulk rebuild compactor folds whole
        lattice levels in token space — one token comparison per entry per
        level instead of one feature object construction — so the built-in
        features override this with a masked-integer implementation.  This
        generic fallback materializes the ancestor and is always correct
        for user-defined hierarchies.
        """
        return self.generalize_to(target_specificity).to_wire()

    @classmethod
    def mask_raw(cls, token: Any, target_specificity: int) -> Any:
        """Fold an existing token further down the hierarchy, class-side.

        ``token`` must be a value produced by :meth:`mask_token` — or, when
        the class sets :attr:`raw_signature_tokens`, the raw record
        attribute the feature would be constructed from (the
        :meth:`~repro.features.schema.FlowSchema.signature_of` view).
        Returns the token of the ancestor at ``target_specificity``.
        Masking composes: folding a token in two steps equals folding it
        once to the lower level, which is what lets the rebuild compactor
        cascade entries through many lattice levels without ever
        constructing feature objects.  The generic fallback round-trips
        through the wire form; it composes correctly with the generic
        :meth:`mask_token` (whose tokens *are* wire forms) but is never fed
        raw attributes, because :attr:`raw_signature_tokens` stays
        ``False`` for classes that do not override both methods.
        """
        return cls.from_wire(token).mask_token(target_specificity)

    def ancestors(self, include_self: bool = False) -> Iterator["Feature"]:
        """Yield increasingly general values, ending at (and including) the root."""
        current: Feature = self
        if include_self:
            yield current
        while not current.is_root:
            current = current.generalize()
            yield current

    def is_ancestor_of(self, other: "Feature") -> bool:
        """Strict ancestry test (``self`` contains ``other`` and differs from it)."""
        return self != other and self.contains(other)

    def common_ancestor(self, other: "Feature") -> "Feature":
        """Return the most specific value containing both ``self`` and ``other``."""
        if self.contains(other):
            return self
        if other.contains(self):
            return other
        current = self.generalize()
        while not current.contains(other):
            if current.is_root:
                return current
            current = current.generalize()
        return current

    def __lt__(self, other: Any) -> bool:  # stable ordering for reports/serialization
        if not isinstance(other, Feature):
            return NotImplemented
        return (self.kind, self.to_wire()) < (other.kind, other.to_wire())


def check_int_range(name: str, value: int, low: int, high: int) -> int:
    """Validate that ``value`` is an ``int`` within ``[low, high]``.

    Returns the value so it can be used inline in constructors; raises
    :class:`FeatureError` otherwise.  Booleans are rejected explicitly
    because ``bool`` is a subclass of ``int`` and almost always a bug here.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise FeatureError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise FeatureError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def mask_bits(value: int, keep: int, width: int) -> int:
    """Zero out all but the ``keep`` most significant of ``width`` bits."""
    if keep <= 0:
        return 0
    if keep >= width:
        return value
    shift = width - keep
    return (value >> shift) << shift
