"""Generalized flow keys.

A :class:`FlowKey` is an immutable tuple of feature values, one per
dimension of a :class:`~repro.features.schema.FlowSchema`.  Keys form a
generalization *lattice*: a key contains another if every feature contains
the corresponding feature.  The Flowtree itself works on a single canonical
*chain* through that lattice (see :mod:`repro.core.policy`), but queries may
use arbitrary lattice points.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.core.errors import KeyError_
from repro.features.base import Feature
from repro.features.schema import FlowSchema


class FlowKey:
    """An immutable tuple of feature values identifying a generalized flow."""

    __slots__ = ("_features", "_hash", "_cardinality", "_spec_vector")

    def __init__(self, features: Sequence[Feature]) -> None:
        if not features:
            raise KeyError_("a flow key needs at least one feature")
        self._features: Tuple[Feature, ...] = tuple(features)
        self._hash = hash(self._features)
        self._cardinality: Optional[int] = None
        self._spec_vector: Optional[Tuple[int, ...]] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_record(cls, schema: FlowSchema, record: object) -> "FlowKey":
        """Fully specific key for a flow/packet record under ``schema``."""
        return cls(schema.features_of(record))

    @classmethod
    def root(cls, schema: FlowSchema) -> "FlowKey":
        """The all-wildcard key (root of every Flowtree for ``schema``)."""
        return cls(schema.root_features())

    @classmethod
    def from_wire(cls, schema: FlowSchema, parts: Sequence[str]) -> "FlowKey":
        """Rebuild a key from the per-feature wire strings."""
        if len(parts) != len(schema):
            raise KeyError_(
                f"wire key has {len(parts)} parts but schema {schema.name!r} "
                f"has {len(schema)} fields"
            )
        return cls(tuple(schema.feature_from_wire(i, part) for i, part in enumerate(parts)))

    # -- properties ---------------------------------------------------------

    @property
    def features(self) -> Tuple[Feature, ...]:
        """The per-dimension feature values."""
        return self._features

    @property
    def arity(self) -> int:
        """Number of dimensions."""
        return len(self._features)

    @property
    def is_root(self) -> bool:
        """``True`` if every dimension is the wildcard."""
        return all(feature.is_root for feature in self._features)

    @property
    def specificity_vector(self) -> Tuple[int, ...]:
        """Per-dimension depth in each feature hierarchy (memoized)."""
        vector = self._spec_vector
        if vector is None:
            vector = tuple(feature.specificity for feature in self._features)
            self._spec_vector = vector
        return vector

    @property
    def specificity(self) -> int:
        """Total depth (sum over dimensions); the root has specificity 0."""
        return sum(self.specificity_vector)

    @property
    def cardinality(self) -> int:
        """Number of fully specific keys covered (product of feature cardinalities).

        Memoized: the estimator divides by an ancestor's cardinality on
        every residual-share computation, and batch queries hit the same
        few ancestors over and over.
        """
        product = self._cardinality
        if product is None:
            product = 1
            for feature in self._features:
                product *= feature.cardinality
            self._cardinality = product
        return product

    # -- lattice operations ---------------------------------------------------

    def generalize_feature(self, index: int) -> "FlowKey":
        """Key with the ``index``-th feature generalized one step."""
        if not 0 <= index < len(self._features):
            raise KeyError_(f"feature index {index} out of range for arity {self.arity}")
        feature = self._features[index]
        if feature.is_root:
            return self
        features = list(self._features)
        features[index] = feature.generalize()
        return FlowKey(features)

    def contains(self, other: "FlowKey") -> bool:
        """Lattice order: every feature of ``self`` contains the matching feature."""
        if not isinstance(other, FlowKey) or other.arity != self.arity:
            return False
        return all(
            mine.contains(theirs) for mine, theirs in zip(self._features, other._features)
        )

    def is_ancestor_of(self, other: "FlowKey") -> bool:
        """Strict containment (contains and differs)."""
        return self != other and self.contains(other)

    def common_ancestor(self, other: "FlowKey") -> "FlowKey":
        """Per-feature least common ancestor (meet in the lattice)."""
        if other.arity != self.arity:
            raise KeyError_("cannot combine keys of different arity")
        return FlowKey(
            tuple(
                mine.common_ancestor(theirs)
                for mine, theirs in zip(self._features, other._features)
            )
        )

    def generalize_to_vector(self, vector: Sequence[int]) -> "FlowKey":
        """Generalize each feature until its specificity matches ``vector``.

        ``vector`` must be component-wise at most the key's own specificity
        vector; this is the projection used to align keys to a policy
        trajectory level.
        """
        if len(vector) != self.arity:
            raise KeyError_("specificity vector arity mismatch")
        features = []
        for feature, target in zip(self._features, vector):
            if target > feature.specificity:
                raise KeyError_(
                    f"cannot specialize feature {feature!r} to specificity {target}"
                )
            features.append(feature.generalize_to(target))
        return FlowKey(features)

    def generalize_feature_to(self, index: int, target_specificity: int) -> "FlowKey":
        """Key with the ``index``-th feature generalized to ``target_specificity``."""
        feature = self._features[index]
        if target_specificity == feature.specificity:
            return self
        features = list(self._features)
        features[index] = feature.generalize_to(target_specificity)
        return FlowKey(features)

    # -- wire / dunder ------------------------------------------------------

    def to_wire(self) -> Tuple[str, ...]:
        """Per-feature wire strings (stable, round-trips via :meth:`from_wire`)."""
        return tuple(feature.to_wire() for feature in self._features)

    def pretty(self) -> str:
        """Human-readable one-line rendering, e.g. ``(1.1.1.0/24, *, 80, *)``."""
        return "(" + ", ".join(str(feature) for feature in self._features) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlowKey) and self._features == other._features

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "FlowKey") -> bool:
        return self.to_wire() < other.to_wire()

    def __iter__(self) -> Iterator[Feature]:
        return iter(self._features)

    def __len__(self) -> int:
        return len(self._features)

    def __getitem__(self, index: int) -> Feature:
        return self._features[index]

    def __repr__(self) -> str:
        return f"FlowKey{self.pretty()}"
