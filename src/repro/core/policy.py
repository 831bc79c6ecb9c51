"""Generalization policies: turning the lattice into a canonical chain.

Multi-feature flow keys generalize along many dimensions, which forms a
lattice, but a Flowtree is a *tree*: every key needs exactly one canonical
parent.  A :class:`GeneralizationPolicy` decides, given the current
specificity of every feature, which feature to generalize next.

Policies deliberately depend **only on the specificity vector**, never on
the feature values themselves.  This gives the crucial structural property
the core relies on (and the tests assert):

    every key's canonical chain visits one fixed sequence of specificity
    vectors (the policy *trajectory*), so for any two keys produced by the
    same policy, containment implies chain ancestry.

That property is what makes the longest-matching-ancestor lookup a simple
walk up the chain and keeps updates amortized O(1).
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Sequence, Tuple, Type

from repro.core.errors import ConfigurationError
from repro.core.key import FlowKey


class GeneralizationPolicy(abc.ABC):
    """Chooses which feature of a key to generalize next."""

    #: Registry name (used in :class:`~repro.core.config.FlowtreeConfig`).
    name: str = "abstract"

    @abc.abstractmethod
    def choose_feature(self, specificity: Sequence[int], maximum: Sequence[int]) -> int:
        """Index of the feature to generalize one step.

        ``specificity`` is the key's current per-feature depth and
        ``maximum`` the depth of a fully specific key for the schema.  The
        method is only called when at least one entry of ``specificity`` is
        positive and must return the index of such an entry.
        """


class RoundRobinPolicy(GeneralizationPolicy):
    """Generalize the feature that is currently the most specific *relatively*.

    At each step the feature with the largest ``specificity / maximum``
    ratio loses one bit (ties broken by lowest index).  This interleaves
    the dimensions proportionally — the behaviour illustrated by the
    paper's 4-feature example, where both prefixes and both port ranges
    widen together — and is the default policy.
    """

    name = "round-robin"

    def choose_feature(self, specificity: Sequence[int], maximum: Sequence[int]) -> int:
        best_index = -1
        best_ratio = -1.0
        for index, (spec, limit) in enumerate(zip(specificity, maximum)):
            if spec == 0:
                continue
            ratio = spec / limit if limit else 0.0
            if ratio > best_ratio:
                best_ratio = ratio
                best_index = index
        return best_index


class FieldOrderPolicy(GeneralizationPolicy):
    """Fully generalize fields left to right (src before dst before ports)."""

    name = "field-order"

    def choose_feature(self, specificity: Sequence[int], maximum: Sequence[int]) -> int:
        for index, spec in enumerate(specificity):
            if spec > 0:
                return index
        raise ConfigurationError("choose_feature called on a root key")


class ReverseFieldOrderPolicy(GeneralizationPolicy):
    """Fully generalize fields right to left (ports before dst before src)."""

    name = "reverse-field-order"

    def choose_feature(self, specificity: Sequence[int], maximum: Sequence[int]) -> int:
        for index in range(len(specificity) - 1, -1, -1):
            if specificity[index] > 0:
                return index
        raise ConfigurationError("choose_feature called on a root key")


class CoarsestFirstPolicy(GeneralizationPolicy):
    """Generalize the feature closest to its wildcard first.

    This keeps the most specific dimension intact the longest, which favours
    drill-down accuracy on that dimension at the cost of the others.
    Included mainly as an ablation point.
    """

    name = "coarsest-first"

    def choose_feature(self, specificity: Sequence[int], maximum: Sequence[int]) -> int:
        best_index = -1
        best_ratio = 2.0
        for index, (spec, limit) in enumerate(zip(specificity, maximum)):
            if spec == 0:
                continue
            ratio = spec / limit if limit else 0.0
            if ratio < best_ratio:
                best_ratio = ratio
                best_index = index
        return best_index


class PriorityOrderPolicy(GeneralizationPolicy):
    """Generalize features in an explicit, user-chosen order.

    ``PriorityOrderPolicy([0, 2, 3, 1])`` fully generalizes feature 0 first,
    then features 2 and 3, and keeps feature 1 specific the longest.  This
    is how an operator orients a Flowtree towards a particular drill-down
    axis (e.g. keep the destination prefix specific for DDoS-victim
    investigations).  Configured through the name ``"priority:0,2,3,1"``.
    """

    name = "priority"

    def __init__(self, order: Sequence[int] = ()) -> None:
        self._order = tuple(order)
        if len(set(self._order)) != len(self._order):
            raise ConfigurationError(f"priority order {order!r} contains duplicates")

    def choose_feature(self, specificity: Sequence[int], maximum: Sequence[int]) -> int:
        order = self._order or range(len(specificity))
        for index in order:
            if index >= len(specificity):
                raise ConfigurationError(
                    f"priority order index {index} out of range for {len(specificity)} features"
                )
            if specificity[index] > 0:
                return index
        # Features not mentioned in the order are generalized last, in index order.
        for index, value in enumerate(specificity):
            if value > 0:
                return index
        raise ConfigurationError("choose_feature called on a root key")


class ChainBuilder:
    """Materializes the canonical parent chain for one schema + policy + stride.

    The builder knows the generalization *levels* of every feature (e.g.
    ``32, 28, 24, ..., 0`` for an IPv4 prefix with a stride of 4 bits) and
    asks the policy which feature to generalize next.  All Flowtrees that
    should be mergeable must use the same builder parameters.
    """

    def __init__(self, policy: GeneralizationPolicy, level_sets: Sequence[Sequence[int]]) -> None:
        self._policy = policy
        self._levels: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(set(levels), reverse=True)) for levels in level_sets
        )
        for levels in self._levels:
            if not levels or levels[-1] != 0:
                raise ConfigurationError("every feature level set must end at 0 (the wildcard)")
        self._max: Tuple[int, ...] = tuple(levels[0] for levels in self._levels)
        # Pre-computed snap-down table: for every possible specificity value of
        # every feature, the next (strictly lower) generalization level.
        self._lower: List[List[int]] = []
        for levels in self._levels:
            table = [0] * (levels[0] + 1)
            for spec in range(1, levels[0] + 1):
                table[spec] = max((level for level in levels if level < spec), default=0)
            self._lower.append(table)
        # Fold-step cache: specificity vector -> (feature index, target
        # specificity, parent vector) of the canonical parent.  Policies
        # depend only on the specificity vector, so every key at the same
        # lattice level shares one fold step; both compactors climb in token
        # space and hit this cache for all but the first key of each level.
        self._fold_steps: Dict[
            Tuple[int, ...], Tuple[int, int, Tuple[int, ...]]
        ] = {}

    @classmethod
    def for_schema(
        cls,
        schema,
        policy: GeneralizationPolicy,
        ip_stride: int = 4,
        port_stride: int = 4,
    ) -> "ChainBuilder":
        """Derive level sets from the schema's feature types and the strides."""
        maxima = schema_max_specificity(schema)
        from repro.features.ipaddr import IPv4Prefix, IPv6Prefix
        from repro.features.ports import PortRange

        level_sets = []
        for spec, maximum in zip(schema.fields, maxima):
            if issubclass(spec.feature_type, (IPv4Prefix, IPv6Prefix)):
                stride = ip_stride
            elif issubclass(spec.feature_type, PortRange):
                stride = port_stride
            else:
                stride = 1
            levels = list(range(maximum, 0, -stride)) + [0]
            level_sets.append(levels)
        return cls(policy, level_sets)

    # -- properties -------------------------------------------------------------

    @property
    def policy(self) -> GeneralizationPolicy:
        """The generalization policy deciding which feature to widen next."""
        return self._policy

    @property
    def max_specificity(self) -> Tuple[int, ...]:
        """Specificity vector of a fully specific key."""
        return self._max

    @property
    def level_sets(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-feature generalization levels, most specific first."""
        return self._levels

    # -- chain operations ---------------------------------------------------------

    def fold_step(self, vector: Tuple[int, ...]) -> Tuple[int, int, Tuple[int, ...]]:
        """``(feature index, target specificity, parent vector)`` of the canonical parent.

        Valid for any non-root specificity vector; cached per vector, since
        the parent step is a pure function of the vector (never of the
        feature values).
        """
        step = self._fold_steps.get(vector)
        if step is None:
            index = self._policy.choose_feature(vector, self._max)
            current = vector[index]
            table = self._lower[index]
            target = table[current] if current < len(table) else table[-1]
            step = (index, target, vector[:index] + (target,) + vector[index + 1:])
            self._fold_steps[vector] = step
        return step

    def parent(self, key: FlowKey) -> FlowKey:
        """Canonical parent: one generalization step along the policy trajectory."""
        index, target, _ = self.fold_step(key.specificity_vector)
        return key.generalize_feature_to(index, target)

    def chain(self, key: FlowKey) -> Iterator[FlowKey]:
        """Yield the canonical ancestors of ``key``, ending at the root."""
        current = key
        while not current.is_root:
            current = self.parent(current)
            yield current

    def trajectory(self) -> List[Tuple[int, ...]]:
        """Specificity vectors visited by chains of fully specific keys."""
        levels: List[Tuple[int, ...]] = []
        spec = list(self._max)
        levels.append(tuple(spec))
        while any(value > 0 for value in spec):
            index = self._policy.choose_feature(spec, self._max)
            current = spec[index]
            table = self._lower[index]
            spec[index] = table[current] if current < len(table) else table[-1]
            levels.append(tuple(spec))
        return levels


_POLICIES: Dict[str, Type[GeneralizationPolicy]] = {
    policy.name: policy
    for policy in (
        RoundRobinPolicy,
        FieldOrderPolicy,
        ReverseFieldOrderPolicy,
        CoarsestFirstPolicy,
    )
}


def available_policies() -> List[str]:
    """Names of all registered generalization policies."""
    return sorted(_POLICIES)


def get_policy(name: str) -> GeneralizationPolicy:
    """Instantiate a registered policy by name.

    ``"priority:0,2,3,1"`` instantiates :class:`PriorityOrderPolicy` with the
    given feature order; other names look up the registry.  Raises
    :class:`~repro.core.errors.ConfigurationError` for unknown names.
    """
    if name.startswith("priority:"):
        try:
            order = [int(part) for part in name.split(":", 1)[1].split(",") if part != ""]
        except ValueError:
            raise ConfigurationError(
                f"invalid priority policy {name!r}; expected 'priority:0,2,3,1'"
            ) from None
        return PriorityOrderPolicy(order)
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown generalization policy {name!r}; available: {available_policies()}"
        ) from None


def schema_max_specificity(schema) -> Tuple[int, ...]:
    """Per-field specificity of a fully specific key under ``schema``.

    Derived from the feature types: 32 for IPv4 prefixes, 128 for IPv6,
    16 for port ranges, 1 for protocols.
    """
    from repro.features.ipaddr import IPv4Prefix, IPv6Prefix
    from repro.features.ports import PORT_BITS, PortRange
    from repro.features.protocol import Protocol

    maxima = []
    for spec in schema.fields:
        feature_type = spec.feature_type
        if issubclass(feature_type, (IPv4Prefix, IPv6Prefix)):
            maxima.append(feature_type.width)
        elif issubclass(feature_type, PortRange):
            maxima.append(PORT_BITS)
        elif issubclass(feature_type, Protocol):
            maxima.append(1)
        else:
            raise ConfigurationError(
                f"cannot derive maximum specificity for feature type {feature_type!r}"
            )
    return tuple(maxima)
