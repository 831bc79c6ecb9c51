"""Sharded ingestion: hash-partitioning one logical Flowtree across N shards.

A :class:`ShardedFlowtree` splits the key space across ``num_shards``
per-shard :class:`~repro.core.flowtree.Flowtree` instances, each holding an
equal slice (``max_nodes / num_shards``) of the node budget.  Every fully
specific key lands in exactly one shard (chosen by a deterministic hash of
its wire form, so shard placement is stable across processes and runs),
which makes the shards independent: batches are partitioned once and each
shard does a smaller insertion pass over a smaller tree.

The shards are ordinary Flowtrees, so the paper's *merge* operator is all
that is needed to get back a single queryable summary
(:meth:`ShardedFlowtree.merged_tree`): merging re-enforces the full node
budget, and because compaction folds along the same canonical chains in
every shard, the merged tree is schema- and policy-compatible with any
unsharded summary.  This is the single-process counterpart of the paper's
collector merging per-site summaries.

The shards all live in this process.  Parallelism across processes is
the paper's own unit, one daemon per site (Fig. 1), not a split of one
site's stream.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import ConfigurationError
from repro.core.flowtree import Estimate, Flowtree, RecordIngest, preaggregate_records
from repro.core.key import FlowKey
from repro.core.node import Counters
from repro.features.schema import FlowSchema

#: Shards used when the caller does not specify a count.
DEFAULT_NUM_SHARDS = 4


def _combine_shard_estimates(key: FlowKey, parts: Sequence[Estimate]) -> Estimate:
    """Reduce per-shard estimates of one key into the structure-level answer.

    Shared by :meth:`ShardedFlowtree.estimate` and
    :meth:`ShardedFlowtree.estimate_many` so the two can never disagree.
    Estimate's contract: an exact answer carries no proportional
    component.  The key may be kept in one shard while others still
    attribute ancestor shares, so the combined answer is only exact when
    those shares are all zero.
    """
    total = Counters()
    descendants = Counters()
    ancestor = Counters()
    any_exact = False
    for part in parts:
        total.add(part.counters)
        descendants.add(part.from_descendants)
        ancestor.add(part.from_ancestor)
        any_exact = any_exact or part.exact_node
    return Estimate(
        key=key,
        counters=total,
        exact_node=any_exact and ancestor.is_zero,
        from_descendants=descendants,
        from_ancestor=ancestor,
    )


def shard_index(key: FlowKey, num_shards: int) -> int:
    """Deterministic shard for ``key`` (stable across processes and runs).

    Uses CRC-32 of the key's wire form rather than ``hash()`` because
    feature hashes mix in interned strings, which Python randomizes per
    process; two daemons sharding the same stream must agree on placement.
    """
    digest = zlib.crc32("|".join(key.to_wire()).encode("utf-8"))
    return digest % num_shards


def shard_config_for(config: FlowtreeConfig, num_shards: int) -> FlowtreeConfig:
    """Per-shard configuration: the total node budget split evenly.

    Each shard keeps at least the minimum viable 16 nodes, so very small
    budgets with many shards may slightly overshoot the total.  Every
    other knob carries over verbatim, and the compaction strategy is chosen
    per shard against the shard's own (divided) budget.
    """
    if config.max_nodes is None:
        return config
    return config.with_max_nodes(max(16, config.max_nodes // num_shards))


def partition_aggregated(
    chunk: List[object],
    schema: FlowSchema,
    count_bytes: bool,
    num_shards: int,
) -> Tuple[List[List[Tuple[FlowKey, int, int, int]]], List[int]]:
    """Pre-aggregate one chunk of records and partition it by shard.

    Returns ``(per_shard_items, per_shard_record_counts)``: for every shard
    the ``(key, packets, bytes, flows)`` tuples it must fold (in first-seen
    order) and how many raw records those tuples summarize.
    """
    pending = preaggregate_records(chunk, schema.signature_of, count_bytes)
    per_shard: List[List[Tuple[FlowKey, int, int, int]]] = [[] for _ in range(num_shards)]
    per_shard_records = [0] * num_shards
    for entry in pending.values():
        key = FlowKey.from_record(schema, entry[3])
        index = shard_index(key, num_shards)
        per_shard[index].append((key, entry[0], entry[1], entry[2]))
        per_shard_records[index] += entry[2]
    return per_shard, per_shard_records


class ShardedFlowtree(RecordIngest):
    """N hash-partitioned Flowtrees behaving like one bigger one.

    Args:
        schema: flow schema shared by every shard.
        config: logical configuration; ``max_nodes`` is the *total* budget,
            divided evenly across shards (each shard keeps at least the
            minimum viable 16 nodes, so very small budgets with many shards
            may slightly overshoot the total).
        num_shards: how many partitions to maintain.

    Example::

        sharded = ShardedFlowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=40_000), num_shards=8)
        sharded.add_batch(trace)
        tree = sharded.merged_tree()   # ordinary Flowtree, full budget
    """

    def __init__(
        self,
        schema: FlowSchema,
        config: Optional[FlowtreeConfig] = None,
        num_shards: int = DEFAULT_NUM_SHARDS,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be at least 1, got {num_shards}")
        self._schema = schema
        self._config = config or FlowtreeConfig()
        self._num_shards = num_shards
        shard_config = shard_config_for(self._config, num_shards)
        self._shards = tuple(Flowtree(schema, shard_config) for _ in range(num_shards))
        self._records_ingested = 0

    def _apply(
        self, index: int, items: List[Tuple[FlowKey, int, int, int]], record_count: int
    ) -> None:
        """Fold one partitioned sub-batch into shard ``index``."""
        self._shards[index].add_aggregated(items, record_count=record_count)

    # -- basic properties -----------------------------------------------------

    @property
    def schema(self) -> FlowSchema:
        """The flow schema every shard summarizes."""
        return self._schema

    @property
    def config(self) -> FlowtreeConfig:
        """The logical (whole-structure) configuration."""
        return self._config

    @property
    def num_shards(self) -> int:
        """Number of partitions."""
        return self._num_shards

    @property
    def shards(self) -> Tuple[Flowtree, ...]:
        """The per-shard Flowtrees (read-only view; each is a normal tree)."""
        return self._shards

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def node_count(self) -> int:
        """Total kept nodes across all shards (each shard has its own root)."""
        return len(self)

    def shard_for_key(self, key: FlowKey) -> int:
        """Index of the shard responsible for ``key``."""
        return shard_index(key, self._num_shards)

    # -- update path ----------------------------------------------------------

    def add(self, key: FlowKey, packets: int = 1, bytes: int = 0, flows: int = 1) -> None:
        """Charge counters to ``key`` in its shard (a one-item sub-batch).

        Per-record sharded ingest is a one-item ``_apply`` (about 10 % slower
        than :meth:`Flowtree.add`); use :meth:`add_batch` for streams.
        """
        self._apply(self.shard_for_key(key), [(key, packets, bytes, flows)], 1)
        self._records_ingested += 1

    def _add_chunk(self, records: List[object]) -> None:
        """Pre-aggregate and partition one chunk; each shard folds its slice
        in one :meth:`~repro.core.flowtree.Flowtree.add_aggregated` pass, so
        the per-record costs are paid once no matter how many shards exist."""
        per_shard, per_shard_records = partition_aggregated(
            records, self._schema, self._config.count_bytes, self._num_shards
        )
        for index, items in enumerate(per_shard):
            if items:
                self._apply(index, items, per_shard_records[index])
        self._records_ingested += len(records)

    # -- queries and export ----------------------------------------------------

    def total_counters(self) -> Counters:
        """Total traffic summarized across all shards."""
        total = Counters()
        for shard in self._shards:
            total.add(shard.total_counters())
        return total

    def items(self) -> Iterator[Tuple[FlowKey, Counters]]:
        """Iterate ``(key, complementary counters)`` over every shard.

        Shard roots all carry the same all-wildcard key; callers that need
        one coherent tree should use :meth:`merged_tree` instead.
        """
        for shard in self._shards:
            yield from shard.items()

    def estimate(self, key: FlowKey) -> Estimate:
        """Estimated popularity of ``key``, summed across shards.

        Fully specific keys live in exactly one shard, so their estimate
        matches the owning shard's.  Generalized keys span shards; the
        per-shard estimates are additive because the shards partition the
        traffic.  For repeated or merge-sensitive queries, build a
        :meth:`merged_tree` once and query that.
        """
        return _combine_shard_estimates(
            key, [shard.estimate(key) for shard in self._shards]
        )

    def estimate_many(self, keys: Iterable[FlowKey]) -> Dict[FlowKey, Estimate]:
        """Batch form of :meth:`estimate` (the preferred bulk API).

        Fans one :func:`~repro.core.estimator.estimate_many` call out per
        shard — each shard primes its subtree aggregates once for the
        whole batch — and combines the per-shard answers with the exact
        reduction :meth:`estimate` uses, so the result is byte-identical
        to per-key :meth:`estimate` calls.
        """
        from repro.core.estimator import estimate_many as _estimate_many

        keys = list(keys)
        per_shard = [_estimate_many(shard, keys) for shard in self._shards]
        return {
            key: _combine_shard_estimates(
                key, [answers[key] for answers in per_shard]
            )
            for key in keys
        }

    def merged_tree(self, config: Optional[FlowtreeConfig] = None) -> Flowtree:
        """Merge every shard into one Flowtree via the paper's merge operator.

        The result uses the logical configuration (full node budget) unless
        ``config`` overrides it, so merging re-enforces the total budget.
        """
        result = Flowtree(self._schema, config or self._config)
        for shard in self._shards:
            result.merge(shard)
        return result

    # -- maintenance ------------------------------------------------------------

    def compact(self) -> int:
        """Compact every shard to its target size; returns nodes removed."""
        return sum(shard.compact() for shard in self._shards)

    def validate(self) -> None:
        """Validate the structural invariants of every shard."""
        for shard in self._shards:
            shard.validate()

    @property
    def records_ingested(self) -> int:
        """Raw records charged through any ingestion path of this structure.

        ``add``/``add_record``/``add_records``/``add_batch`` all advance
        this by exactly the count they return, so benchmarks and the daemon
        can compare ingestion paths on one number.
        """
        return self._records_ingested

    def stats_snapshot(self) -> Dict[str, int]:
        """Aggregated work counters over all shards (plain dict).

        The per-shard :class:`~repro.core.flowtree.UpdateStats` counters and
        node counts are summed, and the structure-level numbers (``shards``,
        ``records_ingested``) ride along.
        """
        totals: Dict[str, int] = {}
        for shard in self._shards:
            for name, value in dict(shard.stats.snapshot(), nodes=len(shard)).items():
                totals[name] = totals.get(name, 0) + value
        totals["shards"] = self._num_shards
        totals["records_ingested"] = self._records_ingested
        return totals

    def __repr__(self) -> str:
        return (
            f"ShardedFlowtree(schema={self._schema.name!r}, shards={self._num_shards}, "
            f"nodes={self.node_count()})"
        )
