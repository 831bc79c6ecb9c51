"""Parallel rebuild fold + primed query index (tentpole B and C).

The contract under test: :func:`repro.core.compaction.parallel_rebuild`
(and its sharded wrapper :meth:`ShardedFlowtree.compact_parallel`) is
**byte-identical** to the serial rebuild fold — each shard's fold runs the
exact serial algorithm on the exact serial input, only in a worker
process — and a rebuild leaves the per-level query index *warm* (primed
from the fold's own signatures) instead of cold.  The serial side is
``compact()`` with the rebuild strategy forced (``helpers.force_rebuild``
patches the one threshold), since these trees sit only a little over
their target.
"""

from __future__ import annotations

import random

import pytest

from helpers import force_rebuild, make_record

from repro.core.compaction import (
    _parallel_fold_worker,
    flatten_levels,
    fold_levels,
    parallel_rebuild,
)
from repro.core.config import FlowtreeConfig
from repro.core.estimator import estimate_many
from repro.core.flowtree import Flowtree
from repro.core.serialization import to_bytes
from repro.core.sharded import ShardedFlowtree
from repro.features.schema import SCHEMA_4F


def zipfish_records(n: int, seed: int = 11):
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        records.append(
            make_record(
                src=f"10.{rng.randint(0, 40)}.{rng.randint(0, 80)}.{rng.randint(0, 255)}",
                dst=f"192.168.{rng.randint(0, 3)}.{rng.randint(0, 255)}",
                sport=rng.randint(1024, 1024 + 2000),
                dport=rng.choice([53, 80, 443, 8080]),
                protocol=rng.choice([6, 17]),
                packets=rng.randint(1, 40),
                bytes=rng.randint(40, 1500),
            )
        )
    return records


def grown_tree(config: FlowtreeConfig, n: int = 4000) -> Flowtree:
    tree = Flowtree(SCHEMA_4F, config)
    tree.add_records(zipfish_records(n))
    return tree


REBUILD_CONFIG = FlowtreeConfig(max_nodes=300)


@force_rebuild()
class TestByteIdentity:
    def test_in_process_fold_matches_serial_compact(self):
        serial = grown_tree(REBUILD_CONFIG)
        parallel = grown_tree(REBUILD_CONFIG)
        removed = serial.compact()
        folded = parallel_rebuild([parallel], processes=1)
        assert folded == removed > 0
        assert to_bytes(serial) == to_bytes(parallel)

    def test_worker_fold_matches_serial_compact(self):
        serial = grown_tree(REBUILD_CONFIG)
        parallel = grown_tree(REBUILD_CONFIG)
        serial.compact()
        parallel_rebuild([parallel, grown_tree(REBUILD_CONFIG)], processes=2)
        assert to_bytes(serial) == to_bytes(parallel)

    def test_stats_match_serial_compact(self):
        serial = grown_tree(REBUILD_CONFIG)
        parallel = grown_tree(REBUILD_CONFIG)
        serial.compact()
        parallel_rebuild([parallel], processes=1)
        assert parallel.stats.snapshot() == serial.stats.snapshot()

    def test_under_target_trees_are_skipped(self):
        small = Flowtree(SCHEMA_4F, REBUILD_CONFIG)
        small.add_records(zipfish_records(20))
        before = to_bytes(small)
        assert parallel_rebuild([small], processes=2) == 0
        assert to_bytes(small) == before
        assert small.stats.rebuilds == 0

    def test_worker_function_is_deterministic(self):
        # The same flattened payload folds to the same survivors in-process
        # and across repeated calls — the property the per-shard split
        # relies on (a worker is just "the same code, elsewhere").
        tree = grown_tree(REBUILD_CONFIG)
        from repro.core.node import Counters

        def payload():
            levels, before = flatten_levels(grown_tree(REBUILD_CONFIG), ())
            root = tree.root.counters
            return (
                SCHEMA_4F.name,
                REBUILD_CONFIG,
                dict(levels),
                before,
                Counters(root.packets, root.bytes, root.flows),
                300,
            )

        first = _parallel_fold_worker(payload())
        second = _parallel_fold_worker(payload())
        assert first == second


@force_rebuild()
class TestShardedCompactParallel:
    @pytest.mark.parametrize("processes", [1, 3])
    def test_byte_identical_to_serial_compact(self, processes):
        config = FlowtreeConfig(max_nodes=600)
        records = zipfish_records(6000, seed=23)
        serial = ShardedFlowtree(SCHEMA_4F, config, num_shards=4)
        parallel = ShardedFlowtree(SCHEMA_4F, config, num_shards=4)
        serial.add_records(records)
        parallel.add_records(records)
        removed = serial.compact()
        folded = parallel.compact_parallel(processes=processes)
        assert folded == removed
        assert [to_bytes(shard) for shard in serial.shards] == [
            to_bytes(shard) for shard in parallel.shards
        ]
        parallel.validate()


@force_rebuild()
class TestPrimedIndex:
    def test_rebuild_leaves_index_warm(self):
        tree = grown_tree(REBUILD_CONFIG)
        tree.compact()
        assert tree._query_index.warm

    def test_parallel_rebuild_leaves_index_warm(self):
        tree = grown_tree(REBUILD_CONFIG)
        parallel_rebuild([tree], processes=1)
        assert tree._query_index.warm

    def test_primed_index_answers_match_cold_rebuild(self):
        primed = grown_tree(REBUILD_CONFIG)
        primed.compact()
        cold = grown_tree(REBUILD_CONFIG)
        cold.compact()
        cold._query_index.invalidate()    # force the from-scratch O(n) build
        keys = [node.key for node in cold._all_nodes()]
        assert estimate_many(primed, keys) == estimate_many(cold, keys)

    def test_primed_index_tracks_later_mutations(self):
        tree = grown_tree(REBUILD_CONFIG)
        tree.compact()
        tree.add_records(zipfish_records(500, seed=99))
        reference = grown_tree(REBUILD_CONFIG)
        reference.compact()
        reference.add_records(zipfish_records(500, seed=99))
        reference._query_index.invalidate()
        keys = [node.key for node in reference._all_nodes()][:200]
        assert estimate_many(tree, keys) == estimate_many(reference, keys)

    def test_fold_levels_signatures_cover_every_survivor(self):
        from repro.core.query import signature_at

        tree = grown_tree(REBUILD_CONFIG)
        levels, before = flatten_levels(tree, ())
        survivors, _ = fold_levels(
            levels, before, tree.root.counters, 300,
            tree.schema, tree.chain_builder, 0,
        )
        for key, _entry, sig in survivors:
            assert sig == signature_at(key, key.specificity_vector)
