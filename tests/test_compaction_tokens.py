"""Token-space incremental compaction: byte identity, laws and work counts.

The incremental :class:`~repro.core.compaction.Compactor` carries victims
as ``(specificity vector, token signature)`` pairs over the query index's
registry.  That is a change of representation only, so it is held to the
strictest standard available:

* **golden digests** — ``compaction_tokens_golden.json`` holds the SHA-256
  of ``to_bytes(tree)`` + ``tree.stats.snapshot()`` recorded from the
  key-space compactor (the parent of the commit that introduced this file)
  for a seeded corpus; every digest must be reproduced exactly.  Re-record
  (``PYTHONPATH=src python tests/test_compaction_tokens.py``) only for a
  change that is *meant* to move tree bytes.
* **laws** — a Hypothesis property over random batches: conservation, the
  node budget, structural validity and indexed == reference answers, with
  the index cold and with it warm (projections materialised) beforehand.
* **work count** — ``FlowKey`` constructions per folded node, counted, not
  timed, so the tripwire survives a noisy host.
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings

from helpers import SimpleRecord, force_incremental, key2
from test_query_index import _assert_indexed_matches_reference, records_strategy

from repro.core import Flowtree, FlowtreeConfig, to_bytes
from repro.core.key import FlowKey
from repro.core.query import QueryIndex
from repro.features.schema import SCHEMA_2F_SRC_DST, SCHEMA_4F

GOLDEN_PATH = Path(__file__).with_name("compaction_tokens_golden.json")

#: Fixed on purpose (not ``available_policies()``): the golden corpus must
#: not move when a built-in policy is added, and ``priority:1,0`` is not a
#: registry name.
POLICIES = (
    "round-robin",
    "field-order",
    "reverse-field-order",
    "coarsest-first",
    "priority:1,0",
)
SCHEMAS = {"2f": SCHEMA_2F_SRC_DST, "4f": SCHEMA_4F}
SCENARIOS = ("add", "add_batch", "merge", "compact")
BUDGET = 80


def corpus(seed: int, count: int = 600):
    """Clustered flows: victims meet siblings and aggregates at many levels."""
    rng = random.Random(seed)
    sources = [(10 << 24) | (rng.randrange(4) << 16) | (rng.randrange(6) << 8)
               for _ in range(8)]
    sinks = [(192 << 24) | (168 << 16) | (rng.randrange(3) << 8) for _ in range(3)]
    records = []
    for _ in range(count):
        packets = rng.choice((1, 1, 1, 1, 1, 2, 2, 3, 5, 20))
        records.append(
            SimpleRecord(
                src_ip=rng.choice(sources) | rng.randrange(64),
                dst_ip=rng.choice(sinks) | rng.randrange(16),
                src_port=1024 + rng.randrange(48),
                dst_port=rng.choice((53, 80, 443, 8000 + rng.randrange(32))),
                packets=packets,
                bytes=packets * 100,
            )
        )
    return records


def build(case):
    """One corpus case; always on the incremental side of the dispatch."""
    scenario, schema_name, policy, protected, victim_batch = case
    schema = SCHEMAS[schema_name]
    config = FlowtreeConfig(
        max_nodes=BUDGET,
        policy=policy,
        protected_min_count=protected,
        victim_batch=victim_batch,
    )
    records = corpus(seed=len(policy) * 31 + len(schema) * 7 + protected + victim_batch)
    with force_incremental():
        if scenario == "add":
            tree = Flowtree(schema, config)
            tree.add_records(records)
        elif scenario == "add_batch":
            tree = Flowtree(schema, config)
            tree.add_batch(records, batch_size=128)
        elif scenario == "merge":
            # The other tree folds along a different trajectory, so its
            # aggregates arrive here as off-trajectory keys.
            other_policy = POLICIES[(POLICIES.index(policy) + 1) % len(POLICIES)]
            tree = Flowtree(schema, config)
            tree.add_batch(records[::2], batch_size=128)
            other = Flowtree(schema, replace(config, policy=other_policy))
            other.add_batch(records[1::2], batch_size=128)
            tree.merge(other)
            tree.compact()
        else:
            tree = Flowtree(schema, replace(config, max_nodes=4_000))
            tree.add_batch(records)
            tree.compact(BUDGET // 2)
    return tree


def digest(tree) -> str:
    stats = json.dumps(tree.stats.snapshot(), sort_keys=True).encode()
    return hashlib.sha256(to_bytes(tree) + stats).hexdigest()


CASES = [
    (scenario, schema_name, policy, protected, victim_batch)
    for scenario in SCENARIOS
    for schema_name in SCHEMAS
    for policy in POLICIES
    for protected in (0, 3)
    for victim_batch in (1, 64)
]


def case_id(case) -> str:
    scenario, schema_name, policy, protected, victim_batch = case
    return f"{scenario}/{schema_name}/{policy}/protected={protected}/batch={victim_batch}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_corpus(golden):
    assert sorted(golden) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reproduces_key_space_compactor_bytes(case, golden):
    tree = build(case)
    tree.validate()
    assert tree.stats.compactions > 0 and tree.stats.rebuilds == 0
    assert digest(tree) == golden[case_id(case)]


class TestLaws:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold-index", "warm-index"])
    @settings(max_examples=25, deadline=None)
    @given(records=records_strategy)
    def test_incremental_compaction_laws(self, warm, records):
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=4096, victim_batch=8))
        tree.add_batch(records, batch_size=0)
        assume(len(tree) >= 4)
        if warm:
            # Materialise projections, so the hooks maintain them too.
            _assert_indexed_matches_reference(tree, records)
        assert tree._query_index.warm == warm
        total = tree.total_counters()
        target = max(2, len(tree) // 2)
        with force_incremental():
            assert tree.compact(target) > 0
        assert tree.stats.rebuilds == 0
        assert len(tree) <= target
        assert tree.total_counters() == total
        tree.validate()
        # The compactor leaves the registry warm and exactly what a cold
        # build over the compacted tree would produce.
        assert tree._query_index.warm
        assert tree._query_index.registry() == QueryIndex(tree).registry()
        _assert_indexed_matches_reference(tree, records)
        # ... and inserts after it keep it that way.
        tree.add_batch(records[: len(records) // 2], batch_size=0)
        assert tree._query_index.registry() == QueryIndex(tree).registry()
        _assert_indexed_matches_reference(tree, records)


def test_singleton_does_not_recreate_a_target_folded_earlier_in_the_level():
    """A victim can be another victim's chain ancestor without being its parent.

    ``narrow`` sits under an off-trajectory node, so ``wide`` — which
    contains it — stays a leaf.  Both are victims; in the level where
    ``narrow`` reaches ``wide``'s key, ``wide`` (fewer packets, folded
    first) has just gone into ``kept``.  ``narrow`` must keep climbing to
    ``kept`` instead of resurrecting ``wide`` as an empty aggregate.
    """
    tree = Flowtree(SCHEMA_2F_SRC_DST, FlowtreeConfig(max_nodes=16))
    narrow = key2("10.0.0.1", "192.168.0.5")
    off_trajectory = key2("10.0.0.0/8", "192.168.0.5")
    kept = key2("10.0.0.0/16", "192.168.0.0/16")
    wide = key2("10.0.0.0/24", "192.168.0.0/24")
    tree.add(narrow, packets=2)
    tree.add(off_trajectory, packets=50)
    tree.add(kept, packets=50)
    tree.add(wide, packets=1)
    assert tree._get_node(narrow).parent.key == off_trajectory
    assert tree._get_node(wide).is_leaf
    with force_incremental():
        assert tree.compact(3) == 2
    tree.validate()
    assert sorted(tree.keys()) == sorted([FlowKey.root(SCHEMA_2F_SRC_DST), off_trajectory, kept])
    assert tree.complementary_counters(kept).packets == 53
    assert tree.stats.inserts == 4  # nothing was created along the way


def test_flowkeys_built_per_folded_node():
    """Work count, not timing: the climb builds no keys (key space: ~30 per fold)."""
    tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=4_000))
    tree.add_batch(corpus(seed=14, count=700))
    assert 650 <= len(tree) <= 710
    built = 0
    real_init = FlowKey.__init__

    def counting_init(self, features):
        nonlocal built
        built += 1
        real_init(self, features)

    with force_incremental(), mock.patch.object(FlowKey, "__init__", counting_init):
        folded = tree.compact(560)
    assert folded >= 90 and len(tree) <= 560
    assert built <= 2 * folded, f"{built} FlowKeys for {folded} folded nodes"


if __name__ == "__main__":  # pragma: no cover - deliberate re-record only
    recorded = {case_id(case): digest(build(case)) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} digests to {GOLDEN_PATH}")
