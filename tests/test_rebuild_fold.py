"""Bulk-rebuild fold: byte identity, branch coverage and work counts.

:func:`~repro.core.compaction.fold_levels` stops walking victims whose fate
is decided: at a level where nothing waits at a shallower depth, the
survivors picked there fill the budget, every later level would keep
nothing, and so each victim would climb its whole canonical chain into the
root.  The fold charges those victims to the root directly.  That must not
move a byte, so it is held to the standard of ``test_compaction_tokens``:

* **golden digests** — ``rebuild_fold_golden.json`` holds, per case, the
  digest of ``to_bytes(tree)`` + ``tree.stats.snapshot()`` after every
  ``add_batch`` and after a final forced-rebuild ``compact(budget // 2)``,
  recorded from the fold that walked every victim up its chain (the parent
  of the commit that introduced this file).  Re-record
  (``PYTHONPATH=src python tests/test_rebuild_fold.py``) only for a change
  that is *meant* to move tree bytes.
* **branch coverage** — every level of every rebuild is classified from
  the outside (did the fold step a vector of that depth, or did its
  victims go to the root without a step?), and the grid must exercise
  both ways.
* **work count** — ``Feature.mask_raw`` calls, counted, not timed.
"""

import contextlib
import functools
import json
import random
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import SimpleRecord, force_incremental, force_rebuild
from test_compaction_tokens import corpus, digest

from repro.core import Flowtree, FlowtreeConfig, compaction
from repro.features.schema import SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator, DdosTraceGenerator
from repro.traces.ddos import DdosScenario

GOLDEN_PATH = Path(__file__).with_name("rebuild_fold_golden.json")

PACKETS = 24_000
TRACES = {
    # flowbench's churn-flood trace: a randomized-source flood, most
    # records distinct, the budget filled by full-specificity survivors.
    "ddos-heavy": lambda seed: DdosTraceGenerator(
        DdosScenario(attacker_count=200_000, attack_fraction=0.85), seed=seed
    ),
    "ddos-light": lambda seed: DdosTraceGenerator(
        DdosScenario(attacker_count=3_000, attack_fraction=0.40), seed=seed
    ),
    "caida": lambda seed: CaidaLikeTraceGenerator(seed=seed),
}
BUDGETS = (32, 128, 512)
PROTECTED = (0, 3)
CHUNKS = (24_000, 6_000, 1_500)

CASES = [
    (trace, budget, protected, chunk)
    for trace in TRACES
    for budget in BUDGETS
    for protected in PROTECTED
    for chunk in CHUNKS
]
#: Not in the grid: a tree holding coarse aggregates from incremental
#: compaction meets a flood, so the rebuild starts with shallow entries.
AGGREGATES_CASE = "aggregates-then-flood"


def case_id(case) -> str:
    trace, budget, protected, chunk = case
    return f"{trace}/budget={budget}/protected={protected}/chunk={chunk}"


@functools.lru_cache(maxsize=None)
def trace_packets(trace: str, seed: int):
    return tuple(TRACES[trace](seed).packets(PACKETS))


def replay(case):
    """One grid case: its digests after every ``add_batch`` and the compact."""
    trace, budget, protected, chunk = case
    config = FlowtreeConfig(max_nodes=budget, protected_min_count=protected)
    tree = Flowtree(SCHEMA_4F, config)
    packets = trace_packets(trace, CHUNKS.index(chunk) + 1)
    steps = []
    for start in range(0, len(packets), chunk):
        tree.add_batch(packets[start:start + chunk], batch_size=0)
        steps.append(digest(tree))
    with force_rebuild():
        tree.compact(budget // 2)
    steps.append(digest(tree))
    return steps


def flood(count: int, seed: int):
    """``count`` distinct single-packet flows (every key is new)."""
    rng = random.Random(seed)
    return [
        SimpleRecord(
            src_ip=rng.getrandbits(32),
            dst_ip=(203 << 24) | (113 << 8) | rng.randrange(4),
            src_port=1024 + index,
            dst_port=53,
        )
        for index in range(count)
    ]


def replay_aggregates(probes=contextlib.nullcontext):
    """The aggregates case; ``probes()`` is entered around the flood only.

    Incremental rounds over clustered flows leave the 64-node tree holding
    coarse aggregates before the flood arrives.
    """
    tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
    with force_incremental():
        tree.add_records(corpus(seed=28, count=400))
    steps = [digest(tree)]
    with probes():
        tree.add_batch(flood(1_000, seed=28), batch_size=0)
    steps.append(digest(tree))
    return tree, steps


class _RecordingLevels(defaultdict):
    """The fold's ``levels``, noting each depth it visits and the size then."""

    def __init__(self, levels):
        super().__init__(dict, levels)
        self.visits = []

    def get(self, depth, default=None):
        at_depth = super().get(depth, default)
        self.visits.append((depth, _held(at_depth)))
        return at_depth


def _held(at_depth) -> int:
    return sum(len(bucket) for bucket in at_depth.values()) if at_depth else 0


@contextlib.contextmanager
def classify_levels():
    """Count which way each visited level's victims went, over every rebuild.

    A level's victims are what it held when the fold visited it minus what
    it holds at the end: only deeper levels feed it, all before the visit.
    They ``walk`` when the fold stepped a vector of that depth, and went to
    the ``root`` directly otherwise — which may only be the last level a
    rebuild visits.
    """
    branches = Counter()
    real = compaction.fold_levels

    def spy(levels, before, root_counters, target_nodes, schema, chain_builder, *rest):
        recording = _RecordingLevels(levels)
        stepped = set()

        def fold_step(vec):
            stepped.add(sum(vec))
            return chain_builder.fold_step(vec)

        result = real(
            recording, before, root_counters, target_nodes, schema,
            SimpleNamespace(fold_step=fold_step), *rest,
        )
        ways = [
            "walk" if depth in stepped else "root"
            for depth, held in recording.visits
            if held > _held(dict.get(recording, depth))
        ]
        assert "root" not in ways[:-1], ways
        branches.update(ways)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compaction, "fold_levels", spy)
        yield branches


@contextlib.contextmanager
def counting_mask_raw(schema):
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for feature_type in dict.fromkeys(spec.feature_type for spec in schema.fields):
            real = feature_type.mask_raw

            def counting(token, target, real=real):
                calls["mask_raw"] += 1
                return real(token, target)

            patch.setattr(feature_type, "mask_raw", staticmethod(counting))
        yield calls


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def replayed():
    """Every grid case replayed once, with the branch counts of the grid."""
    with classify_levels() as branches:
        steps = {case_id(case): replay(case) for case in CASES}
    return steps, branches


def test_golden_file_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted([AGGREGATES_CASE, *map(case_id, CASES)])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reproduces_walking_fold_bytes(case, golden, replayed):
    steps, _ = replayed
    assert steps[case_id(case)] == golden[case_id(case)]


def test_grid_takes_both_ways(replayed):
    _, branches = replayed
    assert branches["root"] > 0 and branches["walk"] > 0, branches


def test_flood_into_an_empty_tree_never_masks_a_token():
    """≥ 10x the budget in distinct keys: the fold steps nothing.

    Everything sits at full specificity, so the first level's survivors
    fill the budget and its victims go straight to the root (the walk made
    one ``mask_raw`` per victim per level: 16,448 calls here).
    """
    tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=64))
    records = flood(1_000, seed=7)
    with counting_mask_raw(SCHEMA_4F) as calls:
        tree.add_batch(records, batch_size=0)
    assert tree.stats.rebuilds == 1 and len(tree) <= 64
    assert tree.total_counters().packets == len(records)
    assert calls["mask_raw"] == 0


def test_flood_onto_coarse_aggregates_still_walks(golden):
    """Shallow entries wait above the flood, so the fold must step.

    (A ``walk`` at the first level is itself proof that the setup held
    coarse aggregates: without them nothing waits above it.)
    """
    calls = Counter()
    branches = Counter()

    @contextlib.contextmanager
    def probes():
        with counting_mask_raw(SCHEMA_4F) as counted, classify_levels() as ways:
            yield
        calls.update(counted)
        branches.update(ways)

    tree, steps = replay_aggregates(probes)
    assert tree.stats.rebuilds == 1
    assert calls["mask_raw"] > 0 and branches["walk"] > 0, (calls, branches)
    assert steps == golden[AGGREGATES_CASE]


if __name__ == "__main__":  # pragma: no cover - deliberate re-record only
    recorded = {case_id(case): replay(case) for case in CASES}
    recorded[AGGREGATES_CASE] = replay_aggregates()[1]
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN_PATH}")
