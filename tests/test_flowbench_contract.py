"""flowbench still runs against this tree — a tier-1 tripwire.

``BENCHMARK.json`` declares ``benchmarks/e2e/run.py`` as the repo's
benchmark and the directory is frozen, but nothing else under ``tests/``
imports it, so a refactor can break a surface its adapter
(``benchmarks/e2e/layers.py`` / ``staged.py``) pins — store methods and
``StoreStats.snapshot()`` keys, the instance-level shims it sets on
``store.put`` / ``store.get`` / ``series.query_range_many``, the
``Collector`` / ``CollectorConfig`` constructors — and only find out when
the pipeline rejects the PR.  Two short traced runs (the hop-by-hop path
touches every pinned surface and checks byte identity with the store)
make that a ``pytest -x -q`` failure instead.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "run.py"


@pytest.mark.parametrize("workload", ["small-bins-cold", "churn-flood"])
def test_short_traced_run_is_correct(workload):
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    verdict = json.loads(result.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
    assert verdict["attempted"] > 0
