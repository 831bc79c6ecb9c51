"""``scripts/reach_census.py`` records what a traced root really calls.

The full census takes the better part of an hour, so this traces one
small root — the quickstart example on 20 k packets — through the same
``trace_roots`` function and checks both directions: the ingest and query
paths the example drives are reached, and a definition it never touches
is reported unreached.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "reach_census", ROOT / "scripts" / "reach_census.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart_trace_reaches_its_ingest_path():
    census = _load_census()
    reached, exit_codes = census.trace_roots(
        [("quickstart", [sys.executable, "examples/quickstart.py", "20000"])]
    )
    assert exit_codes == {"quickstart": 0}
    missing = census.unreached(reached)
    flowtree = str((ROOT / "src" / "repro" / "core" / "flowtree.py").resolve())
    defs = {name: first for first, name, _ in census.definitions()[flowtree]}
    unreached_names = {name for _, name, _ in missing.get(flowtree, [])}
    for name in ("Flowtree.add_records", "Flowtree.add", "Flowtree.estimate", "Flowtree.merged"):
        assert (flowtree, defs[name]) in reached, name
        assert name not in unreached_names
    # The example ingests record by record, so the batch path stays dark.
    assert "Flowtree.add_batch" in unreached_names
