"""Compare two flowbench result files, one row per (workload, end-to-end metric).

    python -m benchmarks.e2e.compare BASE.json NEW.json

Each file is what ``run.py --out`` writes (any number of runs per workload;
traced runs are ignored, they measure one round only).  A row gives the base
and new medians, their ratio with its base, the regression bound from the root
``BENCHMARK.json`` and a verdict:

* ``worse``      the new median is worse than the base by more than the bound,
* ``unresolved`` not worse, but the run-to-run spread of either side is wider
                 than the bound, so "unchanged" cannot be claimed,
* ``better``     better than the base by more than the bound,
* ``same``       otherwise.

Exit code 1 on any ``worse`` row or on a higher ``failed_ops_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> Dict[str, List[Dict[str, object]]]:
    """Untraced runs of a result file, grouped by workload."""
    with open(path) as handle:
        document = json.load(handle)
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for run in document["runs"]:
        if not run.get("traced"):
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (``None``: one run)."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def judge(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, new median / base median)``."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    ratio = new_median / base_median if base_median else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return "worse", ratio
    spreads = [value for value in (spread(base), spread(new)) if value is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", ratio
    return ("better" if worse_by < -bound else "same"), ratio


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        manifest = json.load(handle)
    base_runs, new_runs = load_runs(arguments[0]), load_runs(arguments[1])
    failed = False
    print(f"{'workload':<20} {'metric':<26} {'base':>14} {'new':>14} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for workload in [entry["name"] for entry in manifest["workloads"]]:
        if workload not in base_runs or workload not in new_runs:
            print(f"{workload:<20} (missing from {'base' if workload not in base_runs else 'new'})")
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            base = [run["end_to_end"][name] for run in base_runs[workload]]
            new = [run["end_to_end"][name] for run in new_runs[workload]]
            verdict, ratio = judge(base, new, metric["better"], metric["bound"])
            failed = failed or verdict == "worse"
            print(f"{workload:<20} {name:<26} {statistics.median(base):>14.6g} "
                  f"{statistics.median(new):>14.6g} {ratio:>9.4f} {metric['bound']:>6.2f}  "
                  f"{verdict}  (base {statistics.median(base):.6g} {metric['unit']}, "
                  f"{len(base)} vs {len(new)} runs)")
        base_failed = statistics.median(run["end_to_end"]["failed_ops_share"] for run in base_runs[workload])
        new_failed = statistics.median(run["end_to_end"]["failed_ops_share"] for run in new_runs[workload])
        verdict = "worse" if new_failed > base_failed else "same"
        failed = failed or verdict == "worse"
        print(f"{workload:<20} {'failed_ops_share':<26} {base_failed:>14.6g} {new_failed:>14.6g} "
              f"{'':>9} {'none':>6}  {verdict}  (no increase allowed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
