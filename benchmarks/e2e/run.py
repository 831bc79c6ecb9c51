"""flowbench entry point.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python -m benchmarks.e2e.run --seed N [--workload W] [--traced] [--smoke] [--out F]

With ``--workload`` the workload runs in this process (so ``peak_rss_mb`` is
its own).  Without it every workload runs in a fresh subprocess, one after the
other.  Every metric is printed by name with its unit, the correctness oracle
runs, and the exit code is non-zero if any check fails.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".flowbench"
DEFAULT_SEED = 2018


def _load_harness():
    """Import the harness whether run as a script or with ``-m``."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.stderr.write(f"flowbench: no program to measure: {source / 'repro'} is missing\n")
        raise SystemExit(2)
    for entry in (str(source), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e import harness, workloads
    return harness, workloads


def host_info(seed: int) -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
        "commit": commit, "seed": seed, "loadavg_1m_at_start": os.getloadavg()[0],
    }


def noisy_host() -> bool:
    """Noise policy: tag (do not refuse) when the host is already busy.

    Back-to-back runs keep the 1-minute load average near 1 on their own, so
    refusing would reject every run after the first.
    """
    return os.getloadavg()[0] > 0.5 * (os.cpu_count() or 1)


def print_metrics(title: str, values: Dict[str, float], catalogue: Dict[str, tuple]) -> None:
    print(title)
    for name, (unit, _) in catalogue.items():
        if name in values:
            print(f"  {name:<52} {values[name]:>16.6g} {unit}")


def final_line(result: Dict[str, object], traced: bool, harness) -> str:
    group, catalogue = (
        ("per_layer", harness.PER_LAYER) if traced else ("end_to_end", harness.END_TO_END)
    )
    metrics = {
        name: {"value": result[group][name], "unit": unit}
        for name, (unit, _) in catalogue.items()
        # failed/attempted carry this one; it is 0 on a healthy run.
        if name != "failed_ops_share"
    }
    return json.dumps({
        "correct": bool(result["correct"]), "attempted": int(result["attempted"]),
        "failed": int(result["failed"]), "metrics": metrics,
    })


def append_out(path: str, seed: int, runs: List[Dict[str, object]]) -> None:
    """Add ``runs`` to the result file at ``path`` (created with host facts)."""
    document: Dict[str, object] = {"format": "flowbench-results-1", "host": host_info(seed), "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document["runs"].extend(runs)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_one(args: argparse.Namespace) -> int:
    harness, workloads = _load_harness()
    spec = workloads.workload(args.workload)
    noisy = noisy_host()
    if noisy:
        sys.stderr.write("flowbench: 1-min load average above 0.5 x nproc; result tagged noisy\n")
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK)
    spans_path = str(WORK / f"spans-{spec.name}-{args.seed}.jsonl") if args.trace else None
    started = time.perf_counter()
    result = harness.run_workload(
        spec, args.seed, args.seconds, bool(args.trace), workdir, spans_path
    )
    result.update(seconds=args.seconds, noisy=noisy, wall_s=time.perf_counter() - started)
    label = f"[{spec.name}] seed {args.seed}, --seconds {args.seconds:g}" + (", noisy" if noisy else "")
    print_metrics(f"{label}: end-to-end", result["end_to_end"], harness.END_TO_END)
    if args.trace:
        print_metrics(f"{label}: per-layer", result["per_layer"], harness.PER_LAYER)
        print(f"  spans written to {spans_path}")
    print(f"  sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    print(f"  oracle: {result['attempted']} operations checked, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if args.out:
        append_out(args.out, args.seed, [result])
    print(final_line(result, bool(args.trace), harness))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh subprocess; a traced pass is a second run."""
    _, workloads = _load_harness()
    WORK.mkdir(exist_ok=True)
    modes = [0, 1] if args.trace else [0]
    runs: List[Dict[str, object]] = []
    exit_code = 0
    for spec in workloads.WORKLOADS:
        for trace in modes:
            scratch = str(WORK / f"result-{os.getpid()}-{spec.name}-{trace}.json")
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", spec.name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", scratch,
            ]
            try:
                completed = subprocess.run(command, capture_output=True, text=True, check=False)
                lines = completed.stdout.rstrip("\n").split("\n")
                print("\n".join(lines[:-1]))      # the child's last line is folded into ours
                sys.stderr.write(completed.stderr)
                if completed.returncode != 0:
                    exit_code = 1
                if os.path.exists(scratch):
                    with open(scratch) as result_file:
                        runs.extend(json.load(result_file)["runs"])
            finally:
                if os.path.exists(scratch):
                    os.unlink(scratch)
    if args.out:
        append_out(args.out, args.seed, runs)
    metrics = {
        f"{run['workload']}/{name}": {"value": value}
        for run in runs
        for name, value in run["per_layer" if run["traced"] else "end_to_end"].items()
    }
    print(json.dumps({
        "correct": exit_code == 0 and all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs), "metrics": metrics,
    }))
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="flowbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured work per run, in seconds on the reference host (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the traced passes and print the per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and its traced pass at 1/20 scale (--seconds 1)")
    parser.add_argument("--out", help="append the results to this JSON file")
    args = parser.parse_args(argv)
    if args.smoke:
        args.trace = 1
        args.seconds = 1.0 if args.seconds is None else args.seconds
    if args.seconds is None:
        args.seconds = 20.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
