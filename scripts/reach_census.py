#!/usr/bin/env python3
"""Dead-surface census: which ``src/repro`` functions do the entry points reach?

Runs each root below in a subprocess whose ``PYTHONPATH`` starts with a
temporary directory holding a ``sitecustomize`` module.  That module
records, through ``sys.setprofile`` and ``threading.setprofile``, the
``(file, co_firstlineno)`` of every Python function called under
``src/repro`` (child processes inherit the environment, so they are traced
too) and writes the set out at interpreter exit.  The script then parses
every module outside ``repro/devtools`` with ``ast`` and lists, per
module, each function definition no root reached, with its line count.

Roots: the executed fences of README.md and docs/*.md
(``scripts/check_docs.py``), the four ``examples/``, flowbench's
``run.py --smoke`` and the paper-claim benchmarks
(``benchmarks/test_bench_*.py``).  A function that only its own unit
tests call shows up as unreached: the census is the evidence for deleting
it or for keeping it with a stated reason.

A full census takes about 22 minutes on a 2-vCPU host, most of it in the
claim benchmarks, so CI does not run this script.  They run with
``--benchmark-disable``: pytest-benchmark switches the profiler off around
every timed call, and disabled it calls each benchmarked function once.
The traced smoke run fails its timing oracle (exit 1); that is expected,
since the census measures reachability, not speed.

Usage::

    python3 scripts/reach_census.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
EXCLUDED = PACKAGE / "devtools"

#: ``(file, first line)`` of a function, the key both sides agree on.
Site = Tuple[str, int]

_SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    rows = set()
    for code in list(_seen):
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(_PREFIX):
            rows.add((filename, code.co_firstlineno))
    path = os.path.join(_OUT, "reach-%d.tsv" % os.getpid())
    with open(path, "w") as handle:
        for filename, line in sorted(rows):
            handle.write("%s\\t%d\\n" % (filename, line))


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def default_roots() -> List[Tuple[str, List[str]]]:
    """``(name, argv)`` of every root, run from the repository root."""
    python = sys.executable
    docs = ["README.md"] + sorted(str(p.relative_to(REPO_ROOT)) for p in REPO_ROOT.glob("docs/*.md"))
    roots = [("docs fences", [python, "scripts/check_docs.py", *docs])]
    for example in sorted(REPO_ROOT.glob("examples/*.py")):
        name = str(example.relative_to(REPO_ROOT))
        roots.append((name, [python, name]))
    roots.append(("flowbench --smoke", [python, "benchmarks/e2e/run.py", "--smoke"]))
    benches = sorted(str(p.relative_to(REPO_ROOT)) for p in REPO_ROOT.glob("benchmarks/test_bench_*.py"))
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    roots.append(("claim benchmarks", pytest + benches))
    return roots


def trace_roots(roots: Sequence[Tuple[str, List[str]]]) -> Tuple[Set[Site], Dict[str, int]]:
    """Run each root traced; return the reached sites and each root's exit code."""
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        hook_dir = Path(tmp, "hook")
        out_dir = Path(tmp, "records")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(prefix=str(PACKAGE.resolve()) + os.sep, out=str(out_dir))
        )
        env = dict(os.environ)
        paths = [str(hook_dir), str(SRC)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        exit_codes: Dict[str, int] = {}
        for name, argv in roots:
            result = subprocess.run(
                argv, cwd=REPO_ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            exit_codes[name] = result.returncode
        reached: Set[Site] = set()
        for record in out_dir.glob("reach-*.tsv"):
            for row in record.read_text().splitlines():
                filename, line = row.rsplit("\t", 1)
                reached.add((filename, int(line)))
    return reached, exit_codes


def _walk_defs(node: ast.AST, prefix: str) -> Iterator[Tuple[int, str, int]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _walk_defs(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A decorated function's code object starts at its first decorator.
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield first, prefix + child.name, child.end_lineno - first + 1
            yield from _walk_defs(child, f"{prefix}{child.name}.")


def definitions() -> Dict[str, List[Tuple[int, str, int]]]:
    """``{module path: [(first line, qualified name, line count)]}`` outside devtools."""
    found: Dict[str, List[Tuple[int, str, int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if EXCLUDED in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[str(path.resolve())] = list(_walk_defs(tree, ""))
    return found


def unreached(reached: Set[Site]) -> Dict[str, List[Tuple[int, str, int]]]:
    """The definitions whose ``(file, first line)`` no root reached."""
    result = {}
    for path, defs in definitions().items():
        missing = [entry for entry in defs if (path, entry[0]) not in reached]
        if missing:
            result[path] = missing
    return result


def main() -> int:
    roots = default_roots()
    reached, exit_codes = trace_roots(roots)
    total = sum(len(defs) for defs in definitions().values())
    missing = unreached(reached)
    print("root exit codes:")
    for name, _ in roots:
        print(f"  {exit_codes[name]:>3}  {name}")
    count = sum(len(defs) for defs in missing.values())
    lines = sum(entry[2] for defs in missing.values() for entry in defs)
    print(f"\n{count} of {total} functions outside repro/devtools unreached ({lines} lines)\n")
    for path, defs in missing.items():
        module = os.path.relpath(path, REPO_ROOT)
        print(f"{module}  ({len(defs)} unreached, {sum(d[2] for d in defs)} lines)")
        for first, name, length in defs:
            print(f"  {first:>5}  {name}  ({length} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
