"""The flowlint engine: rule framework, suppressions, reporting.

flowlint is a repo-specific static-analysis pass.  Each rule is a small
AST visitor registered with :func:`register`; the engine owns everything
around the rules — file discovery, parsing, per-line ``# flowlint:
disable=<rule>`` suppressions, the text report and exit codes — so a
new invariant costs exactly one rule module (see
:mod:`repro.devtools.lint.rules`).

The CLI takes the paths to lint, ``--select RULE`` (repeatable) and
``--list-rules``.  Exit codes: ``0`` clean, ``1`` findings (or
unparseable input), ``2`` usage errors.

Two kinds of rules coexist: per-file :class:`Rule` subclasses see one
:class:`FileContext` at a time, while :class:`ProjectRule` subclasses run
once over the :class:`~repro.devtools.lint.project.ProjectModel` linked
from every analyzed file — that is how the concurrency rules see a thread
started in one module mutate state defined in another.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.lint.project import (
    FileSummary,
    ProjectModel,
    build_project,
    extract_file,
)

#: Exit codes of the CLI (also asserted by the test suite).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

_SUPPRESS_RE = re.compile(r"#\s*flowlint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Suppression wildcard: disables every rule on the line.
SUPPRESS_ALL = "all"


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source span."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format_text(self) -> str:
        """``path:line:col: rule: message`` (the text-output line)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class FileContext:
    """Everything a rule needs about one source file.

    ``path`` is the *reporting* path (relative when possible) and also what
    rules scope themselves on via :meth:`Rule.applies_to`; ``tree`` is the
    parsed module.  Suppressions are pre-computed per physical line so
    rules never deal with comments.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = _collect_suppressions(source)

    def is_suppressed(self, finding: Finding) -> bool:
        """``True`` when a ``# flowlint: disable=`` comment covers the finding."""
        disabled = self.suppressions.get(finding.line)
        if disabled is None:
            return False
        return SUPPRESS_ALL in disabled or finding.rule in disabled


def _collect_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names disabled on that line."""
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = {name.strip() for name in match.group(1).split(",") if name.strip()}
            suppressions.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenizeError:
        # The AST parse already succeeded or failed elsewhere; comments of a
        # file the tokenizer chokes on simply cannot suppress anything.
        pass
    return suppressions


class Rule:
    """Base class of every flowlint rule.

    Subclasses set :attr:`name` / :attr:`description`, optionally narrow
    :meth:`applies_to`, and implement :meth:`check`.  Rules are stateless
    between files; per-file state lives in locals of ``check``.
    """

    #: Stable kebab-case identifier (used in output and suppressions).
    name: str = ""
    #: One-line human description (shown by ``--list-rules``).
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix-style, repo-relative)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    # -- helpers shared by the rule implementations ---------------------------

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s source position."""
        return Finding(
            rule=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that runs once over the linked project, not per file.

    Subclasses implement :meth:`check_project`; the engine feeds them the
    :class:`~repro.devtools.lint.project.ProjectModel` built from every
    analyzed ``src/repro`` file and filters the resulting findings through
    the same per-line suppressions as file findings.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield findings over the whole project."""
        raise NotImplementedError

    def project_finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """Build a finding at an explicit location (no ``FileContext``)."""
        return Finding(
            rule=self.name, path=path, line=line, col=col + 1, message=message,
        )


#: Global rule registry, keyed by rule name (populated by :func:`register`).
REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Callable[[], Rule]) -> Callable[[], Rule]:
    """Class decorator: instantiate and register a rule."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"rule {rule_cls!r} has no name")
    if rule.name in REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    REGISTRY[rule.name] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Registered rules, ordered by name (stable output ordering)."""
    _load_rules()
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def _load_rules() -> None:
    # Import for the registration side effect; cheap after the first call.
    from repro.devtools.lint import rules as _rules  # noqa: F401


# -- running ----------------------------------------------------------------------


def check_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    respect_scope: bool = True,
) -> List[Finding]:
    """Lint one in-memory source blob (the fixture-test entry point).

    ``path`` plays the role the file path plays for real files: rules scope
    themselves on it and findings report it.  ``respect_scope=False`` runs
    the given rules even on paths they would normally skip.  Project rules
    passed here are linked over this single file; multi-file fixtures use
    :func:`check_project_sources`.
    """
    resolved = list(rules) if rules is not None else all_rules()
    project_rules = [r for r in resolved if isinstance(r, ProjectRule)]
    if project_rules:
        file_rules = [r for r in resolved if not isinstance(r, ProjectRule)]
        findings = check_project_sources(
            {path: source}, rules=project_rules, respect_scope=respect_scope
        )
        if file_rules:
            findings += check_source(source, path, file_rules, respect_scope)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="parse-error",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"could not parse file: {exc.msg}",
            )
        ]
    ctx = FileContext(path, source, tree)
    findings = []
    for rule in (rules if rules is not None else all_rules()):
        if respect_scope and not rule.applies_to(path):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def check_project_sources(
    sources: Mapping[str, str],
    rules: Optional[Sequence[Rule]] = None,
    respect_scope: bool = True,
) -> List[Finding]:
    """Run project rules over in-memory ``{path: source}`` fixtures.

    Paths should look like repo paths (``src/repro/...``) so they land in
    the project model; the same per-line suppressions apply as on disk.
    """
    selected = [
        rule for rule in (rules if rules is not None else all_rules())
        if isinstance(rule, ProjectRule)
    ]
    summaries: List[FileSummary] = []
    for path, source in sorted(sources.items()):
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        summary = extract_file(
            path, source, tree=tree, suppressions=_collect_suppressions(source)
        )
        if summary is not None:
            summaries.append(summary)
    project = build_project(summaries)
    findings: List[Finding] = []
    for rule in selected:
        for finding in rule.check_project(project):
            if not project.is_suppressed_at(finding.path, finding.line, finding.rule):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into the ``*.py`` files to lint.

    Hidden directories and ``__pycache__`` are skipped.  Nonexistent paths
    raise ``FileNotFoundError`` (surfaced as a usage error by the CLI).
    """
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            parts = candidate.parts
            if any(part == "__pycache__" or part.startswith(".") for part in parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def _report_path(path: Path) -> str:
    """Repo-relative posix path when possible (stable across machines)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> "Tuple[List[Finding], int]":
    """Lint ``paths`` with every registered rule (or a ``select`` subset).

    Each file gets the per-file rules and, when a project rule is
    selected, a project-model extraction; the project rules then run once
    over the linked summaries.  Returns ``(findings, files_checked)``.
    """
    rules = all_rules()
    if select:
        unknown = sorted(set(select) - set(REGISTRY))
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(unknown)}")
        rules = [rule for rule in rules if rule.name in select]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    file_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    files = list(iter_python_files(paths))
    findings: List[Finding] = []
    summaries: List[Optional[FileSummary]] = []
    for file_path in files:
        report_path = _report_path(file_path)
        source = file_path.read_text(encoding="utf-8")
        file_findings = check_source(source, report_path, rules=file_rules)
        findings.extend(file_findings)
        if project_rules and not any(f.rule == "parse-error" for f in file_findings):
            summaries.append(extract_file(
                report_path, source, suppressions=_collect_suppressions(source)
            ))
    if project_rules:
        project = build_project(summaries)
        for rule in project_rules:
            for finding in rule.check_project(project):
                if not project.is_suppressed_at(
                    finding.path, finding.line, finding.rule
                ):
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, len(files)


# -- reporting --------------------------------------------------------------------


def report_text(findings: Sequence[Finding], files_checked: int) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format_text() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"flowlint: {len(findings)} {noun} in {files_checked} files")
    return "\n".join(lines)


# -- CLI --------------------------------------------------------------------------


def build_arg_parser(prog: str = "flowlint") -> argparse.ArgumentParser:
    """Argument parser shared by ``python -m repro.devtools.lint`` and the CLI."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="flowlint: AST-based invariant linter for the Flowtree codebase",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean (no findings)\n"
            "  1  findings reported\n"
            "  2  usage error (bad path, unknown rule)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="run only the named rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, prog: str = "flowlint") -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_arg_parser(prog=prog)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        # as return values so embedding CLIs don't die mid-process.
        return int(exc.code or 0)

    if args.list_rules:
        rules = all_rules()
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        print(f"flowlint: {len(rules)} rules; exit codes 0=clean 1=findings 2=usage")
        return EXIT_CLEAN

    try:
        findings, files_checked = run(args.paths, select=args.select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"flowlint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(report_text(findings, files_checked))
    return EXIT_FINDINGS if findings else EXIT_CLEAN
