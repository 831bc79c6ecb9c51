"""flowlint: the AST-based invariant linter (``python -m repro.devtools.lint``).

Public surface:

* :func:`repro.devtools.lint.engine.main` — the CLI (also behind
  ``flowtree lint``): paths to lint, ``--select RULE`` and
  ``--list-rules``,
* :func:`repro.devtools.lint.engine.run` / ``check_source`` /
  ``check_project_sources`` — programmatic linting (what the test
  fixtures drive),
* :data:`repro.devtools.lint.engine.REGISTRY` — the rule registry,
* :class:`repro.devtools.lint.engine.ProjectRule` — base class for
  rules that run on the linked project model (symbol table + call
  graph + thread roots over ``src/repro``) instead of one file's AST.

See the package README section "Static analysis & development" for the
five rules and the suppression syntax
(``# flowlint: disable=<rule>[,<rule>...]``).
"""

from repro.devtools.lint.engine import (  # noqa: F401
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Finding,
    ProjectRule,
    REGISTRY,
    Rule,
    all_rules,
    check_project_sources,
    check_source,
    main,
    report_text,
    run,
)
