"""Repo-specific developer tooling.

Home of :mod:`repro.devtools.lint` (*flowlint*), the AST-based invariant
linter that statically enforces the cross-module contracts the runtime
tests can only catch after the fact: cache-coherence of the subtree
aggregates, fold determinism, exception hygiene, and the lock discipline
and thread confinement of state shared across threads.
"""
