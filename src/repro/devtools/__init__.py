"""Repo-specific developer tooling.

Home of :mod:`repro.devtools.lint` (*flowlint*), the AST-based invariant
linter that statically enforces the cross-module contracts the runtime
tests can only catch after the fact: cache-coherence of the subtree
aggregates, the temp-then-rename commit discipline of the durable stores,
wire-format version pinning, fold determinism
and exception hygiene.
"""
