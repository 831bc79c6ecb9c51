"""fold-determinism: set iteration feeding folds/output must be sorted.

Serialization, compaction and the durable stores all promise
deterministic output: the same tree serializes to the same bytes, the same
overflow folds the same victims, reopening a store replays the same state.
``set`` iteration order is not deterministic across processes (string
hashing is randomized per interpreter), so a ``for`` loop over a set —
or a list/comprehension built from one — inside those modules silently
breaks byte-identity between runs.

The rule tracks locals bound to set expressions (literals, comprehensions,
``set()``/``frozenset()`` calls) within a scope and flags loops and
ordered comprehensions whose iterable is one, unless it is wrapped in
``sorted(...)``.  Order-insensitive reductions (``sum``/``min``/``max``/
``any``/``all``/``len`` over a generator, membership tests, ``set()``
rebuilds) are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.helpers import iter_scope_nodes, iter_scopes, parent_map

#: Call names whose consumption of an unordered iterable is order-insensitive.
_ORDER_INSENSITIVE_CONSUMERS = (
    "sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted",
    "Counter",
)

#: Modules whose output must be deterministic (scoped by path fragment).
_SCOPED_PATHS = (
    "repro/core/serialization.py",
    "repro/core/compaction.py",
    "distributed/stores/",
)


def _is_set_expr(node: ast.AST, tainted: Set[str]) -> bool:
    """``node`` evaluates to a set, as far as local evidence shows."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
        # list(<set>) / tuple(<set>) / iter(<set>) keep the unordered order.
        if node.func.id in ("list", "tuple", "iter", "reversed") and node.args:
            return _is_set_expr(node.args[0], tainted)
    if isinstance(node, ast.Name):
        return node.id in tainted
    return False


def _set_taints(scope: ast.AST) -> Set[str]:
    """Local names bound to set expressions anywhere in the scope."""
    tainted: Set[str] = set()
    # Two passes so order of assignment vs. use does not matter for taint
    # (a scope is judged as a whole, like the other rules do).
    for _ in range(2):
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, tainted):
                        tainted.add(target.id)
                    else:
                        tainted.discard(target.id)
    return tainted


def _ordered_consumer(node: ast.AST, parents: "dict[ast.AST, ast.AST]") -> bool:
    """Whether the comprehension/loop at ``node`` feeds an ordered consumer."""
    parent = parents.get(node)
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)) and isinstance(parent, ast.Call):
        # A comprehension consumed *directly* by an order-insensitive
        # reduction (``len([...])``, ``sum(... for ...)``) never exposes
        # the iteration order.
        if isinstance(parent.func, ast.Name) and parent.func.id in _ORDER_INSENSITIVE_CONSUMERS:
            return False
    return True


@register
class FoldDeterminismRule(Rule):
    name = "fold-determinism"
    description = (
        "unordered set iteration feeding serialization/compaction/store "
        "output; wrap the iterable in sorted(...)"
    )

    def applies_to(self, path: str) -> bool:
        return any(fragment in path for fragment in _SCOPED_PATHS)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parents = parent_map(ctx.tree)
        for _qualname, scope in iter_scopes(ctx.tree):
            tainted = _set_taints(scope)
            for node in iter_scope_nodes(scope):
                iterables = []
                if isinstance(node, ast.For):
                    iterables.append((node, node.iter))
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    if isinstance(node, (ast.SetComp, ast.DictComp)):
                        continue  # rebuilding an unordered container is fine
                    if not _ordered_consumer(node, parents):
                        continue
                    for comp in node.generators:
                        iterables.append((node, comp.iter))
                for anchor, iterable in iterables:
                    if _is_set_expr(iterable, tainted):
                        yield self.finding(
                            ctx,
                            anchor,
                            "iteration over a set feeds deterministic output; "
                            "set order varies across interpreter runs — wrap "
                            "the iterable in sorted(...)",
                        )
