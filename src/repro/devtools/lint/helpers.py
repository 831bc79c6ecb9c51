"""Small AST utilities shared by the flowlint rules.

The rules reason in *lexical scopes*: a mutation and the invalidation that
sanctions it must appear in the same function body.  These helpers give
every rule the same notion of scope and the same attribute-chain
matching, so the rules stay one screen each.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple, Union

ScopeNode = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def iter_scopes(tree: ast.Module) -> Iterator[Tuple[str, ScopeNode]]:
    """Yield ``(qualified name, scope node)`` for the module and every function.

    Qualified names follow ``Class.method`` / ``outer.<locals>.inner``
    convention closely enough for allow-lists and messages.
    """
    yield "<module>", tree

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ScopeNode]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_NODES):
                name = f"{prefix}{child.name}"
                yield name, child
                yield from walk(child, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def iter_scope_nodes(scope: ScopeNode) -> Iterator[ast.AST]:
    """Walk every node lexically inside ``scope``, without entering nested
    functions (their bodies are separate scopes).  Nested function *nodes*
    themselves are yielded, so callers can still see that one exists.

    Nodes come out in document (pre-)order — rules that track aliases in
    one pass (e.g. cache-coherence) rely on bindings preceding their uses."""
    stack: List[ast.AST] = list(reversed(list(ast.iter_child_nodes(scope))))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCTION_NODES + (ast.Lambda,)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` when the base is not a Name.

    Calls and subscripts in the middle break the chain (returns ``None``),
    which is what the rules want: they match simple attribute paths only.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The called function's plain name (``foo`` or the ``bar`` of ``x.bar``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def parent_map(tree: ast.AST) -> "dict[ast.AST, ast.AST]":
    """Child -> parent map over the whole tree (for consumer-context checks)."""
    parents: "dict[ast.AST, ast.AST]" = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
