"""exception-hygiene: no silent swallowing of broad exceptions.

A bare ``except:`` (which also catches ``KeyboardInterrupt`` and
``SystemExit``) is always an error.  ``except Exception`` /
``except BaseException`` is an error when the handler *swallows*: it
neither re-raises, nor uses the bound exception (logging it, wrapping it,
recording it for a later re-raise), nor reports through a
logging/printing call.  Swallowed broad exceptions are how bookkeeping
bugs — a failed store commit, a dead collector — degrade results silently
instead of failing loudly.

Sites that genuinely must swallow (``__del__`` during interpreter
shutdown) say so explicitly with ``# flowlint: disable=exception-hygiene``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.helpers import call_name

_BROAD_NAMES = ("Exception", "BaseException")

#: Call names that count as reporting the failure.
_REPORTERS = (
    "print",
    "warn",
    "warning",
    "error",
    "exception",
    "critical",
    "debug",
    "info",
    "log",
    "fail",
)


def _is_broad(type_node: ast.AST) -> bool:
    if isinstance(type_node, ast.Name) and type_node.id in _BROAD_NAMES:
        return True
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(element) for element in type_node.elts)
    return False


def _handler_handles(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises, reports, or keeps the exception."""
    bound = handler.name
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if bound and isinstance(node, ast.Name) and node.id == bound:
            if not isinstance(getattr(node, "ctx", None), ast.Store):
                return True
        if isinstance(node, ast.Call) and (call_name(node) or "") in _REPORTERS:
            return True
    return False


@register
class ExceptionHygieneRule(Rule):
    name = "exception-hygiene"
    description = (
        "bare except, or broad except Exception/BaseException that swallows "
        "without re-raising, logging or using the exception"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` also catches KeyboardInterrupt/SystemExit; "
                    "name the exception type (at most `except Exception`)",
                )
                continue
            if _is_broad(node.type) and not _handler_handles(node):
                yield self.finding(
                    ctx,
                    node,
                    "broad except swallows the failure; narrow the type, "
                    "re-raise, or log/record the exception",
                )
