"""Edge-case tests for the flowlint AST helpers (``repro.devtools.lint.helpers``).

Every rule — per-file and project-wide — leans on these few primitives,
so their corner cases (qualname conventions for nested and class-nested
functions, alias-hostile attribute chains, scope boundaries) are pinned
here once instead of re-proven inside each rule's fixtures.
"""

import ast
import textwrap

from repro.devtools.lint.engine import check_source
from repro.devtools.lint.helpers import (
    attribute_chain,
    call_name,
    iter_scope_nodes,
    iter_scopes,
    parent_map,
)


def parse(source):
    return ast.parse(textwrap.dedent(source))


class TestIterScopes:
    def test_module_scope_comes_first(self):
        scopes = list(iter_scopes(parse("x = 1")))
        assert scopes[0][0] == "<module>"
        assert isinstance(scopes[0][1], ast.Module)

    def test_class_nested_method_qualname(self):
        tree = parse(
            """
            class Outer:
                def method(self):
                    pass

                class Inner:
                    def leaf(self):
                        pass
            """
        )
        names = [name for name, _ in iter_scopes(tree)]
        assert names == ["<module>", "Outer.method", "Outer.Inner.leaf"]

    def test_nested_function_qualname_uses_locals_marker(self):
        tree = parse(
            """
            def outer():
                def inner():
                    def innermost():
                        pass
            """
        )
        names = [name for name, _ in iter_scopes(tree)]
        assert names == [
            "<module>",
            "outer",
            "outer.<locals>.inner",
            "outer.<locals>.inner.<locals>.innermost",
        ]

    def test_function_nested_in_method(self):
        tree = parse(
            """
            class Worker:
                def run(self):
                    def step():
                        pass
            """
        )
        names = [name for name, _ in iter_scopes(tree)]
        assert "Worker.run.<locals>.step" in names

    def test_async_functions_are_scopes(self):
        tree = parse(
            """
            async def pump():
                async def drain():
                    pass
            """
        )
        names = [name for name, _ in iter_scopes(tree)]
        assert names == ["<module>", "pump", "pump.<locals>.drain"]


class TestIterScopeNodes:
    def test_does_not_descend_into_nested_functions(self):
        tree = parse(
            """
            def outer():
                a = 1
                def inner():
                    b = 2
            """
        )
        outer = next(node for name, node in iter_scopes(tree) if name == "outer")
        names = {
            node.id
            for node in iter_scope_nodes(outer)
            if isinstance(node, ast.Name)
        }
        assert "a" in names
        assert "b" not in names  # inner's body is a separate scope

    def test_nested_function_node_itself_is_yielded(self):
        tree = parse(
            """
            def outer():
                def inner():
                    pass
            """
        )
        outer = next(node for name, node in iter_scopes(tree) if name == "outer")
        nested = [
            node for node in iter_scope_nodes(outer)
            if isinstance(node, ast.FunctionDef)
        ]
        assert [node.name for node in nested] == ["inner"]


class TestAttributeChain:
    def test_simple_chain(self):
        node = parse("a.b.c").body[0].value
        assert attribute_chain(node) == ["a", "b", "c"]

    def test_call_in_middle_breaks_chain(self):
        node = parse("a.b().c").body[0].value
        assert attribute_chain(node) is None

    def test_subscript_base_breaks_chain(self):
        node = parse("a[0].b").body[0].value
        assert attribute_chain(node) is None

    def test_bare_name(self):
        node = parse("a").body[0].value
        assert attribute_chain(node) == ["a"]


class TestSmallHelpers:
    def test_call_name_for_plain_and_attribute_calls(self):
        plain = parse("foo()").body[0].value
        dotted = parse("x.bar()").body[0].value
        subscripted = parse("table[0]()").body[0].value
        assert call_name(plain) == "foo"
        assert call_name(dotted) == "bar"
        assert call_name(subscripted) is None

    def test_parent_map_links_child_to_parent(self):
        tree = parse("def f():\n    return 1")
        parents = parent_map(tree)
        func = tree.body[0]
        ret = func.body[0]
        assert parents[ret] is func
        assert parents[func] is tree


class TestSuppressionsForProjectRules:
    """`# flowlint: disable=` must silence the project-wide rules too —
    their findings are filtered through the same per-file suppression
    table the per-file rules use."""

    SOURCE = """
        import threading

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._run)
                self._thread.start()

            def _run(self):
                with self._lock:
                    self._count += 1

            def snapshot(self):
                return self._count{comment}
        """

    def lint(self, comment=""):
        source = textwrap.dedent(self.SOURCE).replace("{comment}", comment)
        return check_source(source, "src/repro/distributed/sample.py")

    def test_project_rule_finding_without_comment(self):
        assert "lock-discipline" in {f.rule for f in self.lint()}

    def test_named_disable_silences_project_rule(self):
        assert self.lint("  # flowlint: disable=lock-discipline") == []

    def test_disable_all_silences_project_rule(self):
        assert self.lint("  # flowlint: disable=all") == []

    def test_disable_list_mixing_file_and_project_rules(self):
        findings = self.lint(
            "  # flowlint: disable=exception-hygiene,lock-discipline"
        )
        assert findings == []
