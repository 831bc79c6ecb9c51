"""Tests for flowlint, the AST-based invariant linter (``repro.devtools.lint``).

Each rule gets fixture-driven coverage: a positive snippet the rule must
flag, a negative snippet it must pass, and a suppressed variant.  On top of
that the engine-level contracts are asserted — JSON report schema, exit
codes, rule selection — and a self-check pins the shipped tree to zero
findings, which is what makes reintroducing a contract violation a CI
failure rather than a code-review hope.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint.engine import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    REGISTRY,
    REPORT_VERSION,
    all_rules,
    check_project_sources,
    check_source,
    main,
    run,
)
from repro.devtools.lint.rules.atomic_commit import AtomicCommitRule
from repro.devtools.lint.rules.blocking_async import BlockingInAsyncRule
from repro.devtools.lint.rules.cache_coherence import CacheCoherenceRule
from repro.devtools.lint.rules.exception_hygiene import ExceptionHygieneRule
from repro.devtools.lint.rules.fault_reporting import FaultReportingRule
from repro.devtools.lint.rules.fold_determinism import FoldDeterminismRule
from repro.devtools.lint.rules.lock_discipline import LockDisciplineRule
from repro.devtools.lint.rules.thread_confinement import ThreadConfinementRule
from repro.devtools.lint.rules.wire_format import (
    WireFormatRule,
    build_manifest,
    fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Paths inside each rule's scope, for fixture linting.
CORE_PATH = "src/repro/core/sample.py"
STORE_PATH = "src/repro/distributed/stores/sample.py"
SERIALIZATION_PATH = "src/repro/core/serialization.py"


def lint(source, path=CORE_PATH, rules=None):
    """check_source over a dedented snippet."""
    return check_source(textwrap.dedent(source), path, rules=rules)


def rule_names(findings):
    return [finding.rule for finding in findings]


# -- registry / engine basics --------------------------------------------------------


class TestEngine:
    def test_all_nine_rules_registered(self):
        names = {rule.name for rule in all_rules()}
        assert names == {
            "atomic-commit",
            "blocking-in-async",
            "cache-coherence",
            "exception-hygiene",
            "fault-reporting",
            "fold-determinism",
            "lock-discipline",
            "thread-confinement",
            "wire-format",
        }

    def test_rules_have_descriptions(self):
        for rule in all_rules():
            assert rule.description, rule.name

    def test_syntax_error_becomes_parse_error_finding(self):
        findings = lint("def broken(:\n    pass\n")
        assert rule_names(findings) == ["parse-error"]
        assert findings[0].line == 1

    def test_findings_are_sorted_and_positioned(self):
        findings = lint(
            """
            def late():
                try:
                    pass
                except:
                    pass

            def early():
                try:
                    pass
                except:
                    pass
            """
        )
        lines = [finding.line for finding in findings]
        assert lines == sorted(lines)
        assert all(finding.col >= 1 for finding in findings)

    def test_scope_respected_unless_disabled(self):
        source = """
        def f(store_path):
            store_path.write_text("x")
        """
        # Outside stores/, atomic-commit does not apply...
        assert lint(source, path="src/repro/other.py") == []
        # ...inside it, it does...
        assert rule_names(lint(source, path=STORE_PATH)) == ["atomic-commit"]
        # ...and respect_scope=False forces the rule regardless of path.
        forced = check_source(
            textwrap.dedent(source),
            "src/repro/other.py",
            rules=[AtomicCommitRule()],
            respect_scope=False,
        )
        assert rule_names(forced) == ["atomic-commit"]


class TestSuppressions:
    def test_disable_comment_suppresses_named_rule(self):
        findings = lint(
            """
            try:
                pass
            except Exception:  # flowlint: disable=exception-hygiene
                pass
            """
        )
        assert findings == []

    def test_disable_all_wildcard(self):
        findings = lint(
            """
            try:
                pass
            except Exception:  # flowlint: disable=all
                pass
            """
        )
        assert findings == []

    def test_disable_other_rule_does_not_suppress(self):
        findings = lint(
            """
            try:
                pass
            except Exception:  # flowlint: disable=cache-coherence
                pass
            """
        )
        assert rule_names(findings) == ["exception-hygiene"]

    def test_disable_list_suppresses_every_named_rule(self):
        findings = lint(
            """
            try:
                pass
            except Exception:  # flowlint: disable=cache-coherence,exception-hygiene
                pass
            """
        )
        assert findings == []

    def test_suppression_must_be_on_finding_line(self):
        findings = lint(
            """
            # flowlint: disable=exception-hygiene
            try:
                pass
            except Exception:
                pass
            """
        )
        assert rule_names(findings) == ["exception-hygiene"]


# -- cache-coherence -------------------------------------------------------------


class TestCacheCoherence:
    RULES = [CacheCoherenceRule()]

    def test_counter_write_without_invalidate_flagged(self):
        findings = lint(
            """
            def touch(node, n):
                node.counters.packets += n
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["cache-coherence"]

    def test_counter_write_with_invalidate_passes(self):
        findings = lint(
            """
            def touch(node, n):
                node.counters.packets += n
                node.invalidate_subtree_cache()
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_alias_mutation_tracked(self):
        findings = lint(
            """
            def touch(node, n):
                counters = node.counters
                counters.packets += n
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["cache-coherence"]

    def test_counters_add_call_flagged(self):
        findings = lint(
            """
            def fold(node, other):
                node.counters.add(other)
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["cache-coherence"]

    def test_children_write_needs_attach_or_invalidate(self):
        flagged = lint(
            """
            def link(parent, key, child):
                parent.children[key] = child
            """,
            rules=self.RULES,
        )
        assert rule_names(flagged) == ["cache-coherence"]
        clean = lint(
            """
            def link(parent, key, child):
                parent.attach_child(key, child)
            """,
            rules=self.RULES,
        )
        assert clean == []

    def test_explicit_cache_drop_sanctions(self):
        findings = lint(
            """
            def rebind(node, fresh):
                node.counters = fresh
                node.subtree_cache = None
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_init_self_writes_exempt(self):
        findings = lint(
            """
            class Node:
                def __init__(self):
                    self.counters = object()
                    self.children = {}
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            def touch(node, n):
                node.counters.packets += n  # flowlint: disable=cache-coherence
            """,
            rules=self.RULES,
        )
        assert findings == []


# -- atomic-commit ---------------------------------------------------------------


class TestAtomicCommit:
    RULES = [AtomicCommitRule()]

    def test_truncating_open_without_replace_flagged(self):
        findings = lint(
            """
            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """,
            path=STORE_PATH,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["atomic-commit"]

    def test_temp_then_replace_passes(self):
        findings = lint(
            """
            import os

            def save(path, tmp, data):
                with open(tmp, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            """,
            path=STORE_PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_append_mode_is_the_segment_protocol(self):
        findings = lint(
            """
            def append(path, frame):
                with open(path, "ab") as handle:
                    handle.write(frame)
            """,
            path=STORE_PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_read_mode_and_default_mode_pass(self):
        findings = lint(
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()
            """,
            path=STORE_PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_write_text_flagged(self):
        findings = lint(
            """
            def save(path, text):
                path.write_text(text)
            """,
            path=STORE_PATH,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["atomic-commit"]

    def test_suppressed(self):
        findings = lint(
            """
            def save(path, text):
                path.write_text(text)  # flowlint: disable=atomic-commit
            """,
            path=STORE_PATH,
            rules=self.RULES,
        )
        assert findings == []


# -- wire-format ------------------------------------------------------------------


WIRE_MODULE = '''
FORMAT_VERSION = 2


def encode_varint(value, out):
    """Docstrings are free to change."""
    out.append(value)


def decode_varint(data, offset):
    return data[offset], offset + 1


def encode_zigzag(value, out):
    out.append(value)


def decode_zigzag(data, offset):
    return data[offset], offset + 1


def _encode_string(value, out):
    out.append(value)


def _decode_string(data, offset):
    return data[offset], offset + 1


def to_bytes(tree):
    return b"FTRE"


def summary_header(data):
    return {}


def from_bytes(data):
    return None
'''


def wire_rule_for(source):
    """A WireFormatRule pinned to ``source``'s own fingerprints."""
    import ast

    manifest = build_manifest(ast.parse(textwrap.dedent(source)))
    return WireFormatRule(manifest=manifest)


class TestWireFormat:
    def test_unchanged_module_passes(self):
        rule = wire_rule_for(WIRE_MODULE)
        assert lint(WIRE_MODULE, path=SERIALIZATION_PATH, rules=[rule]) == []

    def test_docstring_edit_does_not_trip(self):
        rule = wire_rule_for(WIRE_MODULE)
        edited = WIRE_MODULE.replace(
            "Docstrings are free to change.", "Totally new documentation."
        )
        assert lint(edited, path=SERIALIZATION_PATH, rules=[rule]) == []

    def test_body_change_without_bump_flagged(self):
        rule = wire_rule_for(WIRE_MODULE)
        drifted = WIRE_MODULE.replace('return b"FTRE"', 'return b"FTRX"')
        findings = lint(drifted, path=SERIALIZATION_PATH, rules=[rule])
        assert rule_names(findings) == ["wire-format"]
        assert "bump FORMAT_VERSION" in findings[0].message

    def test_shared_primitive_change_flags_format_version(self):
        rule = wire_rule_for(WIRE_MODULE)
        drifted = WIRE_MODULE.replace(
            "def encode_varint(value, out):\n    \"\"\"Docstrings are free to change.\"\"\"\n    out.append(value)",
            "def encode_varint(value, out):\n    out.append(value + 1)",
        )
        findings = lint(drifted, path=SERIALIZATION_PATH, rules=[rule])
        constants = {f.message.split("but ")[1].split(" is")[0] for f in findings}
        assert constants == {"FORMAT_VERSION"}

    def test_version_bump_demands_manifest_regen(self):
        rule = wire_rule_for(WIRE_MODULE)
        bumped = WIRE_MODULE.replace("FORMAT_VERSION = 2", "FORMAT_VERSION = 3")
        findings = lint(bumped, path=SERIALIZATION_PATH, rules=[rule])
        assert rule_names(findings) == ["wire-format"]
        assert "--update-wire-manifest" in findings[0].message

    def test_deleted_pinned_function_flagged(self):
        rule = wire_rule_for(WIRE_MODULE)
        gutted = WIRE_MODULE.replace(
            'def summary_header(data):\n    return {}\n', ""
        )
        findings = lint(gutted, path=SERIALIZATION_PATH, rules=[rule])
        assert rule_names(findings) == ["wire-format"]
        assert "summary_header" in findings[0].message

    def test_fingerprint_ignores_docstring_only(self):
        import ast

        with_doc = ast.parse('def f():\n    """doc"""\n    return 1').body[0]
        without_doc = ast.parse("def f():\n    return 1").body[0]
        changed = ast.parse("def f():\n    return 2").body[0]
        assert fingerprint(with_doc) == fingerprint(without_doc)
        assert fingerprint(with_doc) != fingerprint(changed)

    def test_shipped_manifest_matches_shipped_serialization(self):
        """The committed manifest must be in sync with core/serialization.py."""
        findings, _ = run([str(REPO_ROOT / "src" / "repro" / "core" / "serialization.py")],
                          select=["wire-format"])
        assert findings == []

    def test_shipped_manifest_pins_only_the_summary_format(self):
        """One pinned group: the nine FTRE codec functions at version 2."""
        from repro.core.serialization import FORMAT_VERSION
        from repro.devtools.lint.rules.wire_format import PINNED_FUNCTIONS, load_manifest

        groups = load_manifest()["groups"]
        assert set(groups) == set(PINNED_FUNCTIONS) == {"FORMAT_VERSION"}
        group = groups["FORMAT_VERSION"]
        assert group["pinned_version"] == FORMAT_VERSION == 2
        assert sorted(group["functions"]) == sorted(PINNED_FUNCTIONS["FORMAT_VERSION"])
        assert len(group["functions"]) == 9


# -- fold-determinism ---------------------------------------------------------------


class TestFoldDeterminism:
    RULES = [FoldDeterminismRule()]
    PATH = "src/repro/core/compaction.py"

    def test_loop_over_set_flagged(self):
        findings = lint(
            """
            def fold(victims):
                pending = set(victims)
                for victim in pending:
                    victim.fold()
            """,
            path=self.PATH,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["fold-determinism"]

    def test_sorted_wrapper_passes(self):
        findings = lint(
            """
            def fold(victims):
                pending = set(victims)
                for victim in sorted(pending):
                    victim.fold()
            """,
            path=self.PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_set_literal_iteration_flagged(self):
        findings = lint(
            """
            def emit(out):
                for value in {3, 1, 2}:
                    out.append(value)
            """,
            path=self.PATH,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["fold-determinism"]

    def test_order_insensitive_reduction_passes(self):
        findings = lint(
            """
            def count(victims):
                pending = set(victims)
                total = sum(v.weight for v in pending)
                kept = len([v for v in pending if v.alive])
                return total + kept
            """,
            path=self.PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_set_rebuild_comprehension_passes(self):
        findings = lint(
            """
            def survivors(victims):
                pending = set(victims)
                return {v for v in pending if v.alive}
            """,
            path=self.PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_list_comprehension_over_set_flagged(self):
        findings = lint(
            """
            def order(victims):
                pending = set(victims)
                return [v.key for v in pending]
            """,
            path=self.PATH,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["fold-determinism"]

    def test_out_of_scope_module_not_linted(self):
        findings = lint(
            """
            def fold(victims):
                pending = set(victims)
                for victim in pending:
                    victim.fold()
            """,
            path="src/repro/analysis/report.py",
            rules=self.RULES,
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            def fold(victims):
                pending = set(victims)
                for victim in pending:  # flowlint: disable=fold-determinism
                    victim.fold()
            """,
            path=self.PATH,
            rules=self.RULES,
        )
        assert findings == []


# -- exception-hygiene ---------------------------------------------------------------


class TestExceptionHygiene:
    RULES = [ExceptionHygieneRule()]

    def test_bare_except_flagged(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except:
                    pass
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["exception-hygiene"]

    def test_swallowing_broad_except_flagged(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except Exception:
                    pass
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["exception-hygiene"]

    def test_narrow_except_passes(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except OSError:
                    pass
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_reraise_passes(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except Exception:
                    raise
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_using_bound_exception_passes(self):
        findings = lint(
            """
            def f(log):
                try:
                    pass
                except Exception as exc:
                    log.append(exc)
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_reporting_call_passes(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except Exception:
                    print("it failed")
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_broad_tuple_flagged(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except (ValueError, Exception):
                    pass
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["exception-hygiene"]

    def test_suppressed(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except Exception:  # flowlint: disable=exception-hygiene
                    pass
            """,
            rules=self.RULES,
        )
        assert findings == []


class TestFaultReporting:
    RULES = [FaultReportingRule()]

    FAULTS_PATH = "src/repro/distributed/faults.py"
    SUPERVISOR_PATH = "src/repro/distributed/supervisor.py"

    def test_narrow_swallow_in_strict_module_flagged(self):
        """exception-hygiene tolerates narrow swallows; in the fault and
        supervision modules even those must report."""
        source = """
            def check():
                try:
                    pass
                except OSError:
                    pass
            """
        assert rule_names(lint(source, path=self.SUPERVISOR_PATH, rules=self.RULES)) == [
            "fault-reporting"
        ]
        assert rule_names(lint(source, path=self.FAULTS_PATH, rules=self.RULES)) == [
            "fault-reporting"
        ]
        # outside the strict modules a narrow swallow is not this rule's business
        assert lint(source, rules=self.RULES) == []

    def test_reporting_handler_in_strict_module_passes(self):
        findings = lint(
            """
            def check(health):
                try:
                    pass
                except OSError as exc:
                    health.last_error = str(exc)
            """,
            path=self.SUPERVISOR_PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_swallowed_fault_error_flagged_anywhere(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except FaultError:
                    pass
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["fault-reporting"]

    def test_swallowed_fault_error_in_tuple_flagged(self):
        findings = lint(
            """
            import errors

            def f():
                try:
                    pass
                except (OSError, errors.FaultError):
                    pass
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["fault-reporting"]

    def test_handled_fault_error_passes(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except FaultError:
                    raise
            """,
            rules=self.RULES,
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            def f():
                try:
                    pass
                except FaultError:  # flowlint: disable=fault-reporting
                    pass
            """,
            rules=self.RULES,
        )
        assert findings == []


# -- lock-discipline (project rule) ---------------------------------------------------

#: Project rules only model files that map into ``repro.*`` modules.
PROJECT_PATH = "src/repro/distributed/sample.py"


class TestLockDiscipline:
    RULES = [LockDisciplineRule()]

    WORKER = """
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
                {snapshot_body}
        """

    def worker(self, snapshot_body):
        source = textwrap.dedent(self.WORKER).replace("{snapshot_body}", snapshot_body)
        return check_source(source, PROJECT_PATH, rules=self.RULES)

    def test_lock_free_read_of_guarded_attr_flagged(self):
        findings = self.worker("return self._count")
        assert rule_names(findings) == ["lock-discipline"]
        message = findings[0].message
        assert "Worker._count" in message and "Worker._lock" in message
        assert "Worker._run" in message  # names the racing thread entry point

    def test_read_under_the_guarding_lock_passes(self):
        findings = self.worker(
            "with self._lock:\n            return self._count"
        )
        assert findings == []

    def test_suppressed(self):
        findings = self.worker(
            "return self._count  # flowlint: disable=lock-discipline"
        )
        assert findings == []

    def test_attr_without_thread_entry_point_not_flagged(self):
        """Lock usage alone is not a race: no second thread, no finding."""
        findings = check_source(
            textwrap.dedent(
                """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._count = 0

                    def bump(self):
                        with self._lock:
                            self._count += 1

                    def snapshot(self):
                        return self._count
                """
            ),
            PROJECT_PATH,
            rules=self.RULES,
        )
        assert findings == []

    def test_guard_transfers_through_private_callee(self):
        """A private helper called only with the lock held inherits it."""
        findings = check_source(
            textwrap.dedent(
                """
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
                            self._bump()

                    def _bump(self):
                        self._count += 1

                    def snapshot(self):
                        with self._lock:
                            return self._count
                """
            ),
            PROJECT_PATH,
            rules=self.RULES,
        )
        assert findings == []


# -- blocking-in-async (project rule) -------------------------------------------------


class TestBlockingInAsync:
    RULES = [BlockingInAsyncRule()]

    def check(self, source):
        return check_source(textwrap.dedent(source), PROJECT_PATH, rules=self.RULES)

    def test_bare_future_result_in_gather_flagged(self):
        """The PR 7 hang: collecting thread-pool futures on the loop with
        bare ``.result()`` deadlocks when the pool is saturated."""
        findings = self.check(
            """
            async def gather_partials(futures):
                return [future.result() for future in futures]
            """
        )
        assert rule_names(findings) == ["blocking-in-async"]
        assert ".result()" in findings[0].message

    def test_time_sleep_in_sync_callee_of_coroutine_flagged(self):
        """The call graph places helpers on the loop, not just async defs."""
        findings = self.check(
            """
            import time

            def backoff():
                time.sleep(0.1)

            async def poll_loop():
                backoff()
            """
        )
        assert rule_names(findings) == ["blocking-in-async"]
        assert "time.sleep" in findings[0].message

    def test_awaited_asyncio_sleep_passes(self):
        findings = self.check(
            """
            import asyncio

            async def poll_loop():
                await asyncio.sleep(0.1)
            """
        )
        assert findings == []

    def test_result_with_timeout_passes(self):
        findings = self.check(
            """
            async def gather_partials(futures):
                return [future.result(5.0) for future in futures]
            """
        )
        assert findings == []

    def test_queue_get_with_timeout_passes(self):
        findings = self.check(
            """
            async def drain(inbox):
                return inbox.get(timeout=0.5)
            """
        )
        assert findings == []

    def test_sync_only_code_not_flagged(self):
        findings = self.check(
            """
            import time

            def backoff():
                time.sleep(0.1)

            def retry():
                backoff()
            """
        )
        assert findings == []

    def test_suppressed(self):
        findings = self.check(
            """
            import time

            async def poll_loop():
                time.sleep(0.1)  # flowlint: disable=blocking-in-async
            """
        )
        assert findings == []


# -- thread-confinement (project rule) ------------------------------------------------


class TestThreadConfinement:
    DAEMON = """
        import threading

        class Daemon:
            def __init__(self):
                self._pending = []
                self._thread = threading.Thread(target=self._drain)
                {extra_init}

            def _drain(self):
                {drain_body}

            def flush(self):
                {flush_body}

        def pump(daemon: Daemon):
            daemon.flush()
        """

    def check(self, allowed=None, extra_init="self._thread.start()",
              drain_body="self._pending.clear()",
              flush_body="self._pending.append(1)"):
        source = textwrap.dedent(self.DAEMON)
        for slot, body in (("{extra_init}", extra_init),
                           ("{drain_body}", drain_body),
                           ("{flush_body}", flush_body)):
            source = source.replace(slot, body)
        rule = ThreadConfinementRule(
            confined={"Daemon": "test fixture: single-owner by decree"},
            allowed=allowed or {},
        )
        return check_project_sources({PROJECT_PATH: source}, rules=[rule])

    def test_mutation_from_thread_and_main_flagged(self):
        findings = self.check()
        assert rule_names(findings) == ["thread-confinement"]
        message = findings[0].message
        assert "Daemon._drain" in message and "_pending" in message
        assert "<main>" in message  # names both sides of the race

    def test_shared_lock_on_every_entry_point_passes(self):
        findings = self.check(
            extra_init="self._guard = threading.Lock()\n"
            "        self._thread.start()",
            drain_body="with self._guard:\n            self._pending.clear()",
            flush_body="with self._guard:\n            self._pending.append(1)",
        )
        assert findings == []

    def test_single_owner_instance_passes(self):
        """No second entry point: the spawner alone mutates the object."""
        source = textwrap.dedent(
            """
            class Daemon:
                def __init__(self):
                    self._pending = []

                def flush(self):
                    self._pending.append(1)

            def pump(daemon: Daemon):
                daemon.flush()
            """
        )
        rule = ThreadConfinementRule(confined={"Daemon": "test fixture"})
        assert check_project_sources({PROJECT_PATH: source}, rules=[rule]) == []

    def test_allow_list_entry_silences_with_audit_trail(self):
        findings = self.check(
            allowed={"Daemon": "handoff protocol: drain only runs post-join"}
        )
        assert findings == []

    def test_allow_list_is_method_granular(self):
        findings = self.check(
            allowed={"Daemon.other_method": "does not cover _drain"}
        )
        assert rule_names(findings) == ["thread-confinement"]

    def test_suppressed(self):
        findings = self.check(
            drain_body="self._pending.clear()  # flowlint: disable=thread-confinement"
        )
        assert findings == []


# -- CLI: exit codes, formats, selection ----------------------------------------------


class TestCli:
    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
        return path

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(path)]) == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "dirty.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert main([str(path)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "exception-hygiene" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["definitely/not/a/path"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = self.write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(path), "--select", "no-such-rule"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_select_limits_rules(self, tmp_path):
        path = self.write(
            tmp_path,
            "dirty.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        # exception-hygiene finds it; selecting another rule does not.
        assert main([str(path), "--select", "exception-hygiene"]) == EXIT_FINDINGS
        assert main([str(path), "--select", "wire-format"]) == EXIT_CLEAN

    def test_json_report_schema(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "dirty.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert main([str(path), "--format", "json"]) == EXIT_FINDINGS
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == REPORT_VERSION
        assert document["files_checked"] == 1
        assert len(document["findings"]) == 1
        finding = document["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message", "severity"}
        assert finding["rule"] == "exception-hygiene"
        assert finding["severity"] == "error"
        assert finding["line"] >= 1 and finding["col"] >= 1

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        """--jobs fans file analysis over processes; findings are identical."""
        dirty = self.write(
            tmp_path,
            "dirty.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        clean = self.write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(dirty), str(clean), "--jobs", "2"]) == EXIT_FINDINGS
        parallel_out = capsys.readouterr().out
        assert main([str(dirty), str(clean)]) == EXIT_FINDINGS
        serial_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "exception-hygiene" in parallel_out

    def test_dump_callgraph_writes_project_model(self, tmp_path, capsys):
        target = REPO_ROOT / "src" / "repro" / "distributed" / "supervisor.py"
        out_path = tmp_path / "callgraph.json"
        assert main([str(target), "--dump-callgraph", str(out_path)]) == EXIT_CLEAN
        dump = json.loads(out_path.read_text())
        assert set(dump) == {"scopes", "thread_roots", "locks"}
        roots = {root["scope"] for root in dump["thread_roots"]}
        assert "repro.distributed.supervisor:Supervisor._run" in roots
        assert dump["locks"]["Supervisor"] == ["_check_lock"]
        check = dump["scopes"]["repro.distributed.supervisor:Supervisor.check"]
        assert "repro.distributed.supervisor:Supervisor._check_one" in check["calls"]

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_flowtree_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(
            tmp_path,
            "dirty.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert cli_main(["lint", str(path)]) == EXIT_FINDINGS
        assert "exception-hygiene" in capsys.readouterr().out
        assert cli_main(["lint", "--list-rules"]) == EXIT_CLEAN


# -- the self-check: the shipped tree is clean ----------------------------------------


class TestShippedTreeIsClean:
    def test_repo_lints_clean(self):
        """`flowtree lint` over the shipped tree reports zero findings.

        This is the gate that turns every rule into an enforced contract:
        reintroducing a cache-incoherent mutation, a torn store write, a
        wire drift, an unordered fold or a
        swallowed broad except makes this test (and the CI lint job) fail.
        """
        paths = [str(REPO_ROOT / name) for name in ("src", "tests", "benchmarks")]
        findings, files_checked = run(paths)
        assert files_checked > 50
        details = "\n".join(finding.format_text() for finding in findings)
        assert findings == [], f"flowlint findings on the shipped tree:\n{details}"
