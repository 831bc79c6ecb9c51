"""Tests for flowlint, the AST-based invariant linter (``repro.devtools.lint``).

Each rule gets fixture-driven coverage: a positive snippet the rule must
flag, a negative snippet it must pass, and a suppressed variant.  On top of
that the engine-level contracts are asserted — exit codes, rule
selection, suppressions — and a self-check pins the shipped tree to zero
findings, which is what makes reintroducing a contract violation a CI
failure rather than a code-review hope.
"""

import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint.engine import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    REGISTRY,
    all_rules,
    check_project_sources,
    check_source,
    main,
    run,
)
from repro.devtools.lint.rules.cache_coherence import CacheCoherenceRule
from repro.devtools.lint.rules.exception_hygiene import ExceptionHygieneRule
from repro.devtools.lint.rules.fold_determinism import FoldDeterminismRule
from repro.devtools.lint.rules.lock_discipline import LockDisciplineRule
from repro.devtools.lint.rules.thread_confinement import ThreadConfinementRule

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Paths inside each rule's scope, for fixture linting.
CORE_PATH = "src/repro/core/sample.py"
STORE_PATH = "src/repro/distributed/stores/sample.py"


def lint(source, path=CORE_PATH, rules=None):
    """check_source over a dedented snippet."""
    return check_source(textwrap.dedent(source), path, rules=rules)


def rule_names(findings):
    return [finding.rule for finding in findings]


# -- registry / engine basics --------------------------------------------------------


class TestEngine:
    def test_the_five_rules_registered(self):
        names = {rule.name for rule in all_rules()}
        assert names == {
            "cache-coherence",
            "exception-hygiene",
            "fold-determinism",
            "lock-discipline",
            "thread-confinement",
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
        def fold(victims):
            for victim in set(victims):
                victim.fold()
        """
        # Outside the fold modules, fold-determinism does not apply...
        assert lint(source, path="src/repro/other.py") == []
        # ...inside them, it does...
        assert rule_names(lint(source, path=STORE_PATH)) == ["fold-determinism"]
        # ...and respect_scope=False forces the rule regardless of path.
        forced = check_source(
            textwrap.dedent(source),
            "src/repro/other.py",
            rules=[FoldDeterminismRule()],
            respect_scope=False,
        )
        assert rule_names(forced) == ["fold-determinism"]


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

    def test_copy_rebinding_counters_flagged(self):
        """Reduced from ``Flowtree.copy`` at d795c06 (``core/flowtree.py``
        lines 969 and 972): the clone's counters were rebound node by node
        with no cache invalidation, so a copy could serve the source's stale
        subtree aggregates."""
        findings = lint(
            """
            def copy(self):
                clone = Flowtree(self._schema, self._config)
                for key, counters in sorted(self.items()):
                    if key.is_root:
                        clone._root.counters = counters.copy()
                        continue
                    node = clone._get_or_create_node(key)
                    node.counters = counters.copy()
                return clone
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["cache-coherence"] * 2
        assert [finding.line for finding in findings] == [6, 9]


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

    def test_set_comprehension_eviction_flagged(self):
        """Reduced from ``delete_before`` in ``distributed/stores/base.py``
        at d795c06 (line 344): staged bins were evicted in the iteration
        order of a set comprehension, which varies across interpreter runs."""
        findings = lint(
            """
            def delete_before(self, site, bin_index):
                staged_only = {k for k in self._cache if k[1] < bin_index}
                for key in staged_only:
                    del self._cache[key]
            """,
            path=STORE_PATH,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["fold-determinism"]
        assert findings[0].line == 4


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

    def test_loop_continue_swallow_flagged(self):
        """Reduced from the exact baseline at d795c06
        (``baselines/exact.py`` line 95): a broad except that skips the
        loop iteration drops every error the projection raises."""
        findings = lint(
            """
            def weights(self, keys, vector):
                result = {}
                for flow_key in keys:
                    try:
                        projected = flow_key.generalize_to_vector(vector)
                    except Exception:
                        continue
                    result[projected] = 1
                return result
            """,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["exception-hygiene"]
        assert findings[0].line == 7


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

    def test_health_snapshot_race_flagged(self):
        """Reduced from ``Supervisor`` at 6ff94b2 (``distributed/
        supervisor.py`` lines 206 and 211): health entries were written
        through a list alias under ``_check_lock`` on the supervisor thread,
        while ``health_snapshot`` and ``all_healthy`` iterated them
        lock-free and could read a half-updated entry."""
        findings = check_source(
            textwrap.dedent(
                """
                import threading

                class Supervisor:
                    def __init__(self, names):
                        self._health = [Health(name) for name in names]
                        self._check_lock = threading.Lock()
                        self._thread = None

                    def start(self):
                        self._thread = threading.Thread(target=self._run)
                        self._thread.start()

                    def _run(self):
                        self.check()

                    def check(self):
                        with self._check_lock:
                            for index in range(len(self._health)):
                                self._check_one(index)

                    def _check_one(self, index):
                        health = self._health[index]
                        health.healthy = True

                    def health_snapshot(self):
                        return {h.name: h.healthy for h in self._health}

                    def all_healthy(self):
                        return all(h.healthy for h in self._health)
                """
            ),
            PROJECT_PATH,
            rules=self.RULES,
        )
        assert rule_names(findings) == ["lock-discipline"] * 2
        assert [finding.line for finding in findings] == [27, 30]
        assert all("Supervisor._health" in f.message for f in findings)
        assert "Supervisor.health_snapshot" in findings[0].message
        assert "Supervisor.all_healthy" in findings[1].message


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

    def test_collector_entry_point_from_supervisor_thread_flagged(self):
        """Reduced from ``Collector`` at 6ff94b2 (``distributed/
        collector.py`` lines 255-479): the supervisor thread called
        ``poll`` through a typed attribute while the main thread drove the
        same collector, and no lock serialized the two."""
        source = textwrap.dedent(
            """
            import threading

            class Collector:
                def __init__(self):
                    self._backlog = []

                def poll(self):
                    self._backlog.clear()

            class Supervisor:
                def __init__(self, collector: Collector):
                    self._collector = collector
                    self._thread = None

                def start(self):
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def _run(self):
                    self._collector.poll()

            def drive(collector: Collector):
                collector.poll()
            """
        )
        findings = check_project_sources(
            {PROJECT_PATH: source}, rules=[ThreadConfinementRule()]
        )
        assert rule_names(findings) == ["thread-confinement"]
        message = findings[0].message
        assert findings[0].line == 9
        assert "Collector.poll mutates _backlog" in message
        assert "Supervisor._run" in message and "<main>" in message


# -- CLI: exit codes, selection ----------------------------------------------


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
        assert main([str(path), "--select", "fold-determinism"]) == EXIT_CLEAN

    @pytest.mark.parametrize("argv", [
        ["--jobs", "2"],
        ["--format", "json"],
        ["--dump-callgraph", "cg.json"],
        ["--update-wire-manifest"],
    ])
    def test_retired_options_are_usage_errors(self, tmp_path, argv, capsys):
        """The CLI takes paths, --select and --list-rules, nothing else."""
        path = self.write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(path), *argv]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out
        assert "flowlint: 5 rules" in out

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
        reintroducing a cache-incoherent mutation, an unordered fold, a
        swallowed broad except, a lock-free read of lock-guarded state or
        an unserialized cross-thread mutation makes this test (and the CI
        lint job) fail.
        """
        paths = [str(REPO_ROOT / name) for name in ("src", "tests", "benchmarks")]
        findings, files_checked = run(paths)
        assert files_checked > 50
        details = "\n".join(finding.format_text() for finding in findings)
        assert findings == [], f"flowlint findings on the shipped tree:\n{details}"
