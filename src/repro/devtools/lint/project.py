"""Project-wide analysis model for the concurrency rules.

Per-file rules see one ``ast.Module`` at a time; the two concurrency
rules (lock-discipline, thread-confinement) need to know what the
*whole* of ``src/repro`` does: which scopes run on which thread, who
calls whom, and which locks are held on the way.  This module builds
that model in two stages:

1. **Extraction** (:func:`extract_file`) — a single AST pass per file
   producing a :class:`FileSummary`: every scope's attribute accesses
   (with the ``with <lock>:`` stack lexically in force), its calls, and
   the thread/process/event-loop spawn points it contains.

2. **Linking** (:func:`build_project`) — merges the summaries into a
   :class:`ProjectModel`: a symbol table of classes and functions, an
   approximate call graph, the set of *thread roots* (``Thread(target=
   ...)`` targets, executor submissions, coroutines handed to an event
   loop), and per-root reachability with the locks guaranteed held along
   every discovered path.

The call graph is deliberately conservative: an edge exists only when
the receiver's type is actually known — ``self.m()``, a constructor-bound
local (``pool = ThreadPoolExecutor(...)``), an annotated parameter
(``collector: Collector``), or a ``self`` attribute whose class is named
in an ``__init__`` assignment or annotation.  Unresolvable calls produce
*no* edge (and therefore no finding) rather than a guessed one — for a
linter gating CI, a missed edge is recoverable, a false edge is noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.devtools.lint.helpers import attribute_chain, iter_scopes

#: Method names that mutate their receiver in place (used both to classify
#: an attribute access as a write and to find confined-state mutations).
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "popleft", "appendleft", "remove", "discard",
    "clear", "sort", "reverse", "__setitem__",
})

#: ``loop.call_soon(cb)``-style APIs: the callback runs on the event loop.
_LOOP_CALLBACK_APIS = frozenset({
    "call_soon", "call_soon_threadsafe", "call_later", "call_at",
})

_DUNDER_INIT_NAMES = frozenset({"__init__", "__new__", "__post_init__"})


# -- per-file facts ----------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """One read or write of a ``self`` attribute (possibly via a local alias)."""

    attr: str
    line: int
    col: int
    write: bool
    #: Lock ids (``Class.attr``) lexically held (``with`` stack) at the access.
    locks: Tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """One call expression, as seen from the calling scope."""

    chain: Tuple[str, ...]
    #: Lock ids lexically held (``with`` stack) at the call.
    locks: Tuple[str, ...]


@dataclass(frozen=True)
class SpawnSite:
    """A point where a scope hands work to another thread/process/loop.

    ``kind`` is ``"thread"``, ``"process"``, ``"loop"`` or ``"executor"``
    (executor spawns are narrowed to thread/process at link time from the
    receiver's type).
    """

    kind: str
    target: Tuple[str, ...]
    receiver: Tuple[str, ...]


@dataclass(frozen=True)
class ScopeInfo:
    """Extraction result for one function/method scope."""

    qualname: str
    cls: Optional[str]
    accesses: Tuple[Access, ...]
    calls: Tuple[CallSite, ...]
    spawns: Tuple[SpawnSite, ...]
    #: ``(param, annotation-name-candidates)`` for annotated parameters.
    param_types: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: ``(local, constructor-name)`` for ``x = SomeClass(...)`` bindings.
    local_types: Tuple[Tuple[str, str], ...]
    #: ``(local, self-attr)`` for ``x = self._attr`` / ``self._attr[i]`` aliases.
    self_aliases: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class ClassInfo:
    """Symbol-table entry for one class definition."""

    name: str
    line: int
    bases: Tuple[str, ...]
    #: ``(attr, type-name-candidates)`` from ``__init__`` assignments and
    #: annotations (``self._x: Optional[Collector] = None``).
    attr_types: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Attributes assigned ``threading.Lock()`` / ``RLock()`` in ``__init__``.
    lock_attrs: Tuple[str, ...]


@dataclass(frozen=True)
class FileSummary:
    """Everything :func:`build_project` needs from one file."""

    path: str
    module: str
    scopes: Tuple[ScopeInfo, ...]
    classes: Tuple[ClassInfo, ...]
    functions: Tuple[str, ...]
    #: ``(local name, dotted origin)`` import map.
    imports: Tuple[Tuple[str, str], ...]
    #: ``(line, disabled-rule-names)`` — carried so project findings can be
    #: suppressed without re-reading the file.
    suppressions: Tuple[Tuple[int, Tuple[str, ...]], ...]


# -- extraction --------------------------------------------------------------------


def module_name_for(path: str) -> Optional[str]:
    """Dotted module for a repo path, or ``None`` outside ``src/repro``.

    The project model covers the shipped package only — tests and
    benchmarks spin up threads freely and are not long-lived services,
    and the linter does not analyze itself (``repro.devtools``).
    """
    posix = path.replace("\\", "/")
    marker = "src/repro/"
    index = posix.find(marker)
    if index < 0:
        if posix.startswith("repro/"):
            index = 0
            marker = ""
        else:
            return None
    tail = posix[index + len(marker):]
    if marker:
        tail = "repro/" + tail
    if not tail.endswith(".py"):
        return None
    dotted = tail[:-3].replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    if dotted.startswith("repro.devtools"):
        return None
    return dotted


def _annotation_names(node: Optional[ast.AST]) -> Tuple[str, ...]:
    """Every plain name mentioned in an annotation (``Optional[X]`` -> both)."""
    if node is None:
        return ()
    names: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return tuple(dict.fromkeys(names))


def _is_lock_name(name: str) -> bool:
    return "lock" in name.lower()


def _class_info(node: ast.ClassDef) -> ClassInfo:
    bases = tuple(
        part for base in node.bases
        for part in [(attribute_chain(base) or [None])[-1]] if part
    )
    attr_types: Dict[str, Tuple[str, ...]] = {}
    lock_attrs: List[str] = []
    for item in node.body:
        init = None
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if item.name in _DUNDER_INIT_NAMES:
                init = item
        if init is None:
            continue
        param_ann = {
            arg.arg: _annotation_names(arg.annotation)
            for arg in init.args.args + init.args.kwonlyargs
            if arg.annotation is not None
        }
        for stmt in ast.walk(init):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            if target is None:
                continue
            chain = attribute_chain(target)
            if chain is None or len(chain) != 2 or chain[0] != "self":
                continue
            attr = chain[1]
            candidates: Tuple[str, ...] = _annotation_names(annotation)
            if not candidates and isinstance(value, ast.Call):
                ctor = attribute_chain(value.func)
                if ctor:
                    candidates = (ctor[-1],)
                    if ctor[-1] in ("Lock", "RLock"):
                        lock_attrs.append(attr)
            if not candidates and isinstance(value, ast.Name):
                candidates = param_ann.get(value.id, ())
            if candidates and attr not in attr_types:
                attr_types[attr] = candidates
    return ClassInfo(
        name=node.name,
        line=node.lineno,
        bases=bases,
        attr_types=tuple(sorted(attr_types.items())),
        lock_attrs=tuple(sorted(set(lock_attrs))),
    )


def _imports_of(tree: ast.Module) -> Tuple[Tuple[str, str], ...]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return tuple(sorted(imports.items()))


class _ScopeExtractor:
    """One recursive pass over a scope body tracking the ``with``-lock stack."""

    def __init__(self, cls: Optional[str], lock_attrs: FrozenSet[str]) -> None:
        self.cls = cls
        self.lock_attrs = lock_attrs
        self.accesses: List[Access] = []
        self.calls: List[CallSite] = []
        self.spawns: List[SpawnSite] = []
        self.local_types: Dict[str, str] = {}
        self.self_aliases: Dict[str, str] = {}
        self._locks: List[str] = []

    # -- lock ids -------------------------------------------------------------

    def _lock_id(self, chain: Sequence[str]) -> Optional[str]:
        """Lock id for a ``with`` context expression, else ``None``."""
        if len(chain) == 2 and chain[0] == "self":
            attr = chain[1]
            if _is_lock_name(attr) or attr in self.lock_attrs:
                return f"{self.cls}.{attr}" if self.cls else attr
        elif len(chain) == 1 and _is_lock_name(chain[0]):
            return chain[0]
        return None

    def _held(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self._locks))

    # -- recording ------------------------------------------------------------

    def _attr_of(
        self, node: ast.expr
    ) -> Optional[Tuple[str, ast.expr, bool]]:
        """``(self-attr, anchor, via_alias)`` for ``self.X`` / alias bases.

        ``via_alias`` marks accesses through a local bound earlier from the
        attribute: *writes* through it mutate the shared object (recorded),
        but plain reads of a reference the local keeps alive are not races
        on the attribute itself and are skipped by the callers.
        """
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if chain and chain[0] == "self" and len(chain) >= 2:
                return chain[1], node, False
            if chain and chain[0] in self.self_aliases and len(chain) >= 2:
                return self.self_aliases[chain[0]], node, True
        elif isinstance(node, ast.Name) and node.id in self.self_aliases:
            return self.self_aliases[node.id], node, True
        return None

    def _record_access(self, attr: str, node: ast.expr, write: bool) -> None:
        self.accesses.append(Access(
            attr=attr, line=node.lineno, col=node.col_offset,
            write=write, locks=self._held(),
        ))

    def _record_write_target(self, target: ast.expr) -> None:
        """Classify an assignment/del target as a self-attribute write."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write_target(element)
            return
        node: ast.expr = target
        # `self.x[k] = v` / `alias.field = v` both mutate the attribute's object.
        if isinstance(node, ast.Subscript):
            self._visit(node.slice)
            node = node.value
        if isinstance(node, ast.Attribute):
            found = self._attr_of(node)
            if found is None and isinstance(node.value, ast.Name):
                alias = node.value.id
                if alias in self.self_aliases:
                    found = (self.self_aliases[alias], node, True)
            if found is not None:
                self._record_access(found[0], found[1], write=True)
                return
            self._visit(node.value)
        elif isinstance(node, ast.Name):
            if node.id in self.self_aliases:
                self._record_access(self.self_aliases[node.id], node, write=True)
        else:
            self._visit(node)

    def _maybe_alias(self, target: ast.expr, value: ast.expr) -> None:
        """Track ``x = self._attr`` (and one-subscript/.get views into it)."""
        node = value
        if not isinstance(target, ast.Name):
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else None
            chain = attribute_chain(func)
            if name == "get" and isinstance(func, ast.Attribute):
                node = func.value
            else:
                if chain and len(chain) <= 2:
                    self.local_types[target.id] = chain[-1]
                return
        if isinstance(node, ast.Subscript):
            node = node.value
        chain = attribute_chain(node)
        if chain and chain[0] == "self" and len(chain) == 2:
            self.self_aliases[target.id] = chain[1]

    # -- call / spawn classification -------------------------------------------

    def _chain_of_target(self, node: ast.expr) -> Tuple[str, ...]:
        """Spawn-target chain: ``self._run`` or the func of ``self._run()``."""
        if isinstance(node, ast.Call):
            node = node.func
        return tuple(attribute_chain(node) or ())

    def _record_spawn(self, call: ast.Call, chain: Sequence[str]) -> None:
        last = chain[-1]
        keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        if last in ("Thread", "Process"):
            target = keywords.get("target")
            if target is not None:
                self.spawns.append(SpawnSite(
                    kind="thread" if last == "Thread" else "process",
                    target=self._chain_of_target(target),
                    receiver=(),
                ))
        elif last in ("submit", "map") and len(chain) >= 2 and call.args:
            self.spawns.append(SpawnSite(
                kind="executor",
                target=self._chain_of_target(call.args[0]),
                receiver=tuple(chain[:-1]),
            ))
        elif last == "run_coroutine_threadsafe" and call.args:
            self.spawns.append(SpawnSite(
                kind="loop", target=self._chain_of_target(call.args[0]),
                receiver=(),
            ))
        elif last == "start_server" and call.args:
            self.spawns.append(SpawnSite(
                kind="loop", target=self._chain_of_target(call.args[0]),
                receiver=(),
            ))
        elif last in _LOOP_CALLBACK_APIS:
            index = 1 if last in ("call_later", "call_at") else 0
            if len(call.args) > index:
                self.spawns.append(SpawnSite(
                    kind="loop", target=self._chain_of_target(call.args[index]),
                    receiver=(),
                ))
        elif last in ("ensure_future", "create_task") and call.args:
            self.spawns.append(SpawnSite(
                kind="loop", target=self._chain_of_target(call.args[0]),
                receiver=(),
            ))
        elif last in ("schedule", "run") and len(chain) >= 2 and call.args:
            # `runtime.schedule(coro())` — narrowed to a loop spawn at link
            # time iff the receiver resolves to an event-loop host class.
            self.spawns.append(SpawnSite(
                kind="maybe-loop", target=self._chain_of_target(call.args[0]),
                receiver=tuple(chain[:-1]),
            ))

    def _visit_call(self, call: ast.Call) -> None:
        chain = tuple(attribute_chain(call.func) or ())
        if not chain and isinstance(call.func, ast.Attribute):
            # `submit(...).result()` and similar call-in-the-middle chains:
            # keep the method name so blocking patterns still match.
            chain = ("*", call.func.attr)
        if chain:
            self.calls.append(CallSite(chain=chain, locks=self._held()))
            self._record_spawn(call, chain)
            # A mutating method call on a self attribute is a write access;
            # any other attribute-method call reads the attribute.
            if len(chain) >= 2 and isinstance(call.func, ast.Attribute):
                found = self._attr_of(call.func.value)
                if found is not None:
                    write = chain[-1] in MUTATING_METHODS
                    if write or not found[2]:
                        self._record_access(found[0], found[1], write=write)
        for arg in call.args:
            self._visit(arg)
        for keyword in call.keywords:
            self._visit(keyword.value)
        if isinstance(call.func, (ast.Call, ast.Subscript, ast.Lambda)):
            self._visit(call.func)

    # -- the walk --------------------------------------------------------------

    def walk(self, scope: ast.AST) -> None:
        for stmt in getattr(scope, "body", []):
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                             ast.ClassDef)):
            return  # separate scope
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in node.items:
                self._visit(item.context_expr)
                chain = attribute_chain(item.context_expr) or []
                lock_id = self._lock_id(chain) if chain else None
                if lock_id is not None:
                    acquired.append(lock_id)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars)
            self._locks.extend(acquired)
            for stmt in node.body:
                self._visit(stmt)
            for _ in acquired:
                self._locks.pop()
            return
        if isinstance(node, ast.Assign):
            self._visit(node.value)
            for target in node.targets:
                self._record_write_target(target)
            if len(node.targets) == 1:
                self._maybe_alias(node.targets[0], node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._visit(node.value)
                self._record_write_target(node.target)
                self._maybe_alias(node.target, node.value)
            return
        if isinstance(node, ast.AugAssign):
            self._visit(node.value)
            # `self.x += 1` both reads and writes; record the write (the
            # stricter fact) plus the read implied by it.
            self._record_write_target(node.target)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_write_target(target)
            return
        if isinstance(node, ast.For) or isinstance(node, ast.AsyncFor):
            self._visit(node.iter)
            if isinstance(node.target, ast.Name):
                chain = attribute_chain(node.iter) or []
                if len(chain) == 2 and chain[0] == "self":
                    self.self_aliases[node.target.id] = chain[1]
            for stmt in node.body + node.orelse:
                self._visit(stmt)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node)
            return
        if isinstance(node, ast.Attribute):
            found = self._attr_of(node)
            if found is not None:
                if not found[2]:
                    self._record_access(found[0], found[1], write=False)
                return
            self._visit(node.value)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)


def extract_file(
    path: str,
    source: str,
    tree: Optional[ast.Module] = None,
    suppressions: Optional[Mapping[int, Iterable[str]]] = None,
) -> Optional[FileSummary]:
    """Extract one file's :class:`FileSummary` (``None`` outside the model)."""
    module = module_name_for(path)
    if module is None:
        return None
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
    classes = tuple(
        _class_info(node) for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    )
    lock_attrs_by_class = {info.name: frozenset(info.lock_attrs) for info in classes}
    class_names = set(lock_attrs_by_class)
    functions = tuple(
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    scopes: List[ScopeInfo] = []
    for qualname, node in iter_scopes(tree):
        if qualname == "<module>":
            continue
        head = qualname.split(".", 1)[0]
        cls = head if head in class_names else None
        extractor = _ScopeExtractor(
            cls, lock_attrs_by_class.get(cls or "", frozenset())
        )
        extractor.walk(node)
        params: List[Tuple[str, Tuple[str, ...]]] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in node.args.args + node.args.kwonlyargs:
                if arg.annotation is not None:
                    names = _annotation_names(arg.annotation)
                    if names:
                        params.append((arg.arg, names))
        scopes.append(ScopeInfo(
            qualname=qualname,
            cls=cls,
            accesses=tuple(extractor.accesses),
            calls=tuple(extractor.calls),
            spawns=tuple(extractor.spawns),
            param_types=tuple(params),
            local_types=tuple(sorted(extractor.local_types.items())),
            self_aliases=tuple(sorted(extractor.self_aliases.items())),
        ))
    packed_suppressions: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    if suppressions:
        packed_suppressions = tuple(
            (line, tuple(sorted(rules))) for line, rules in sorted(suppressions.items())
        )
    return FileSummary(
        path=path,
        module=module,
        scopes=scopes and tuple(scopes) or (),
        classes=classes,
        functions=functions,
        imports=_imports_of(tree),
        suppressions=packed_suppressions,
    )


# -- the linked model --------------------------------------------------------------


@dataclass(frozen=True)
class ThreadRoot:
    """One concrete thread entry point: a scope some spawn site starts."""

    scope: str
    #: ``"thread"`` (OS thread / thread-pool job) or ``"loop"`` (event loop).
    kind: str


@dataclass
class ProjectModel:
    """The linked project: symbol table, call graph, roots, reachability."""

    scopes: Dict[str, ScopeInfo] = field(default_factory=dict)
    scope_paths: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    class_modules: Dict[str, str] = field(default_factory=dict)
    #: caller scope id -> [(callee scope id, call site), ...]
    edges: Dict[str, List[Tuple[str, CallSite]]] = field(default_factory=dict)
    #: callee scope id -> [(caller scope id, call site), ...]
    reverse_edges: Dict[str, List[Tuple[str, CallSite]]] = field(default_factory=dict)
    roots: List[ThreadRoot] = field(default_factory=list)
    #: root scope id -> {reachable scope id -> locks guaranteed held on
    #: every discovered path from the root into that scope}
    root_reach: Dict[str, Dict[str, FrozenSet[str]]] = field(default_factory=dict)
    #: scope id -> locks guaranteed held by *every* non-``__init__`` caller.
    inherited_locks: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    suppressions: Dict[str, Dict[int, Set[str]]] = field(default_factory=dict)

    # -- queries used by the rules --------------------------------------------

    def effective_locks(self, scope_id: str, access_locks: Iterable[str]) -> FrozenSet[str]:
        """Locks held at an access: its lexical stack plus caller-inherited."""
        inherited = self.inherited_locks.get(scope_id, frozenset())
        return frozenset(access_locks) | inherited

    def roots_reaching(self, scope_id: str) -> List[ThreadRoot]:
        """Concrete thread roots from which ``scope_id`` is reachable."""
        return [
            root for root in self.roots
            if scope_id in self.root_reach.get(root.scope, {})
        ]

    def scopes_of_class(self, cls: str) -> Iterator[Tuple[str, ScopeInfo]]:
        for scope_id, info in self.scopes.items():
            if info.cls == cls:
                yield scope_id, info

    def is_init_scope(self, scope_id: str) -> bool:
        name = self.scopes[scope_id].qualname.split(".")[-1]
        return name in _DUNDER_INIT_NAMES

    def is_suppressed_at(self, path: str, line: int, rule: str) -> bool:
        disabled = self.suppressions.get(path, {}).get(line)
        if not disabled:
            return False
        return "all" in disabled or rule in disabled


class _Linker:
    def __init__(self, summaries: Sequence[FileSummary]) -> None:
        self.summaries = summaries
        self.model = ProjectModel()
        #: bare class name -> class id (first definition wins)
        self._functions: Dict[Tuple[str, str], str] = {}
        self._methods: Dict[Tuple[str, str], str] = {}
        self._imports: Dict[str, Dict[str, str]] = {}
        self._module_functions: Dict[str, Dict[str, str]] = {}

    def link(self) -> ProjectModel:
        self._index()
        self._build_edges()
        self._find_roots()
        self._compute_root_reach()
        self._compute_inherited_locks()
        return self.model

    # -- symbol table ----------------------------------------------------------

    def _index(self) -> None:
        model = self.model
        for summary in self.summaries:
            model.suppressions[summary.path] = {
                line: set(rules) for line, rules in summary.suppressions
            }
            self._imports[summary.module] = dict(summary.imports)
            module_functions = self._module_functions.setdefault(summary.module, {})
            for info in summary.classes:
                if info.name not in model.classes:
                    model.classes[info.name] = info
                    model.class_modules[info.name] = summary.module
            for scope in summary.scopes:
                scope_id = f"{summary.module}:{scope.qualname}"
                model.scopes[scope_id] = scope
                model.scope_paths[scope_id] = summary.path
                if scope.cls is not None and scope.qualname.count(".") == 1:
                    method = scope.qualname.split(".", 1)[1]
                    self._methods.setdefault((scope.cls, method), scope_id)
                elif "." not in scope.qualname:
                    module_functions[scope.qualname] = scope_id

    # -- call resolution -------------------------------------------------------

    def _method_scope(self, cls: Optional[str], method: str,
                      seen: Optional[Set[str]] = None) -> Optional[str]:
        """Method lookup through the recorded base-class names."""
        if cls is None or cls not in self.model.classes:
            return None
        found = self._methods.get((cls, method))
        if found is not None:
            return found
        seen = seen or set()
        seen.add(cls)
        for base in self.model.classes[cls].bases:
            if base in seen:
                continue
            found = self._method_scope(base, method, seen)
            if found is not None:
                return found
        return None

    def _known_classes(self, candidates: Iterable[str]) -> List[str]:
        return [name for name in candidates if name in self.model.classes]

    def _receiver_classes(self, scope: ScopeInfo, name: str) -> List[str]:
        """Possible project classes of a local/parameter receiver."""
        local_types = dict(scope.local_types)
        if name in local_types:
            return self._known_classes([local_types[name]])
        aliases = dict(scope.self_aliases)
        if name in aliases and scope.cls is not None:
            return self._attr_classes(scope.cls, aliases[name])
        for param, candidates in scope.param_types:
            if param == name:
                return self._known_classes(candidates)
        return []

    def _attr_classes(self, cls: str, attr: str) -> List[str]:
        info = self.model.classes.get(cls)
        if info is None:
            return []
        for name, candidates in info.attr_types:
            if name == attr:
                return self._known_classes(candidates)
        return []

    def _resolve_call(self, scope_id: str, scope: ScopeInfo,
                      chain: Tuple[str, ...]) -> List[str]:
        module = scope_id.split(":", 1)[0]
        targets: List[str] = []
        if len(chain) == 1:
            name = chain[0]
            nested = f"{module}:{scope.qualname}.<locals>.{name}"
            if nested in self.model.scopes:
                return [nested]
            found = self._module_functions.get(module, {}).get(name)
            if found is not None:
                return [found]
            origin = self._imports.get(module, {}).get(name)
            if origin is not None and "." in origin:
                source_module, source_name = origin.rsplit(".", 1)
                found = self._module_functions.get(source_module, {}).get(source_name)
                if found is not None:
                    return [found]
            return []
        if len(chain) == 2:
            base, method = chain
            if base == "self":
                found = self._method_scope(scope.cls, method)
                return [found] if found is not None else []
            origin = self._imports.get(module, {}).get(base)
            if origin is not None:
                found = self._module_functions.get(origin, {}).get(method)
                if found is not None:
                    return [found]
            for cls in self._receiver_classes(scope, base):
                found = self._method_scope(cls, method)
                if found is not None:
                    targets.append(found)
            return targets
        if len(chain) == 3 and chain[0] == "self" and scope.cls is not None:
            for cls in self._attr_classes(scope.cls, chain[1]):
                found = self._method_scope(cls, chain[2])
                if found is not None:
                    targets.append(found)
        return targets

    def _build_edges(self) -> None:
        model = self.model
        for scope_id, scope in model.scopes.items():
            for call in scope.calls:
                if call.chain[:1] == ("*",):
                    continue
                for target in self._resolve_call(scope_id, scope, call.chain):
                    model.edges.setdefault(scope_id, []).append((target, call))
                    model.reverse_edges.setdefault(target, []).append(
                        (scope_id, call)
                    )

    # -- thread roots ----------------------------------------------------------

    def _loop_host_class(self, cls: str) -> bool:
        """A class whose ``schedule``/``run`` hands coroutines to a loop."""
        for method in ("schedule", "run"):
            scope_id = self._methods.get((cls, method))
            if scope_id is None:
                continue
            for call in self.model.scopes[scope_id].calls:
                if call.chain[-1:] == ("run_coroutine_threadsafe",):
                    return True
        return False

    def _spawn_kind(self, scope: ScopeInfo, spawn: SpawnSite) -> Optional[str]:
        if spawn.kind in ("thread", "process", "loop"):
            return spawn.kind
        receiver = spawn.receiver
        if spawn.kind == "executor":
            classes: List[str] = []
            if len(receiver) == 1:
                classes = [dict(scope.local_types).get(receiver[0], "")]
                classes += self._receiver_classes(scope, receiver[0])
            elif len(receiver) == 2 and receiver[0] == "self" and scope.cls:
                classes = self._attr_classes(scope.cls, receiver[1])
                info = self.model.classes.get(scope.cls)
                if info is not None:
                    for name, candidates in info.attr_types:
                        if name == receiver[1]:
                            classes += list(candidates)
            for name in classes:
                if name == "ThreadPoolExecutor":
                    return "thread"
                if name in ("ProcessPoolExecutor", "Pool"):
                    return "process"
            return None
        if spawn.kind == "maybe-loop":
            classes = []
            if len(receiver) == 1:
                classes = [dict(scope.local_types).get(receiver[0], "")]
                classes += self._receiver_classes(scope, receiver[0])
            elif len(receiver) == 2 and receiver[0] == "self" and scope.cls:
                classes = self._attr_classes(scope.cls, receiver[1])
            for name in classes:
                if name in self.model.classes and self._loop_host_class(name):
                    return "loop"
            return None
        return None

    def _find_roots(self) -> None:
        model = self.model
        seen: Set[Tuple[str, str]] = set()
        for scope_id, scope in model.scopes.items():
            for spawn in scope.spawns:
                kind = self._spawn_kind(scope, spawn)
                if kind not in ("thread", "loop") or not spawn.target:
                    continue  # process spawns share no memory: out of scope
                for target in self._resolve_call(scope_id, scope, spawn.target):
                    if (target, kind) in seen:
                        continue
                    seen.add((target, kind))
                    model.roots.append(ThreadRoot(scope=target, kind=kind))
        model.roots.sort(key=lambda root: (root.scope, root.kind))

    # -- reachability ----------------------------------------------------------

    def _compute_root_reach(self) -> None:
        model = self.model
        for root in model.roots:
            reach: Dict[str, FrozenSet[str]] = {root.scope: frozenset()}
            worklist = [root.scope]
            while worklist:
                scope_id = worklist.pop()
                held = reach[scope_id]
                for callee, call in model.edges.get(scope_id, []):
                    candidate = held | frozenset(call.locks)
                    previous = reach.get(callee)
                    if previous is None:
                        reach[callee] = candidate
                        worklist.append(callee)
                    else:
                        merged = previous & candidate
                        if merged != previous:
                            reach[callee] = merged
                            worklist.append(callee)
            model.root_reach[root.scope] = reach

    def _compute_inherited_locks(self) -> None:
        """Locks every non-``__init__`` caller is guaranteed to hold.

        Public scopes and thread roots inherit nothing (anyone may call
        them lock-free); a private helper inherits the intersection over
        its observed call sites of (caller inherited ∪ locks held at the
        call).  Construction-time calls are excluded — ``__init__`` runs
        before the object is shared.
        """
        model = self.model
        root_ids = {root.scope for root in model.roots}

        def is_private(scope_id: str) -> bool:
            name = model.scopes[scope_id].qualname.split(".")[-1]
            return (
                name.startswith("_")
                and not (name.startswith("__") and name.endswith("__"))
            )

        inherited: Dict[str, FrozenSet[str]] = {}
        changed = True
        passes = 0
        while changed and passes < 50:
            changed = False
            passes += 1
            for scope_id in model.scopes:
                if not is_private(scope_id) or scope_id in root_ids:
                    value: FrozenSet[str] = frozenset()
                else:
                    callers = [
                        (caller, call)
                        for caller, call in model.reverse_edges.get(scope_id, [])
                        if not model.is_init_scope(caller)
                    ]
                    if not callers:
                        value = frozenset()
                    else:
                        sets = [
                            inherited.get(caller, frozenset()) | frozenset(call.locks)
                            for caller, call in callers
                        ]
                        value = frozenset.intersection(*sets)
                if inherited.get(scope_id, None) != value:
                    inherited[scope_id] = value
                    changed = True
        model.inherited_locks = inherited


def build_project(summaries: Iterable[Optional[FileSummary]]) -> ProjectModel:
    """Link per-file summaries into the :class:`ProjectModel`."""
    concrete = sorted(
        (summary for summary in summaries if summary is not None),
        key=lambda summary: summary.path,
    )
    return _Linker(concrete).link()
