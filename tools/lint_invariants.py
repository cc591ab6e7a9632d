#!/usr/bin/env python3
"""AST lint for engine invariants that plain style checkers can't see.

Eight rules, all load-bearing for the caching and execution layers:

1. **version/changelog pairing** — the rollup index and pre-aggregate
   store detect staleness by comparing version counters and replay
   mutations from bounded change logs.  A mutating method that bumps a
   version counter without recording a log entry (or vice versa) breaks
   delta maintenance silently: the index either misses a mutation or
   replays one that never happened.  Rule: inside any method of
   ``AnnotatedOrder``, ``FactDimensionRelation``, or
   ``MultidimensionalObject``, every ``self._*version* += 1`` must be
   paired with a ``self._*log*.record(...)`` call in the same method,
   and vice versa.

2. **observability names documented** — every *literal* metric/span
   name passed to ``metrics.counter``, ``metrics.gauge``,
   ``metrics.histogram``, or ``trace.span`` in ``src/`` must appear in
   ``docs/OBSERVABILITY.md``, so the catalogue stays the single source
   of truth.  Names built at runtime (f-strings such as
   ``analyze.diagnostics.{code}``) are skipped — the doc records those
   as patterns.

3. **diagnostic catalogue in sync** — every ``MDnnn`` code in the
   analyzer's ``CATALOG`` must be documented in ``docs/ANALYSIS.md``,
   and every ``MDnnn`` the doc mentions must exist in ``CATALOG``, so
   neither can drift from the other.

4. **kernel/object-path pairing** — an ``AggregationFunction`` subclass
   that overrides ``batch_apply`` (a columnar kernel) must override
   ``apply`` in the same class, and vice versa for any class that has a
   kernel anywhere below ``AggregationFunction`` in its bases.  A class
   inheriting a kernel but redefining only ``apply`` would silently
   compute different results on the columnar and object paths; the two
   are byte-identity oracles for each other and must evolve together.

5. **version-vector completeness** — every version-stamped cache
   (the SQL backend's star reload, the result cache) detects staleness
   by comparing the *documented* version vector: the MO's fact-set
   version plus, per dimension, the fact-dimension relation version
   and the containment-order version.  A stamp function that forgets
   one counter family serves stale results after exactly the mutations
   that bump only the forgotten counter.  Rule: every function named
   ``version_vector`` or ``_version_stamp`` under ``src/`` must read
   ``facts_version``, call ``.relation(...)`` and ``.dimension(...)``,
   and reach both ``.order`` and ``.version`` — and at least one such
   function must exist.

6. **lock discipline on shared registries** — the process-global
   mutable state (obs metric values, the trace ring buffer and its
   open-collector count, the fingerprint token table, the SQL-backend
   LRU, the result cache's entry table) is mutated from arbitrary
   threads; every read-modify-write must happen inside
   ``with <owning lock>:`` in the same function.  Declarative per-file
   config (:data:`LOCK_RULES`) names the lock(s), the guarded names,
   and the deliberate exemptions: ``__init__`` (no concurrent aliases
   exist yet), ``*_locked`` helpers (the caller holds the lock — the
   suffix is the contract), and listed GIL-atomic single-op mutations
   (the trace buffer's lock-free ``_buffer.append`` hot path).

7. **execution-backend protocol surface** — every class below
   ``ExecutionBackend`` must carry the full protocol: a class-level
   ``name`` of its own (the base's empty string is unregistrable) and a
   ``run`` override somewhere below the base (the base raises).  A
   backend missing either would only fail at first dispatch, long after
   registration; ``plan_for``/``supports`` may inherit the base's
   no-op.  The registry itself is rule-6 state: ``engine/backends.py``
   is in :data:`LOCK_RULES`, so every ``_REGISTRY`` mutation must hold
   ``_REGISTRY_LOCK`` (and the sharded executor's pool/payload-cache
   globals their locks).

8. **one timing mechanism** — a query is timed by ``obs.trace`` spans
   alone: ``Query.explain()`` and ``explain_analyze`` read them, so a
   hand-rolled timer elsewhere would be a second, unseen mechanism.
   Rule: no call to ``time.perf_counter``, ``time.monotonic``,
   ``time.time`` or ``time.process_time`` (nor their ``_ns`` forms)
   under ``src/repro/`` outside ``obs/trace.py``, except at the sites
   the declarative :data:`CLOCK_SITES` table lists with the reason
   each is not query timing.

Zero dependencies; exits 1 on any violation.  Run from the repo root::

    python tools/lint_invariants.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import FrozenSet, Iterator, List, NamedTuple, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
OBS_DOC = REPO / "docs" / "OBSERVABILITY.md"
ANALYSIS_DOC = REPO / "docs" / "ANALYSIS.md"
DIAGNOSTICS = SRC / "analyze" / "diagnostics.py"

#: classes whose mutators must keep version counters and change logs in
#: lock step (the staleness/delta protocol of the rollup index).
VERSIONED_CLASSES = {
    "AnnotatedOrder",
    "FactDimensionRelation",
    "MultidimensionalObject",
}

#: obs factory calls whose first positional argument is the name.
OBS_CALLS = {
    ("metrics", "counter"),
    ("metrics", "gauge"),
    ("metrics", "histogram"),
    ("trace", "span"),
}


def _iter_sources() -> Iterator[Path]:
    return sorted(SRC.rglob("*.py"))


def _is_self_attr(node: ast.expr, fragment: str) -> bool:
    """``node`` is ``self.<name>`` with ``fragment`` in ``<name>``."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and fragment in node.attr)


def _bumps_version(node: ast.AST) -> bool:
    return (isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and _is_self_attr(node.target, "version"))


def _records_log(node: ast.AST) -> bool:
    """``self.<something log>.record(...)``"""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
            and _is_self_attr(node.func.value, "log"))


def check_version_log_pairing(path: Path, tree: ast.AST) -> List[str]:
    problems = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef)
                and cls.name in VERSIONED_CLASSES):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            bumps = [n for n in ast.walk(method) if _bumps_version(n)]
            records = [n for n in ast.walk(method) if _records_log(n)]
            where = f"{path.relative_to(REPO)}:{method.lineno}"
            name = f"{cls.name}.{method.name}"
            if bumps and not records:
                problems.append(
                    f"{where}: {name} bumps a version counter but never "
                    f"records a change-log entry (delta maintenance "
                    f"would replay a hole)")
            if records and not bumps:
                problems.append(
                    f"{where}: {name} records a change-log entry but "
                    f"never bumps a version counter (the entry would "
                    f"shadow an existing version)")
            if bumps and records and len(bumps) != len(records):
                problems.append(
                    f"{where}: {name} has {len(bumps)} version bump(s) "
                    f"but {len(records)} change-log record(s) — each "
                    f"bump needs exactly one log entry")
    return problems


def _obs_names(tree: ast.AST) -> Iterator[Tuple[int, str, bool]]:
    """``(lineno, name or '<dynamic>', is_literal)`` per obs call."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and (node.func.value.id, node.func.attr) in OBS_CALLS):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield node.lineno, first.value, True
        else:
            yield node.lineno, "<dynamic>", False


def check_obs_names_documented(path: Path, tree: ast.AST,
                               doc_text: str) -> List[str]:
    problems = []
    for lineno, name, literal in _obs_names(tree):
        if literal and name not in doc_text:
            problems.append(
                f"{path.relative_to(REPO)}:{lineno}: observability name "
                f"{name!r} is not documented in docs/OBSERVABILITY.md")
    return problems


def _catalog_codes() -> List[str]:
    """The ``MDnnn`` keys of ``CATALOG`` in the diagnostics module,
    read via AST so the lint stays importable without the package."""
    tree = ast.parse(DIAGNOSTICS.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "CATALOG"
                   for t in targets):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            return [k.value for k in value.keys
                    if isinstance(k, ast.Constant)
                    and isinstance(k.value, str)]
    raise RuntimeError("CATALOG dict not found in diagnostics.py")


#: ``class name -> (path, lineno, defined method names, base names,
#: class-level assignment names)``
ClassInfo = Tuple[Path, int, set, List[str], set]


def _collect_classes(
        forest: List[Tuple[Path, ast.AST]]) -> "dict[str, ClassInfo]":
    classes: dict = {}
    for path, tree in forest:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            assigns = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    assigns.update(t.id for t in stmt.targets
                                   if isinstance(t, ast.Name))
                elif (isinstance(stmt, ast.AnnAssign)
                        and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)):
                    assigns.add(stmt.target.id)
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            classes[node.name] = (path, node.lineno, methods, bases,
                                  assigns)
    return classes


def _ancestry(classes: "dict[str, ClassInfo]", name: str) -> List[str]:
    """The class and its ancestors, nearest first (breadth-first over
    base lists — close enough to the MRO for this codebase's simple
    hierarchies)."""
    order, queue = [], [name]
    while queue:
        cls = queue.pop(0)
        if cls in order or cls not in classes:
            continue
        order.append(cls)
        queue.extend(classes[cls][3])
    return order


def _provider(classes: "dict[str, ClassInfo]", name: str,
              method: str) -> "str | None":
    """The nearest class in ``name``'s ancestry defining ``method``."""
    for cls in _ancestry(classes, name):
        if method in classes[cls][2]:
            return cls
    return None


def check_kernel_pairing(
        classes: "dict[str, ClassInfo]") -> List[str]:
    problems = []
    for name in sorted(classes):
        if name == "AggregationFunction":
            continue
        if "AggregationFunction" not in _ancestry(classes, name):
            continue
        path, lineno, _methods, _bases, _assigns = classes[name]
        provider_apply = _provider(classes, name, "apply")
        provider_batch = _provider(classes, name, "batch_apply")
        if (provider_batch is not None
                and provider_batch != "AggregationFunction"
                and provider_apply != provider_batch):
            problems.append(
                f"{path.relative_to(REPO)}:{lineno}: {name} resolves "
                f"apply from {provider_apply} but its batch_apply "
                f"kernel from {provider_batch} — the object path and "
                f"the columnar kernel must be overridden together or "
                f"not at all")
    return problems


def check_backend_protocol(
        classes: "dict[str, ClassInfo]") -> List[str]:
    """Rule 7: every class below ``ExecutionBackend`` must declare its
    own ``name`` and resolve ``run`` from below the base class."""
    problems = []
    for name in sorted(classes):
        if name == "ExecutionBackend":
            continue
        if "ExecutionBackend" not in _ancestry(classes, name):
            continue
        path, lineno, _methods, _bases, _assigns = classes[name]
        where = f"{path.relative_to(REPO)}:{lineno}"
        has_name = any(
            "name" in classes[cls][4]
            for cls in _ancestry(classes, name)
            if cls != "ExecutionBackend")
        if not has_name:
            problems.append(
                f"{where}: {name} inherits ExecutionBackend's empty "
                f"name — an unregistrable backend; declare a "
                f"class-level name")
        provider_run = _provider(classes, name, "run")
        if provider_run in (None, "ExecutionBackend"):
            problems.append(
                f"{where}: {name} never overrides "
                f"ExecutionBackend.run — registration would only fail "
                f"at first dispatch (the base raises "
                f"NotImplementedError)")
    return problems


#: functions that produce a staleness stamp for a versioned cache.
VERSION_STAMP_FUNCS = {"version_vector", "_version_stamp"}

#: every attribute a complete stamp must reach: the fact-set counter,
#: the relation and order lookups, and the ``version`` field on each.
VERSION_STAMP_ATTRS = ("facts_version", "relation", "dimension",
                       "order", "version")


def check_version_vector_completeness(
        forest: List[Tuple[Path, ast.AST]]) -> List[str]:
    problems: List[str] = []
    found = 0
    for path, tree in forest:
        for node in ast.walk(tree):
            if not (isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                    and node.name in VERSION_STAMP_FUNCS):
                continue
            found += 1
            attrs = {n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Attribute)}
            missing = [a for a in VERSION_STAMP_ATTRS if a not in attrs]
            if missing:
                problems.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: "
                    f"{node.name} never reads {', '.join(missing)} — a "
                    f"version stamp must cover the fact-set, relation, "
                    f"and order counters or its cache serves stale "
                    f"results")
    if not found:
        problems.append(
            "no version_vector/_version_stamp function found under "
            "src/ — the versioned caches have lost their staleness "
            "stamp")
    return problems


def check_catalog_documented() -> List[str]:
    problems = []
    doc_text = ANALYSIS_DOC.read_text(encoding="utf-8")
    codes = _catalog_codes()
    for code in codes:
        if code not in doc_text:
            problems.append(
                f"{DIAGNOSTICS.relative_to(REPO)}: catalogue code "
                f"{code} is not documented in docs/ANALYSIS.md")
    for code in sorted(set(re.findall(r"MD\d{3}", doc_text))):
        if code not in codes:
            problems.append(
                f"docs/ANALYSIS.md mentions {code}, which is not in "
                f"the analyzer's CATALOG")
    return problems


class LockRule(NamedTuple):
    """Lock discipline for one file: mutations of ``guarded`` names
    must sit inside ``with <lock>:`` for one of ``locks``.

    Names are either module globals (``"_RECENT"``) or instance
    attributes spelled ``"self._entries"``; the same spelling works
    for locks.  ``atomic`` lists ``"name.method"`` calls exempted as
    single-bytecode GIL-atomic mutations."""

    file: str
    locks: FrozenSet[str]
    guarded: FrozenSet[str]
    atomic: FrozenSet[str] = frozenset()


#: rule 6's config — the owning lock per shared registry.
LOCK_RULES: Tuple[LockRule, ...] = (
    LockRule("obs/metrics.py",
             locks=frozenset({"_MUTATION_LOCK", "self._lock"}),
             guarded=frozenset({"self.value", "self.count", "self.total",
                                "self.min", "self.max", "self._counters",
                                "self._gauges", "self._histograms"})),
    LockRule("obs/trace.py",
             locks=frozenset({"_BUFFER_LOCK"}),
             guarded=frozenset({"_buffer", "_open_collectors"}),
             # the span hot path appends lock-free: one deque.append
             # is GIL-atomic, and the buffer-management docstring
             # documents the best-effort view readers get
             atomic=frozenset({"_buffer.append"})),
    LockRule("engine/plan_fingerprint.py",
             locks=frozenset({"_TOKEN_LOCK"}),
             guarded=frozenset({"_TOKENS"})),
    LockRule("engine/result_cache.py",
             locks=frozenset({"self._lock"}),
             guarded=frozenset({"self._entries", "self._nbytes"})),
    LockRule("relational/backend/__init__.py",
             locks=frozenset({"_REGISTRY_LOCK"}),
             guarded=frozenset({"_BACKENDS", "_RECENT"})),
    LockRule("engine/backends.py",
             locks=frozenset({"_REGISTRY_LOCK"}),
             guarded=frozenset({"_REGISTRY"})),
    LockRule("engine/sharded.py",
             locks=frozenset({"_POOL_LOCK", "self._cache_lock"}),
             guarded=frozenset({"_POOL", "_POOL_WORKERS",
                                "self._payload_cache"})),
)

#: method calls that mutate their receiver in place.
LOCK_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "pop",
    "popleft", "popitem", "clear", "update", "setdefault", "add",
    "discard", "move_to_end", "sort", "reverse",
})


def _name_of(node: ast.expr) -> "str | None":
    """``"NAME"`` / ``"self.attr"`` for the expressions the lock rules
    spell, unwrapping subscripts (``_TOKENS[mo]`` mutates ``_TOKENS``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return f"self.{node.attr}"
    return None


#: statements with no statement children: safe to deep-scan for calls
#: without re-walking block bodies the visitor recurses into itself.
_SIMPLE_STMTS = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign,
                 ast.Return, ast.Delete, ast.Assert, ast.Raise)


def _lock_mutations(node: ast.stmt,
                    rule: LockRule) -> Iterator[Tuple[int, str]]:
    """``(lineno, description)`` per guarded-name mutation in ``node``
    itself (not its block children — the walker handles recursion)."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        name = _name_of(target)
        if name in rule.guarded:
            yield node.lineno, f"assignment to {name}"
    if not isinstance(node, _SIMPLE_STMTS):
        return
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in LOCK_MUTATOR_METHODS):
            continue
        name = _name_of(call.func.value)
        if name not in rule.guarded:
            continue
        if f"{name}.{call.func.attr}" in rule.atomic:
            continue
        yield call.lineno, f"{name}.{call.func.attr}(...)"


def _is_lock_with(stmt: ast.stmt, rule: LockRule) -> bool:
    return (isinstance(stmt, ast.With)
            and any(_name_of(item.context_expr) in rule.locks
                    for item in stmt.items))


def check_lock_discipline(path: Path, tree: ast.AST,
                          rule: LockRule) -> List[str]:
    problems: List[str] = []

    def visit(stmt: ast.stmt, func: str, locked: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a new runtime scope: the enclosing with-block does not
            # guard calls made later through this closure
            if stmt.name == "__init__" or stmt.name.endswith("_locked"):
                return
            for child in stmt.body:
                visit(child, stmt.name, False)
            return
        if _is_lock_with(stmt, rule):
            for child in stmt.body:
                visit(child, func, True)
            return
        if not locked and func is not None:
            for lineno, what in _lock_mutations(stmt, rule):
                problems.append(
                    f"{path.relative_to(REPO) if path.is_absolute() else path}"
                    f":{lineno}: {what} in {func} runs outside "
                    f"`with {sorted(rule.locks)[0]}:` — a concurrent "
                    f"read-modify-write can interleave and corrupt the "
                    f"shared registry")
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                visit(child, func, locked)

    assert isinstance(tree, ast.Module)
    for stmt in tree.body:
        visit(stmt, None, False)
    return problems


#: rule 8's clocks: the ``time`` functions that read one.
CLOCK_FUNCTIONS = frozenset({
    "perf_counter", "monotonic", "time", "process_time",
    "perf_counter_ns", "monotonic_ns", "time_ns", "process_time_ns",
})

#: the one module whose clock reads time spans.
TIMING_MODULE = "obs/trace.py"


class ClockSite(NamedTuple):
    """A clock read rule 8 allows outside :data:`TIMING_MODULE`:
    ``function`` (``Class.method``) in ``file`` (relative to
    ``src/repro``), and why it is not query timing."""

    file: str
    function: str
    reason: str


#: rule 8's config — the clock reads that are not query timing.
CLOCK_SITES: Tuple[ClockSite, ...] = (
    ClockSite("engine/query.py", "Query._answer",
              "the recompute cost that drives result-cache admission"),
    ClockSite("engine/result_cache.py", "ResultCache.get",
              "the query.cache.lookup_seconds histogram"),
)


def check_clock_reads(rel: str, tree: ast.AST) -> List[str]:
    """Rule 8 on one module, ``rel`` being its path under
    ``src/repro``."""
    if rel == TIMING_MODULE:
        return []
    allowed = {site.function for site in CLOCK_SITES if site.file == rel}
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            functions.update(alias.asname or alias.name
                             for alias in node.names
                             if alias.name in CLOCK_FUNCTIONS)

    def clock_of(func: ast.expr) -> "str | None":
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
                and func.attr in CLOCK_FUNCTIONS):
            return f"time.{func.attr}"
        if isinstance(func, ast.Name) and func.id in functions:
            return func.id
        return None

    problems: List[str] = []

    def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            clock = (clock_of(child.func) if isinstance(child, ast.Call)
                     else None)
            where = ".".join(scope) or "<module>"
            if clock is not None and where not in allowed:
                problems.append(
                    f"src/repro/{rel}:{child.lineno}: {clock}() in {where} "
                    f"— time engine work with trace.span, the one timing "
                    f"mechanism (CLOCK_SITES lists the only other clock "
                    f"reads)")
            visit(child, scope)

    visit(tree, ())
    return problems


def main() -> int:
    doc_text = OBS_DOC.read_text(encoding="utf-8")
    problems: List[str] = []
    forest: List[Tuple[Path, ast.AST]] = []
    for path in _iter_sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        forest.append((path, tree))
        problems += check_version_log_pairing(path, tree)
        problems += check_obs_names_documented(path, tree, doc_text)
        rel = path.relative_to(SRC).as_posix()
        problems += check_clock_reads(rel, tree)
        for rule in LOCK_RULES:
            if rule.file == rel:
                problems += check_lock_discipline(path, tree, rule)
    classes = _collect_classes(forest)
    problems += check_kernel_pairing(classes)
    problems += check_backend_protocol(classes)
    problems += check_catalog_documented()
    problems += check_version_vector_completeness(forest)
    if problems:
        print(f"lint_invariants: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
