"""Pluggable execution backends for :class:`~repro.engine.query.Query`.

A backend is one way to answer a query — the in-process store → index →
α ladder, the SQL star-schema pushdown, or the parallel sharded
executor (:mod:`repro.engine.sharded`).  :class:`ExecutionBackend` is
the protocol; a process-wide locked registry maps names to instances so
``Query.execute(backend="sql")`` resolves without any string dispatch
in the query layer itself.

The protocol splits a backend's answer into three hooks:

* :meth:`ExecutionBackend.plan_for` — the algebra plan the backend
  inspects and executes (``None`` for backends that work straight off
  the query, keeping the memory hot path plan-free);
* :meth:`ExecutionBackend.supports` — ``None`` when the backend can
  answer the plan *exactly*, otherwise the analyzer
  :class:`~repro.analyze.diagnostics.Diagnostic` naming why not;
* :meth:`ExecutionBackend.run` — produce the rows (and the
  ``explain().path`` label).  The trace spans ``run`` opens become
  the call's explain steps.

:func:`dispatch` is the one driver above every backend: it asks
``supports`` first and, on a refusal, either falls through to the
backend's declared :attr:`~ExecutionBackend.fallback` (recording a
``backends.fallback`` span with the diagnostic and bumping the
backend's fallback counter — the SQL backend's ``PushdownUnsupported``
fallback is this mechanism) or raises :class:`BackendRefused` carrying
the diagnostic.  The result cache, ``check=``, and the call's
``query.execute`` root span stay in :class:`~repro.engine.query.Query`,
once, above all backends.

Registering a backend::

    from repro.engine.backends import ExecutionBackend, register_backend

    class MyBackend(ExecutionBackend):
        name = "mine"

        def run(self, query, plan, function, strict_types):
            ...
            return rows, self.name

    register_backend(MyBackend())

``tools/lint_invariants.py`` rule 7 checks that every
:class:`ExecutionBackend` subclass implements the full protocol surface
and that registry mutations stay under :data:`_REGISTRY_LOCK`.
"""

from __future__ import annotations

import importlib
import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.algebra.functions import AggregationFunction
from repro.obs import metrics, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.diagnostics import Diagnostic
    from repro.engine.query import Query, QueryResultRow

__all__ = [
    "BackendRefused",
    "ExecutionBackend",
    "MemoryBackend",
    "SqlExecutionBackend",
    "backend_named",
    "dispatch",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]

_PATH_SQL = metrics.counter("query.path.sql")


class BackendRefused(Exception):
    """An execution backend declined a plan it cannot answer exactly.

    Carries the :class:`~repro.analyze.diagnostics.Diagnostic` naming
    the reason — for the sharded executor this is the very MD07x
    finding :func:`repro.analyze.analyze_shardability` predicts.  Only
    surfaces to callers when the refusing backend declares no
    :attr:`~ExecutionBackend.fallback`; backends with one fall through
    silently (counted, and visible as a ``backends.fallback`` span).
    """

    def __init__(self, diagnostic: "Diagnostic") -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


class ExecutionBackend:
    """One way to answer a :class:`~repro.engine.query.Query`.

    Subclasses must set :attr:`name` and implement :meth:`run`; they
    may override :meth:`plan_for` and :meth:`supports` to take part in
    the generic refusal → fallback mechanism of :func:`dispatch`.
    """

    #: registry key, ``Query.execute(backend=...)`` vocabulary entry,
    #: and the ``explain().path`` label family.
    name: str = ""

    #: registry name of the backend that answers plans this one
    #: refuses; ``None`` makes a refusal raise :class:`BackendRefused`.
    fallback: Optional[str] = None

    #: counter bumped once per refusal-triggered fallback.
    fallback_counter: str = "query.backend.fallback"

    def plan_for(self, query: "Query", function: AggregationFunction,
                 strict_types: bool):
        """The algebra plan :meth:`supports` inspects and :meth:`run`
        executes.  The base returns ``None``: backends that evaluate
        straight off the query (the memory ladder) skip plan
        construction entirely on the hot path."""
        return None

    def supports(self, query: "Query", plan) -> Optional["Diagnostic"]:
        """``None`` when this backend can answer the plan exactly;
        otherwise the diagnostic naming why not.  Must not mutate the
        query; may cache work for :meth:`run` (the SQL backend compiles
        here, once)."""
        return None

    def run(self, query: "Query", plan,
            function: AggregationFunction, strict_types: bool,
            ) -> Tuple[List["QueryResultRow"], str]:
        """Answer the query: ``(rows, path label)``.  May raise
        :class:`BackendRefused` as a runtime backstop for conditions
        :meth:`supports` cannot see statically; :func:`dispatch`
        handles it exactly like a ``supports`` refusal."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement run()")


#: name → instance; every mutation must hold :data:`_REGISTRY_LOCK`
#: (``tools/lint_invariants.py`` rule 6 enforces the discipline).
_REGISTRY: Dict[str, ExecutionBackend] = {}
_REGISTRY_LOCK = threading.Lock()

#: backends registered on first use — the sharded executor pulls in the
#: analyzer package, which (via the SQL pushdown analysis) imports the
#: query layer, so eagerly importing it here would be circular.  The
#: named module registers itself at import time.
_LAZY_MODULES: Dict[str, str] = {"sharded": "repro.engine.sharded"}


def register_backend(backend: ExecutionBackend,
                     replace: bool = False) -> ExecutionBackend:
    """Add a backend to the process-wide registry under its
    :attr:`~ExecutionBackend.name`.  Re-registering the same instance
    is a no-op; replacing a different instance requires ``replace=True``
    so two libraries cannot silently fight over a name."""
    name = backend.name
    if not name:
        raise ValueError(
            f"{type(backend).__name__} must declare a non-empty name")
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not backend and not replace:
            raise ValueError(
                f"backend {name!r} is already registered "
                f"({type(existing).__name__}); pass replace=True to "
                f"override")
        _REGISTRY[name] = backend
    return backend


def registered_backends() -> Tuple[str, ...]:
    """The sorted names ``backend_named`` resolves, including backends
    that register lazily on first use."""
    with _REGISTRY_LOCK:
        names = set(_REGISTRY)
    return tuple(sorted(names | set(_LAZY_MODULES)))


def backend_named(name: str) -> ExecutionBackend:
    """The registered backend behind a name — the single source of
    truth for ``Query.execute``'s and ``Query.explain``'s ``backend=``
    argument (both used to duplicate this validation)."""
    with _REGISTRY_LOCK:
        found = _REGISTRY.get(name)
    if found is None and name in _LAZY_MODULES:
        importlib.import_module(_LAZY_MODULES[name])
        with _REGISTRY_LOCK:
            found = _REGISTRY.get(name)
    if found is None:
        known = ", ".join(repr(n) for n in registered_backends())
        raise ValueError(
            f"unknown backend {name!r} (registered backends: {known})")
    return found


def resolve_backend(
        backend: Union[str, ExecutionBackend]) -> ExecutionBackend:
    """A registry name or a ready instance, to the instance — letting
    callers pass configured backends (``ShardedBackend(n_shards=4)``)
    without touching the global registry."""
    if isinstance(backend, ExecutionBackend):
        return backend
    return backend_named(backend)


def dispatch(query: "Query", backend: ExecutionBackend,
             function: AggregationFunction, strict_types: bool,
             ) -> Tuple[List["QueryResultRow"], str]:
    """Run one backend with the generic refusal → fallback protocol.

    ``supports`` gates ``run``; a refusal (static, or a
    :class:`BackendRefused` raised from ``run`` as a runtime backstop)
    either falls through to the backend's declared fallback — counting
    it on the backend's :attr:`~ExecutionBackend.fallback_counter` and
    recording a ``backends.fallback`` span with the diagnostic — or
    propagates as :class:`BackendRefused`.
    """
    plan = backend.plan_for(query, function, strict_types)
    refusal = backend.supports(query, plan)
    if refusal is None:
        try:
            return backend.run(query, plan, function, strict_types)
        except BackendRefused as exc:
            refusal = exc.diagnostic
    if backend.fallback is None:
        raise BackendRefused(refusal)
    metrics.counter(backend.fallback_counter).inc()
    # a marker: the refused attempt's own spans hold its time
    with trace.span("backends.fallback", backend=backend.name,
                    detail=f"{refusal.code} at {refusal.location}: "
                           f"{refusal.message}"):
        pass
    return dispatch(query, backend_named(backend.fallback),
                    function, strict_types)


class MemoryBackend(ExecutionBackend):
    """The in-process answer ladder: pre-aggregate store, then the
    rollup-index fast path, then full α — all owned by
    :meth:`Query._run`; this class is the protocol adapter around it.
    Supports every plan (it *is* the semantics the other backends are
    byte-identical to), so :meth:`supports` never refuses."""

    name = "memory"

    def run(self, query: "Query", plan,
            function: AggregationFunction, strict_types: bool,
            ) -> Tuple[List["QueryResultRow"], str]:
        return query._run(function, strict_types)


class SqlExecutionBackend(ExecutionBackend):
    """The relational pushdown (:mod:`repro.relational.backend`) behind
    the protocol.  :meth:`supports` compiles the plan — exactly once,
    stashing the compilation for :meth:`run` — and converts
    :class:`~repro.relational.backend.PushdownUnsupported` into the
    MD05x refusal diagnostic, which :func:`dispatch` turns into the
    ``backends.fallback`` span and ``sql.pushdown.fallback`` count;
    the relational backend's own ``sql.*`` spans are the steps."""

    name = "sql"
    fallback = "memory"
    fallback_counter = "sql.pushdown.fallback"

    def __init__(self) -> None:
        # id(plan) → (sql backend, compiled plan); written by
        # supports(), popped by run() on the same plan object within
        # one dispatch — entries never outlive a dispatch.
        self._compiled: Dict[int, tuple] = {}

    def plan_for(self, query: "Query", function: AggregationFunction,
                 strict_types: bool):
        return query.to_plan(function, strict_types)

    def _compile(self, query: "Query", plan):
        """``(backend, compiled)`` or the refusal diagnostic."""
        from repro.relational.backend import (
            PushdownUnsupported,
            sql_backend_for,
        )
        backend = sql_backend_for(query._mo)
        try:
            compiled = backend.compile(plan)
        except PushdownUnsupported as exc:
            from repro.analyze.diagnostics import CATALOG, Diagnostic
            severity, _meaning = CATALOG[exc.code]
            return Diagnostic(code=exc.code, severity=severity,
                              message=exc.reason, location=exc.location)
        return (backend, compiled)

    def supports(self, query: "Query", plan) -> Optional["Diagnostic"]:
        outcome = self._compile(query, plan)
        if isinstance(outcome, tuple):
            self._compiled[id(plan)] = outcome
            return None
        return outcome

    def run(self, query: "Query", plan,
            function: AggregationFunction, strict_types: bool,
            ) -> Tuple[List["QueryResultRow"], str]:
        entry = self._compiled.pop(id(plan), None)
        if entry is None:  # run() without a prior supports() pass
            entry = self._compile(query, plan)
            if not isinstance(entry, tuple):
                raise BackendRefused(entry)
        backend, compiled = entry
        rows = backend.run_rows(compiled)
        _PATH_SQL.inc()
        return rows, "sql"


register_backend(MemoryBackend())
register_backend(SqlExecutionBackend())
