"""SQL pushdown backend over the star export.

``SqlBackend`` owns one embedded-engine connection per MO: it exports
the MO (:func:`~repro.relational.star.export_star`), loads the star
into sqlite (or DuckDB, optional) via
:mod:`~repro.relational.backend.loader`, compiles optimizer plans to
SQL via the pure :mod:`~repro.relational.backend.compiler`, and
decodes result sets back into the exact objects the in-memory engine
returns — the same ``(grouping values, raw result)`` rows for a root
α, the same :class:`~repro.core.values.Fact` objects for a fact-set
plan.  Results are byte-identical by construction and property-tested
3-way (SQL ≡ columnar kernel ≡ naive) in
``tests/relational/test_sql_equivalence.py``.

Version stamps on the MO's fact set, relations, and orders make the
backend self-invalidating: a mutation reloads the star on the next
use.  ``sql_backend_for`` caches one backend per MO (weakly — an MO
going away drops its connection) and is **bounded**: at most
``MAX_CACHED_BACKENDS`` backends stay cached, least-recently-used ones
are closed and dropped (``sql.backend.evicted``) — each backend holds
a live database connection, so unbounded growth was an fd leak waiting
for the first many-MO workload.

Plans outside the pushable subset raise
:class:`~repro.relational.backend.compiler.PushdownUnsupported`; the
query layer (``Query.execute(backend="sql")``) catches it, counts
``sql.pushdown.fallback``, and answers in memory.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.mo import MultidimensionalObject
from repro.core.values import Fact
from repro.engine.optimizer import Plan
from repro.engine.query import QueryResultRow, _finalize_rows
from repro.obs import metrics, trace
from repro.relational.backend.compiler import (
    AggPushdown,
    CompiledNode,
    CompiledPlan,
    PushdownUnsupported,
    StarCatalog,
    compile_plan,
    raw_result,
)
from repro.relational.backend.loader import (
    LoadedStar,
    SqlBackendUnavailable,
    connect,
    load_star,
)
from repro.relational.star import export_star

__all__ = [
    "SqlBackend",
    "sql_backend_for",
    "PushdownUnsupported",
    "SqlBackendUnavailable",
    "StarCatalog",
    "CompiledPlan",
    "CompiledNode",
    "AggPushdown",
    "compile_plan",
    "raw_result",
    "connect",
    "load_star",
]

_COMPILED = metrics.counter("sql.pushdown.compiled")
_NODE_COMPILED = metrics.counter("sql.pushdown.node_compiled")


class SqlBackend:
    """One MO's SQL execution surface: export → load → compile → run.

    Loading is lazy and version-stamped: the first use (and the first
    use after any mutation of the fact set, a fact-dimension relation,
    or a containment order) re-exports and re-loads the star.
    """

    def __init__(self, mo: MultidimensionalObject,
                 engine: str = "sqlite",
                 now: Optional[int] = None) -> None:
        self._mo = mo
        self._engine = engine
        self._now = now
        self._loaded: Optional[LoadedStar] = None
        self._catalog: Optional[StarCatalog] = None
        self._stamp: Optional[Tuple[object, ...]] = None

    @property
    def engine(self) -> str:
        return self._engine

    def _version_stamp(self) -> Tuple[object, ...]:
        mo = self._mo
        return (mo.facts_version, tuple(
            (name, mo.relation(name).version,
             mo.dimension(name).order.version)
            for name in mo.dimension_names))

    @property
    def stale(self) -> bool:
        """Whether the loaded star lags the MO (or nothing is loaded)."""
        return self._loaded is None or \
            self._stamp != self._version_stamp()

    def ensure_loaded(self) -> LoadedStar:
        """Load (or reload, after mutations) the star export."""
        if self.stale:
            if self._loaded is not None:
                self._loaded.close()
            star = export_star(self._mo, now=self._now)
            self._loaded = load_star(star, self._mo, engine=self._engine)
            self._catalog = StarCatalog.of(self._mo)
            self._stamp = self._version_stamp()
        assert self._loaded is not None
        return self._loaded

    def compile(self, plan: Plan) -> CompiledPlan:
        """Compile a plan against the (freshly ensured) catalogue;
        raises :class:`PushdownUnsupported` outside the subset."""
        self.ensure_loaded()
        assert self._catalog is not None
        with trace.span("sql.compile", engine=self._engine) as span:
            compiled = compile_plan(plan, self._catalog)
            if span:
                span.set(detail=_render_sql(compiled))
        _COMPILED.inc()
        _NODE_COMPILED.inc(len(compiled.nodes))
        return compiled

    def execute_rows(self, plan: Plan) -> List[QueryResultRow]:
        """Compile and run a root-α plan; returns exactly the rows the
        in-memory ``Query`` produces."""
        return self.run_rows(self.compile(plan))

    def execute_facts(self, plan: Plan) -> Set[Fact]:
        """Compile and run a fact-set plan; returns the qualifying
        base :class:`Fact` objects."""
        return self.run_facts(self.compile(plan))

    def run_rows(self, compiled: CompiledPlan) -> List[QueryResultRow]:
        """Run a compiled ``"rows"`` plan: collect each grouping combo's
        fact set, decode its value ids, finish its raw value from the
        per-fact measure stats, and present the groups with the
        engine's row finalizer (α's merge-and-re-expand semantics).

        The measure statement depends only on the measure dimension,
        so it runs once per load: its stats are kept on the
        :class:`LoadedStar` and leave with it when a mutation reloads
        the star."""
        if compiled.kind != "rows" or compiled.aggregate is None:
            raise ValueError("run_rows needs a compiled root-α plan")
        loaded = self.ensure_loaded()
        agg = compiled.aggregate
        with trace.span("sql.execute", kind="rows",
                        engine=self._engine) as span:
            cursor = loaded.conn.cursor()
            combo_rows = cursor.execute(
                compiled.sql, compiled.params).fetchall()
            stats: Dict[str, Tuple[int, float, float, float]] = {}
            if agg.measure_sql:
                key = (agg.measure_sql, agg.measure_params)
                if key not in loaded.measure_stats:
                    loaded.measure_stats[key] = {
                        fact_id: (int(cnt), s, mn, mx)
                        for fact_id, cnt, s, mn, mx
                        in cursor.execute(*key).fetchall()}
                stats = loaded.measure_stats[key]
            n_names = len(agg.names)
            facts_by_combo: Dict[Tuple[str, ...], Set[str]] = {}
            for row in combo_rows:
                facts_by_combo.setdefault(
                    tuple(row[:n_names]), set()).add(row[n_names])
            decoders = [loaded.value_maps[origin] for origin in agg.origins]
            groups = []
            for combo, fact_ids in facts_by_combo.items():
                members = frozenset(fact_ids)
                groups.append((
                    members,
                    tuple(decode[value_id]
                          for decode, value_id in zip(decoders, combo)),
                    raw_result(agg.function, members, stats)))
            rows = _finalize_rows(agg.names, groups)
            if span:
                span.set(facts_in=len(self._mo.facts), facts_out=len(rows))
        return rows

    def run_facts(self, compiled: CompiledPlan) -> Set[Fact]:
        """Run a compiled ``"facts"`` plan and decode the fact ids."""
        if compiled.kind != "facts":
            raise ValueError("run_facts needs a compiled fact-set plan")
        loaded = self.ensure_loaded()
        with trace.span("sql.execute", kind="facts", engine=self._engine):
            cursor = loaded.conn.cursor()
            found = cursor.execute(compiled.sql, compiled.params).fetchall()
            return {loaded.fact_map[fact_id] for (fact_id,) in found}

    def explain_sql(self, plan: Plan) -> str:
        """The emitted SQL, one block per compiled plan node."""
        return _render_sql(self.compile(plan))

    def close(self) -> None:
        if self._loaded is not None:
            self._loaded.close()
            self._loaded = None
            self._stamp = None


def _render_sql(compiled: CompiledPlan) -> str:
    """The emitted SQL, one ``-- <node label>`` block per plan node."""
    return "\n".join(f"-- {node.label}\n{node.sql}"
                     for node in compiled.nodes)


_BACKENDS: "weakref.WeakKeyDictionary[MultidimensionalObject, Dict[str, SqlBackend]]" = \
    weakref.WeakKeyDictionary()

#: how many (MO, engine) backends stay cached before LRU eviction
MAX_CACHED_BACKENDS = 8

#: recency order of live backends; values are weakrefs so this side
#: table never keeps an MO alive (a dead ref is skipped at eviction)
_RECENT: "OrderedDict[Tuple[int, str], weakref.ref]" = OrderedDict()

#: owns ``_BACKENDS``/``_RECENT``: lookup, insertion, recency update,
#: and LRU eviction are one read-modify-write — two threads interleaved
#: mid-sequence could both evict the same backend (double close) or
#: resurrect a key the other just evicted
_REGISTRY_LOCK = threading.Lock()

_EVICTED = metrics.counter("sql.backend.evicted")


def sql_backend_for(mo: MultidimensionalObject,
                    engine: str = "sqlite") -> SqlBackend:
    """The cached backend for ``mo`` (one per engine; created lazily,
    dropped with the MO or evicted least-recently-used beyond
    :data:`MAX_CACHED_BACKENDS` — each backend owns a connection, so
    the cache is bounded like the result cache is)."""
    with _REGISTRY_LOCK:
        per_engine = _BACKENDS.setdefault(mo, {})
        backend = per_engine.get(engine)
        if backend is None:
            backend = SqlBackend(mo, engine=engine)
            per_engine[engine] = backend
        key = (id(mo), engine)
        _RECENT.pop(key, None)
        _RECENT[key] = weakref.ref(mo)
        while len(_RECENT) > MAX_CACHED_BACKENDS:
            (_old_id, old_engine), ref = _RECENT.popitem(last=False)
            old_mo = ref()
            if old_mo is None:
                continue  # the MO died; WeakKeyDictionary cleaned up
            old_per_engine = _BACKENDS.get(old_mo)
            if not old_per_engine:
                continue
            old_backend = old_per_engine.pop(old_engine, None)
            if old_backend is not None:
                old_backend.close()
                _EVICTED.inc()
            if not old_per_engine:
                del _BACKENDS[old_mo]
        return backend
