"""A high-level OLAP query API over MOs.

The paper's future work asks how the model could back an OLAP tool;
:class:`Query` is a small fluent layer — dice / slice / roll-up — that
compiles to the algebra's fundamental operators and transparently uses a
:class:`~repro.engine.preagg.PreAggregateStore` for summarizable
roll-ups.

Example::

    rows = (Query(mo)
            .dice("Residence", region_value)
            .rollup("Diagnosis", "Diagnosis Group")
            .counts())
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import (Dict, FrozenSet, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from repro.algebra import (
    SetCount,
    aggregate,
    characterized_by,
    conjunction,
    select,
)
from repro.algebra.functions import AggregationFunction
from repro.core.errors import SchemaError
from repro.core.helpers import make_result_spec
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.values import DimensionValue, Fact
from repro.engine import result_cache as result_cache_module
from repro.engine.backends import ExecutionBackend, dispatch, resolve_backend
from repro.engine.plan_fingerprint import (
    PlanFingerprint,
    Unfingerprintable,
    fingerprint,
)
from repro.engine.preagg import PreAggregateStore
from repro.engine.result_cache import ResultCache, version_vector
from repro.obs import metrics, trace

__all__ = ["Query", "QueryResultRow", "ExplainStep", "QueryExplain"]

QueryResultRow = Tuple[Dict[str, DimensionValue], object]

#: one group as an answer path hands it to :func:`_finalize_rows`: its
#: members (any hashable whose equality is member-set equality), its
#: value combination in row-name order, and its raw aggregate value
_Group = Tuple[Hashable, Tuple[DimensionValue, ...], object]


def _finalize_rows(names: Sequence[str],
                   groups: Iterable[_Group]) -> List[QueryResultRow]:
    """Every answer path's rows, in α's presentation.  α identifies a
    set-fact by its members (§4.1), so groups with equal members merge
    into one, keeping the first raw value; a merged group re-expands as
    the cross product of its repr-sorted per-dimension value sets, one
    row per combination.  Rows sort by the combination's reprs, then the
    raw value's repr: a re-expanded combination can coincide with a
    precise neighbour's, and without the tiebreak their order would be
    the producing path's iteration order."""
    merged: Dict[Hashable, Tuple[List[Tuple[DimensionValue, ...]],
                                 object]] = {}
    for members, combo, raw in groups:
        entry = merged.get(members)
        if entry is None:
            merged[members] = ([combo], raw)
        else:
            entry[0].append(combo)
    reprs: Dict[int, str] = {}  # per value object: values recur a lot

    def value_repr(value: DimensionValue) -> str:
        found = reprs.get(id(value))
        if found is None:
            found = reprs[id(value)] = repr(value)
        return found

    keyed = []
    for combos, raw in merged.values():
        if len(combos) > 1:
            combos = list(product(*[
                sorted(set(values), key=value_repr)
                for values in zip(*combos)
            ]))
        raw_repr = repr(raw)
        for combo in combos:
            keyed.append(((tuple(map(value_repr, combo)), raw_repr),
                          combo, raw))
    keyed.sort(key=itemgetter(0))
    return [(dict(zip(names, combo)), raw) for _, combo, raw in keyed]


def _alpha_rows(aggregated: MultidimensionalObject,
                names: List[str]) -> List[QueryResultRow]:
    """The rows of α's result MO (result dimension ``__query_result``),
    grouped by the dimensions ``names``.  Each result set-fact stands
    for its members and may relate to several values per dimension
    (the combinations α merged)."""
    results = aggregated.relation("__query_result")
    relations = [aggregated.relation(name) for name in names]
    groups: List[_Group] = []
    for fact in aggregated.facts:
        raw = next(iter(results.values_of(fact))).sid
        for combo in product(*[r.values_of(fact) for r in relations]):
            groups.append((fact, combo, raw))
    return _finalize_rows(names, groups)


_PATH_STORE = metrics.counter("query.path.store")
_PATH_INDEX = metrics.counter("query.path.index")
_PATH_ALPHA = metrics.counter("query.path.alpha")
_CACHE_BYPASS = metrics.counter("query.cache.bypass")


@dataclass
class ExplainStep:
    """One evaluated step of a query, annotated with its measurements.

    A step is a span directly under the call's ``query.execute`` root.
    ``facts_in`` is how many base facts the step had to look at (0 when
    it answered purely from stored results), ``facts_out`` how many
    facts/rows it produced.
    """

    name: str
    elapsed_seconds: float
    facts_in: int
    facts_out: int
    detail: str = ""

    def render(self) -> str:
        """One line: name, fact flow (when any), elapsed, detail."""
        flow = (f"  facts {self.facts_in} -> {self.facts_out}"
                if self.facts_in or self.facts_out else "")
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"{self.name}{flow}  {self.elapsed_seconds * 1e3:.3f}ms"
                f"{extra}")


def _step_of(record: trace.SpanRecord) -> ExplainStep:
    """A span as a step: its ``detail``, else its other attributes."""
    attrs = record.attributes
    detail = attrs.get("detail") or ", ".join(
        f"{key}={value}" for key, value in attrs.items()
        if key not in ("facts_in", "facts_out"))
    return ExplainStep(name=record.name,
                       elapsed_seconds=record.elapsed_seconds,
                       facts_in=attrs.get("facts_in", 0),
                       facts_out=attrs.get("facts_out", 0),
                       detail=detail)


@dataclass
class QueryExplain:
    """The EXPLAIN ANALYZE view of one executed query: the answer path
    taken (``cache`` / ``store`` / ``index`` / ``alpha`` / ``sql`` /
    ``sharded``), per-step timings and fact counts, and the rows
    themselves (the query *was* executed — this is analysis, not
    estimation)."""

    path: str
    rows: List[QueryResultRow]
    steps: List[ExplainStep] = field(default_factory=list)
    #: every span the call recorded, in start order; the first is its
    #: ``query.execute`` root, the steps are that root's children
    spans: List[trace.SpanRecord] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Total measured time across steps."""
        return sum(step.elapsed_seconds for step in self.steps)

    def render(self) -> str:
        """A text block: header plus the span tree below the root, one
        line per span, indented by depth."""
        lines = [
            f"Query path={self.path} rows={len(self.rows)} "
            f"total={self.total_seconds * 1e3:.3f}ms"
        ]
        if self.spans:
            root, *below = self.spans
            lines.extend("  " * (record.depth - root.depth)
                         + _step_of(record).render() for record in below)
        return "\n".join(lines)


class Query:
    """A fluent OLAP query over one MO.

    Queries are immutable: each builder method returns a new query.
    """

    def __init__(self, mo: MultidimensionalObject,
                 store: Optional[PreAggregateStore] = None,
                 result_cache: Optional[ResultCache] = None) -> None:
        self._mo = mo
        self._store = store
        self._result_cache = result_cache
        self._dices: List[Tuple[str, DimensionValue]] = []
        self._grouping: Dict[str, str] = {}
        # fingerprint memo: the query is immutable, so the canonical
        # plan only varies with (function, strict_types) — computing it
        # once keeps the cache-hit path microseconds, not milliseconds
        self._fingerprints: Dict[Tuple[str, bool],
                                 Tuple[Optional[PlanFingerprint], str]] = {}

    def _clone(self) -> "Query":
        q = Query(self._mo, self._store, self._result_cache)
        q._dices = list(self._dices)
        q._grouping = dict(self._grouping)
        return q

    def dice(self, dimension_name: str, value: DimensionValue) -> "Query":
        """Keep only facts characterized by ``value``."""
        if dimension_name not in self._mo.schema:
            raise SchemaError(f"unknown dimension {dimension_name!r}")
        q = self._clone()
        q._dices.append((dimension_name, value))
        return q

    def rollup(self, dimension_name: str, category_name: str) -> "Query":
        """Group the named dimension at ``category_name``."""
        dtype = self._mo.dimension(dimension_name).dtype
        if category_name not in dtype:
            raise SchemaError(
                f"dimension {dimension_name!r} has no category "
                f"{category_name!r}"
            )
        q = self._clone()
        q._grouping[dimension_name] = category_name
        return q

    def _dice_predicate(self):
        """All dices as one σ predicate, their conjunction: dices on one
        dimension must be satisfied by one shared witness value."""
        return conjunction(*[characterized_by(d, v)
                             for d, v in self._dices])

    def _diced_mo(self) -> MultidimensionalObject:
        """The diced MO (a ``query.dice`` span), or the MO itself."""
        if not self._dices:
            return self._mo
        with trace.span("query.dice") as span:
            mo = select(self._mo, self._dice_predicate())
            if span:
                span.set(detail=", ".join(f"{d}={v!r}"
                                          for d, v in self._dices),
                         facts_in=len(self._mo.facts),
                         facts_out=len(mo.facts))
        return mo

    def to_plan(self, function: Optional[AggregationFunction] = None,
                strict_types: bool = False):
        """The query compiled to an algebra plan
        (:mod:`repro.engine.optimizer` nodes): one σ over :class:`Base`
        carrying the conjunction of the dices (none without dices),
        topped by the α node.  It is the one plan every surface uses —
        the static analyzer, the fingerprint, every backend — and
        :func:`~repro.engine.optimizer.evaluate` of it equals
        :meth:`execute`.  (A chain of one σ per dice would differ: each
        σ picks its own witness.)"""
        from repro.engine.optimizer import AggregateNode, Base, SelectNode
        plan = Base(self._mo)
        if self._dices:
            plan = SelectNode(child=plan, predicate=self._dice_predicate())
        return AggregateNode(
            child=plan,
            function=function or SetCount(),
            grouping=tuple(sorted(self._grouping.items())),
            result=make_result_spec(name="__query_result"),
            strict_types=strict_types,
        )

    def check(self, function: Optional[AggregationFunction] = None,
              strict_types: bool = False):
        """Statically analyze the query before running it: compile to a
        plan and hand it to :func:`repro.analyze.analyze_plan` plus the
        MD07x shard-safety pass
        (:func:`repro.analyze.analyze_shardability`).  Returns the
        merged :class:`~repro.analyze.AnalysisReport`, deterministically
        ordered; raises nothing — the caller (or :meth:`execute`'s
        default ``check=True``) decides what to do with error
        findings."""
        from repro.analyze import analyze_plan, analyze_shardability
        plan = self.to_plan(function, strict_types)
        report = analyze_plan(plan)
        report.extend(analyze_shardability(plan))
        return report.sort()

    def execute(self, function: Optional[AggregationFunction] = None,
                strict_types: bool = False,
                check: bool = True,
                backend: Union[str, ExecutionBackend] = "memory",
                cache: bool = True) -> List[QueryResultRow]:
        """Run the query: dice, then aggregate with ``function``
        (default set-count), returning ``(group values, result)`` rows
        sorted by group.

        When no dice is applied, the store is consulted first: a stored
        finer aggregate that is safely combinable answers the query
        without touching base data.

        ``backend`` names an :class:`~repro.engine.backends
        .ExecutionBackend` from the registry (or passes a configured
        instance directly).  ``"sql"`` pushes the compiled plan down to
        the relational backend (:mod:`repro.relational.backend`); plans
        outside the pushable subset transparently fall back to the
        in-memory path (counted as ``sql.pushdown.fallback``).
        ``"sharded"`` evaluates the α on a process pool — admitted only
        for plans the shard-safety analyzer proves SHARDABLE, raising
        :class:`~repro.engine.backends.BackendRefused` with the MD07x
        diagnostic otherwise.  Every backend's rows are byte-identical.

        ``cache=True`` (the default) consults the versioned result
        cache (:mod:`repro.engine.result_cache`) before running any
        answer path, keyed by the canonical plan fingerprint and the
        MO's mutation-counter vector — a mutation simply misses.  Pass
        ``cache=False`` to bypass (counted as ``query.cache.bypass``).

        ``check=True`` (the default) runs :meth:`check` first and
        raises :class:`~repro.core.errors.StaticAnalysisError` if the
        analyzer finds error-severity diagnostics — i.e. evaluations
        guaranteed to fail; pass ``check=False`` to opt out and let the
        runtime operators raise instead.
        """
        resolved = resolve_backend(backend)
        function = function or SetCount()
        with trace.span("query.execute") as root:
            if root:
                root.set(grouping=tuple(sorted(self._grouping)),
                         n_dices=len(self._dices), function=function.name)
            if check:
                with trace.span("query.check") as span:
                    report = self.check(function, strict_types)
                    if span:
                        span.set(detail=", ".join(report.codes()) or "clean")
                if report.has_errors:
                    from repro.core.errors import StaticAnalysisError
                    raise StaticAnalysisError(
                        "query rejected by static analysis:\n"
                        + report.render(),
                        diagnostics=report.errors)
            rows, path = self._answer(function, strict_types, resolved,
                                      cache)
            if root:
                root.set(path=path, facts_out=len(rows))
        return rows

    def explain(self, function: Optional[AggregationFunction] = None,
                strict_types: bool = False,
                backend: Union[str, ExecutionBackend] = "memory",
                cache: bool = True) -> QueryExplain:
        """The engine's EXPLAIN ANALYZE: run the default call,
        :meth:`execute` with these arguments and ``check=True``, under
        a trace collector, and report the path taken (``cache`` /
        ``store`` / ``index`` / ``alpha`` / ``sql`` / ``sharded``) and
        one step per span directly under the call's ``query.execute``
        root — ``query.check``, ``query.cache`` (hit, miss or bypass,
        with the fingerprint; none under ``cache=False``), then the
        answering backend's spans (``docs/OBSERVABILITY.md``)."""
        with trace.collect() as records:
            rows = self.execute(function, strict_types, backend=backend,
                                cache=cache)
        return QueryExplain(
            path=records[0].attributes["path"], rows=rows,
            steps=[_step_of(r) for r in records if r.parent_index == 0],
            spans=records)

    def _fingerprint(self, function: AggregationFunction,
                     strict_types: bool
                     ) -> Tuple[Optional[PlanFingerprint], str]:
        """The memoized canonical fingerprint of :meth:`to_plan`, or
        ``(None, reason)`` when unfingerprintable."""
        key = (function.name, strict_types)
        found = self._fingerprints.get(key)
        if found is None:
            try:
                found = (fingerprint(self.to_plan(function, strict_types)),
                         "")
            except Unfingerprintable as exc:
                found = (None, f"{exc.reason} ({exc.location})")
            self._fingerprints[key] = found
        return found

    def _answer(
        self,
        function: AggregationFunction,
        strict_types: bool,
        backend: ExecutionBackend,
        cache: bool,
    ) -> Tuple[List[QueryResultRow], str]:
        """The cache wrapper around every answer path: fingerprint the
        plan, consult the versioned cache, and on a miss dispatch to
        the backend (with its refusal → fallback protocol) and admit
        the result.  The cache key is backend-independent — every
        backend's rows are byte-identical, so an entry computed by one
        serves them all."""
        if not cache:
            # explicit opt-out: count it, but keep the explain output
            # free of a cache step so ``explain(cache=False)`` shows
            # exactly the execution pipeline
            _CACHE_BYPASS.inc()
            return dispatch(self, backend, function, strict_types)
        with trace.span("query.cache") as span:
            fp, reason = self._fingerprint(function, strict_types)
            if fp is None:
                _CACHE_BYPASS.inc()
                if span:
                    span.set(detail=f"bypass: {reason}")
            else:
                store = self._result_cache if self._result_cache \
                    is not None else result_cache_module.DEFAULT_CACHE
                versions = tuple(version_vector(mo) for mo in fp.mos)
                hit = store.get(fp.digest, versions)
                if span and hit is not None:
                    span.set(detail=f"hit: fingerprint={fp.short}",
                             facts_out=len(hit))
                elif span:
                    span.set(detail=f"miss: fingerprint={fp.short}, stored")
        if fp is None:
            return dispatch(self, backend, function, strict_types)
        if hit is not None:
            return hit, "cache"
        # the recompute cost drives cache admission, not explain timing
        t0 = time.perf_counter()
        rows, path = dispatch(self, backend, function, strict_types)
        store.put(fp.digest, versions, tuple(sorted(self._grouping)),
                  rows, time.perf_counter() - t0)
        return rows, path

    def _run(
        self,
        function: AggregationFunction,
        strict_types: bool,
    ) -> Tuple[List[QueryResultRow], str]:
        """The memory backend's evaluation pipeline: try the store, then
        the index fast path, then the full α evaluation.  The one that
        answers records its span (``query.store``, ``query.index``, or
        ``query.dice`` and ``query.alpha``)."""
        if self._store is not None and not self._dices:
            rows = self._try_store(function)
            if rows is not None:
                _PATH_STORE.inc()
                return rows, "store"
        rows = self._try_index(function, strict_types)
        if rows is not None:
            _PATH_INDEX.inc()
            return rows, "index"
        _PATH_ALPHA.inc()
        mo = self._diced_mo()
        with trace.span("query.alpha") as span:
            aggregated = aggregate(
                mo, function, self._grouping,
                make_result_spec(name="__query_result"),
                strict_types=strict_types)
            rows = _alpha_rows(aggregated, sorted(self._grouping))
            if span:
                span.set(detail=f"{function.name} over "
                                f"{dict(sorted(self._grouping.items()))}",
                         facts_in=len(mo.facts),
                         facts_out=len(aggregated.facts))
        return rows, "alpha"

    def _try_index(
        self, function: AggregationFunction, strict_types: bool
    ) -> Optional[List[QueryResultRow]]:
        """Answer simple set-count roll-ups straight from the MO's
        rollup index: one closure-map lookup per value instead of a full
        aggregate formation and result-MO construction.

        Only taken when it is provably equivalent to the α path: no
        dices, an untimed (snapshot) MO, at most one grouped dimension,
        and the plain set-count function.
        """
        if self._dices or self._mo.kind is not TimeKind.SNAPSHOT:
            return None
        if len(self._grouping) > 1 or type(function) is not SetCount:
            return None
        if not function.check_applicable(self._mo, strict=strict_types):
            return None  # let α issue its summarizability warning
        with trace.span("query.index") as span:
            cells: List[Tuple[Tuple[DimensionValue, ...], FrozenSet[Fact]]]
            if self._grouping:
                (name, category), = self._grouping.items()
                char_map = self._mo.rollup_index().characterization_map(
                    name, category)
                cells = [((value,), facts)
                         for value, facts in char_map.items()]
            else:
                cells = [((), frozenset(self._mo.facts))]
            rows = _finalize_rows(sorted(self._grouping), (
                (facts, combo, len(facts))
                for combo, facts in cells if facts))
            if span:
                span.set(detail="rollup-index characterization map",
                         facts_in=len(self._mo.facts), facts_out=len(rows))
        return rows

    def _try_store(
        self, function: AggregationFunction
    ) -> Optional[List[QueryResultRow]]:
        """Answer from the pre-aggregate store if a fresh stored
        aggregate matches exactly or combines safely, timed as a
        ``query.store`` span whose detail describes the hit; else
        None."""
        assert self._store is not None
        for source, fname, materialized in list(self._store.entries()):
            if fname != function.name:
                continue
            if set(source) != set(self._grouping):
                continue
            exact = source == self._grouping
            if not exact and not self._store.can_roll_up(
                    materialized, function, self._grouping):
                continue
            with trace.span("query.store") as span:
                if exact:
                    results, groups = materialized.results, materialized.groups
                else:
                    results, groups = self._store.rolled_up(
                        function, source, self._grouping)
                rows = _finalize_rows(sorted(self._grouping), (
                    (frozenset(groups[combo]), combo, value)
                    for combo, value in results.items()))
                if span:
                    where = dict(sorted(source.items()))
                    span.set(detail=(f"exact hit: {function.name} @ {where}"
                                     if exact else f"rolled up from {where}"),
                             facts_out=len(rows))
            return rows
        return None

    def counts(self) -> List[QueryResultRow]:
        """Shorthand for ``execute(SetCount())``."""
        return self.execute(SetCount())
