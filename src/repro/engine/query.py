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
        """One line: name, fact flow, elapsed, detail."""
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"{self.name}  facts {self.facts_in} -> {self.facts_out}"
                f"  {self.elapsed_seconds * 1e3:.3f}ms{extra}")


@dataclass
class QueryExplain:
    """The EXPLAIN ANALYZE view of one executed query: the answer path
    taken (``store`` / ``index`` / ``alpha``), per-step timings and
    fact counts, and the rows themselves (the query *was* executed —
    this is analysis, not estimation)."""

    path: str
    rows: List[QueryResultRow]
    steps: List[ExplainStep] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Total measured time across steps."""
        return sum(step.elapsed_seconds for step in self.steps)

    def render(self) -> str:
        """A text block: header plus one indented line per step."""
        lines = [
            f"Query path={self.path} rows={len(self.rows)} "
            f"total={self.total_seconds * 1e3:.3f}ms"
        ]
        lines.extend("  " + step.render() for step in self.steps)
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
        if not self._dices:
            return self._mo
        return select(self._mo, self._dice_predicate())

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
        if check:
            report = self.check(function, strict_types)
            if report.has_errors:
                from repro.core.errors import StaticAnalysisError
                raise StaticAnalysisError(
                    "query rejected by static analysis:\n" + report.render(),
                    diagnostics=report.errors)
        rows, _ = self._answer(function or SetCount(), strict_types,
                               None, resolved, cache)
        return rows

    def explain(self, function: Optional[AggregationFunction] = None,
                strict_types: bool = False,
                backend: Union[str, ExecutionBackend] = "memory",
                cache: bool = True) -> QueryExplain:
        """Execute the query and report *how* it was answered: the path
        taken (``cache`` / ``store`` / ``index`` / ``alpha`` / ``sql``
        / ``sharded``), and per-step elapsed time and in/out fact
        counts — the engine's EXPLAIN ANALYZE.  A ``cache`` step names
        the fingerprint and whether it hit, missed, or was bypassed by
        an unfingerprintable construct (explicit ``cache=False`` keeps
        the steps to the execution pipeline alone).  With
        ``backend="sql"`` the steps include the emitted SQL per
        compiled plan node (or the fallback reason); with
        ``backend="sharded"`` they show the shard plan, the pool map,
        and the merge."""
        resolved = resolve_backend(backend)
        steps: List[ExplainStep] = []
        rows, path = self._answer(function or SetCount(), strict_types,
                                  steps, resolved, cache)
        return QueryExplain(path=path, rows=rows, steps=steps)

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
        steps: Optional[List[ExplainStep]],
        backend: ExecutionBackend,
        cache: bool,
    ) -> Tuple[List[QueryResultRow], str]:
        """The cache wrapper around every answer path: fingerprint the
        plan, consult the versioned cache, and on a miss dispatch to
        the backend (with its refusal → fallback protocol) and admit
        the result.  The cache key is backend-independent — every
        backend's rows are byte-identical, so an entry computed by one
        serves them all."""
        def runner(function, strict_types, steps):
            return dispatch(self, backend, function, strict_types, steps)
        if not cache:
            # explicit opt-out: count it, but keep the explain output
            # free of a cache step so ``explain(cache=False)`` shows
            # exactly the execution pipeline
            _CACHE_BYPASS.inc()
            return runner(function, strict_types, steps)
        t0 = time.perf_counter()
        fp, reason = self._fingerprint(function, strict_types)
        if fp is None:
            _CACHE_BYPASS.inc()
            if steps is not None:
                steps.append(ExplainStep(
                    name="cache", detail=f"bypass: {reason}",
                    elapsed_seconds=time.perf_counter() - t0,
                    facts_in=0, facts_out=0))
            return runner(function, strict_types, steps)
        store = self._result_cache if self._result_cache is not None \
            else result_cache_module.DEFAULT_CACHE
        versions = tuple(version_vector(mo) for mo in fp.mos)
        hit = store.get(fp.digest, versions)
        if hit is not None:
            if steps is not None:
                steps.append(ExplainStep(
                    name="cache",
                    detail=f"hit: fingerprint={fp.short}",
                    elapsed_seconds=time.perf_counter() - t0,
                    facts_in=0, facts_out=len(hit)))
            return hit, "cache"
        t1 = time.perf_counter()
        rows, path = runner(function, strict_types, steps)
        compute_seconds = time.perf_counter() - t1
        store.put(fp.digest, versions, tuple(sorted(self._grouping)),
                  rows, compute_seconds)
        if steps is not None:
            steps.append(ExplainStep(
                name="cache",
                detail=f"miss: fingerprint={fp.short}, stored",
                elapsed_seconds=t1 - t0,
                facts_in=0, facts_out=0))
        return rows, path

    def _run(
        self,
        function: AggregationFunction,
        strict_types: bool,
        steps: Optional[List[ExplainStep]],
    ) -> Tuple[List[QueryResultRow], str]:
        """The one evaluation pipeline behind :meth:`execute` and
        :meth:`explain`: try the store, then the index fast path, then
        the full α evaluation, recording a step per evaluated node when
        ``steps`` is given."""
        with trace.span("query.execute",
                        grouping=tuple(sorted(self._grouping)),
                        n_dices=len(self._dices), function=function.name):
            if self._store is not None and not self._dices:
                t0 = time.perf_counter()
                fast = self._try_store(function)
                if fast is not None:
                    rows, detail = fast
                    _PATH_STORE.inc()
                    if steps is not None:
                        steps.append(ExplainStep(
                            name="store", detail=detail,
                            elapsed_seconds=time.perf_counter() - t0,
                            facts_in=0, facts_out=len(rows)))
                    return rows, "store"
            t0 = time.perf_counter()
            indexed = self._try_index(function, strict_types)
            if indexed is not None:
                _PATH_INDEX.inc()
                if steps is not None:
                    steps.append(ExplainStep(
                        name="index",
                        detail="rollup-index characterization map",
                        elapsed_seconds=time.perf_counter() - t0,
                        facts_in=len(self._mo.facts),
                        facts_out=len(indexed)))
                return indexed, "index"
            _PATH_ALPHA.inc()
            t0 = time.perf_counter()
            mo = self._diced_mo()
            if steps is not None and self._dices:
                steps.append(ExplainStep(
                    name="dice",
                    detail=", ".join(f"{d}={v!r}" for d, v in self._dices),
                    elapsed_seconds=time.perf_counter() - t0,
                    facts_in=len(self._mo.facts),
                    facts_out=len(mo.facts)))
            t0 = time.perf_counter()
            rows, n_groups = self._run_alpha(mo, function, strict_types)
            if steps is not None:
                steps.append(ExplainStep(
                    name="alpha",
                    detail=f"{function.name} over "
                           f"{dict(sorted(self._grouping.items()))}",
                    elapsed_seconds=time.perf_counter() - t0,
                    facts_in=len(mo.facts), facts_out=n_groups))
            return rows, "alpha"

    def _run_alpha(
        self, mo: MultidimensionalObject, function: AggregationFunction,
        strict_types: bool,
    ) -> Tuple[List[QueryResultRow], int]:
        """Full aggregate formation; returns the rows and the number of
        groups (result facts) α produced."""
        result = make_result_spec(name="__query_result")
        aggregated = aggregate(mo, function, self._grouping, result,
                               strict_types=strict_types)
        return (_alpha_rows(aggregated, sorted(self._grouping)),
                len(aggregated.facts))

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
        cells: List[Tuple[Tuple[DimensionValue, ...], FrozenSet[Fact]]]
        if self._grouping:
            (name, category), = self._grouping.items()
            char_map = self._mo.rollup_index().characterization_map(
                name, category)
            cells = [((value,), facts) for value, facts in char_map.items()]
        else:
            cells = [((), frozenset(self._mo.facts))]
        return _finalize_rows(sorted(self._grouping), (
            (facts, combo, len(facts)) for combo, facts in cells if facts))

    def _try_store(
        self, function: AggregationFunction
    ) -> Optional[Tuple[List[QueryResultRow], str]]:
        """Answer from the pre-aggregate store if a fresh stored
        aggregate matches exactly or combines safely; returns the rows
        plus a human-readable description of the hit, or None."""
        assert self._store is not None
        for source, fname, materialized in list(self._store.entries()):
            if fname != function.name:
                continue
            if set(source) != set(self._grouping):
                continue
            if source == self._grouping:
                results, groups = materialized.results, materialized.groups
                detail = (f"exact hit: {function.name} @ "
                          f"{dict(sorted(source.items()))}")
            elif self._store.can_roll_up(materialized, function,
                                         self._grouping):
                results, groups = self._store.rolled_up(
                    function, source, self._grouping)
                detail = f"rolled up from {dict(sorted(source.items()))}"
            else:
                continue
            rows = _finalize_rows(sorted(self._grouping), (
                (frozenset(groups[combo]), combo, value)
                for combo, value in results.items()))
            return rows, detail
        return None

    def counts(self) -> List[QueryResultRow]:
        """Shorthand for ``execute(SetCount())``."""
        return self.execute(SetCount())
