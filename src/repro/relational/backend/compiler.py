"""Compile optimizer plans to SQL over the star export (pure — no DB).

The compiler translates the pushable subset of
:mod:`repro.engine.optimizer` plans into SQL over the tables
:mod:`repro.relational.backend.loader` creates from a
:func:`~repro.relational.star.export_star` export:

* a fact-set pipeline (``Base`` → σ/π/ρ/∪/\\) becomes a nested
  ``SELECT fact_id`` with one ``EXISTS`` subquery per constrained
  dimension — a bridge-table probe when every target is the
  dimension's ⊤, otherwise a bridge ⋈ closure probe
  (``∃ related r: ∀ targets v: r ≤ v``, which by transitivity of the
  containment order is exactly the algebra's existential
  single-witness semantics);
* a root α becomes one indexed lookup per grouped dimension in the
  loader's ``member_i`` table (the category's ``f ⇝ e`` relation,
  built once per load) returning ``(grouping values, fact)`` pairs,
  plus one ``GROUP BY fact_id`` statement pushing COUNT/SUM/MIN/MAX of
  the argument dimension's measures down to the engine — a statement
  that depends only on the measure dimension, so the backend runs it
  once per load.  The backend finishes each group's raw value here
  (:func:`raw_result`) and presents the groups with the engine's own
  row finalizer — merging value combinations that select the same fact
  set and re-expanding the merged combinations as a cross product — so
  results are byte-identical, including the in-memory empty-group
  conventions (``sum([]) == 0`` is an int; AVG/MIN/MAX of nothing is
  ``nan``).

Everything outside that subset raises :class:`PushdownUnsupported`
with a stable ``MD05x`` diagnostic code — the same exception the
static analyzer's :func:`repro.analyze.pushdown.analyze_pushdown`
reports and the query layer's fallback counts — so the analyzer's
prediction and the backend's behavior can never drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.algebra.functions import (
    AggregationFunction,
    Avg,
    CountDim,
    Max,
    Min,
    SetCount,
    Sum,
)
from repro.algebra.predicates import Predicate
from repro.core.aggtypes import min_aggtype
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.values import TOP_LABEL, DimensionValue
from repro.engine.optimizer import (
    AggregateNode,
    Base,
    DifferenceNode,
    JoinNode,
    Plan,
    ProjectNode,
    RenameNode,
    SelectNode,
    UnionNode,
    node_label,
)
from repro.relational.star import encode_sid

__all__ = [
    "PushdownUnsupported",
    "StarCatalog",
    "CompiledNode",
    "CompiledPlan",
    "AggPushdown",
    "compile_plan",
    "raw_result",
    "PUSHABLE_FUNCTIONS",
]

#: exactly these function classes compile to SQL scalars (subclasses
#: do not — their overridden ``apply`` could mean anything).
PUSHABLE_FUNCTIONS = (SetCount, CountDim, Sum, Avg, Min, Max)


class PushdownUnsupported(Exception):
    """A plan (or part of one) is outside the pushable subset.

    ``code`` is a stable ``MD05x`` analyzer code, ``location`` the
    offending plan node's label, ``reason`` the human-readable why.
    The query layer catches this to fall back to the in-memory path;
    the static analyzer reports it as a diagnostic."""

    def __init__(self, code: str, location: str, reason: str) -> None:
        super().__init__(f"{code} at {location}: {reason}")
        self.code = code
        self.location = location
        self.reason = reason


@dataclass(frozen=True)
class StarCatalog:
    """What the compiler needs to know about one MO's star export:
    the dimension order (auxiliary tables are named by index) and
    which dimensions are *poisoned* for measures (some related value
    has a non-numeric surrogate, so ``measures_of`` would raise)."""

    mo: MultidimensionalObject
    dims: Tuple[str, ...]
    poisoned: FrozenSet[str]

    @classmethod
    def of(cls, mo: MultidimensionalObject) -> "StarCatalog":
        dims = tuple(mo.dimension_names)
        poisoned = set()
        for name in dims:
            for _fact, value in mo.relation(name).pairs():
                if value.is_top:
                    continue
                sid = value.sid
                if isinstance(sid, bool) or not isinstance(sid, (int, float)):
                    poisoned.add(name)
        return cls(mo=mo, dims=dims, poisoned=frozenset(poisoned))

    def index(self, name: str) -> int:
        return self.dims.index(name)


@dataclass(frozen=True)
class CompiledNode:
    """One plan node's contribution to the emitted SQL, for EXPLAIN."""

    label: str
    sql: str


@dataclass(frozen=True)
class AggPushdown:
    """The root α's decode recipe: which result columns are grouping
    values of which original dimension, and the per-fact measure
    statement whose pushed-down scalars :func:`raw_result` finishes."""

    function: AggregationFunction
    names: Tuple[str, ...]          # sorted current grouping dim names
    origins: Tuple[str, ...]        # parallel: original dimension names
    measure_sql: Optional[str] = None
    measure_params: Tuple[object, ...] = ()


@dataclass(frozen=True)
class CompiledPlan:
    """A fully compiled plan: the SQL plus the metadata to decode its
    result set back into engine objects.  ``kind`` is ``"facts"`` (the
    statement returns qualifying fact ids) or ``"rows"`` (the root is
    an α; the statement returns ``(grouping values…, fact id)``
    pairs)."""

    kind: str
    sql: str
    params: Tuple[object, ...]
    nodes: Tuple[CompiledNode, ...]
    fact_type: str
    mapping: Tuple[Tuple[str, str], ...]  # current name -> original name
    aggregate: Optional[AggPushdown] = None


@dataclass
class _FactsQuery:
    """Mutable compile state for the fact-set pipeline."""

    sql: str
    params: List[object]
    mapping: Dict[str, str]         # current dim name -> original name
    fact_type: str
    nodes: List[CompiledNode] = field(default_factory=list)


def _unsupported(code: str, plan: Plan, reason: str) -> PushdownUnsupported:
    return PushdownUnsupported(code, node_label(plan), reason)


def _atoms(predicate: Predicate,
           plan: Plan) -> List[Tuple[str, DimensionValue]]:
    """Flatten a predicate into ``characterized_by`` atoms; anything
    else in the tree is not translatable."""
    if predicate.kind == "characterized_by":
        name, value = predicate.payload  # type: ignore[misc]
        return [(name, value)]
    if predicate.kind == "conjunction":
        out: List[Tuple[str, DimensionValue]] = []
        for operand in predicate.payload:  # type: ignore[union-attr]
            out.extend(_atoms(operand, plan))
        return out
    raise _unsupported(
        "MD051", plan,
        f"predicate {predicate.description!r} is opaque (only "
        f"characterized_by atoms and conjunctions compile)")


def _is_current_top(value: DimensionValue, current_name: str) -> bool:
    """Whether ``value`` is the ⊤ of the dimension *as currently
    named* — after ρ the dimension carries a fresh ⊤ whose surrogate
    embeds the new name, so the base dimension's ⊤ is the wrong
    object to compare against."""
    return value.is_top and value.sid == (TOP_LABEL, current_name)


def _predicate_condition(predicate: Predicate, plan: Plan,
                         state: _FactsQuery,
                         catalog: StarCatalog) -> Tuple[str, List[object]]:
    """The ``WHERE`` condition of one σ node: per constrained
    dimension, one EXISTS probe shared by all of that dimension's
    atoms (the algebra's single-witness-per-dimension semantics —
    one related value must lie below *all* targets)."""
    by_dim: Dict[str, List[DimensionValue]] = {}
    for name, value in _atoms(predicate, plan):
        if name not in state.mapping:
            raise _unsupported(
                "MD051", plan,
                f"predicate constrains dimension {name!r} which is not "
                f"in the (possibly projected) schema")
        by_dim.setdefault(name, []).append(value)

    conditions: List[str] = []
    params: List[object] = []
    for name in sorted(by_dim):
        i = catalog.index(state.mapping[name])
        # A ⊤ target is vacuously satisfied by any witness; the
        # remaining targets need one related value below all of them.
        # An alien value (another dimension's ⊤, or a value unknown to
        # this dimension) stays as a closure target that matches
        # nothing — exactly the in-memory "no witness" outcome.
        targets = [v for v in by_dim[name]
                   if not _is_current_top(v, name)]
        if not targets:
            conditions.append(
                f"EXISTS (SELECT 1 FROM bridgef_{i} b "
                f"WHERE b.fact_id = f.fact_id)")
            continue
        joins = []
        for j, value in enumerate(targets):
            joins.append(f"JOIN closure_{i} c{j} "
                         f"ON c{j}.child = b.value_id AND c{j}.ancestor = ?")
            params.append(encode_sid(value.sid))
        conditions.append(
            f"EXISTS (SELECT 1 FROM bridgev_{i} b "
            + " ".join(joins)
            + " WHERE b.fact_id = f.fact_id)")
    return " AND ".join(conditions) if conditions else "1 = 1", params


def _compile_facts(plan: Plan, catalog: StarCatalog) -> _FactsQuery:
    """Recursively compile the fact-set pipeline below the root."""
    if isinstance(plan, Base):
        if plan.mo is not catalog.mo:
            raise _unsupported(
                "MD050", plan,
                "plan reads a different MO than the loaded star export")
        state = _FactsQuery(
            sql="SELECT fact_id FROM fact",
            params=[],
            mapping={name: name for name in catalog.dims},
            fact_type=catalog.mo.schema.fact_type)
        state.nodes.append(CompiledNode(node_label(plan), state.sql))
        return state

    if isinstance(plan, SelectNode):
        state = _compile_facts(plan.child, catalog)
        condition, params = _predicate_condition(
            plan.predicate, plan, state, catalog)
        state.sql = (f"SELECT fact_id FROM ({state.sql}) f "
                     f"WHERE {condition}")
        state.params.extend(params)
        state.nodes.append(CompiledNode(node_label(plan),
                                        f"WHERE {condition}"))
        return state

    if isinstance(plan, ProjectNode):
        state = _compile_facts(plan.child, catalog)
        missing = [d for d in plan.dimensions if d not in state.mapping]
        if missing:
            raise _unsupported(
                "MD050", plan,
                f"projection names unknown dimensions {missing!r}")
        state.mapping = {d: state.mapping[d] for d in plan.dimensions}
        state.nodes.append(CompiledNode(
            node_label(plan),
            "-- fact set unchanged; schema keeps "
            + ", ".join(plan.dimensions)))
        return state

    if isinstance(plan, RenameNode):
        state = _compile_facts(plan.child, catalog)
        renames = dict(plan.dimension_map)
        unknown = [old for old in renames if old not in state.mapping]
        if unknown:
            raise _unsupported(
                "MD050", plan,
                f"rename of unknown dimensions {unknown!r}")
        state.mapping = {renames.get(old, old): origin
                         for old, origin in state.mapping.items()}
        if plan.new_fact_type is not None:
            state.fact_type = plan.new_fact_type
        state.nodes.append(CompiledNode(
            node_label(plan), "-- fact set unchanged; names remapped"))
        return state

    if isinstance(plan, (UnionNode, DifferenceNode)):
        left = _compile_facts(plan.left, catalog)
        right = _compile_facts(plan.right, catalog)
        if left.mapping != right.mapping or \
                left.fact_type != right.fact_type:
            raise _unsupported(
                "MD050", plan,
                "operand schemas are not common (the in-memory "
                "operator would reject them)")
        operator = "UNION" if isinstance(plan, UnionNode) else "EXCEPT"
        state = _FactsQuery(
            sql=(f"SELECT fact_id FROM ({left.sql}) "
                 f"{operator} SELECT fact_id FROM ({right.sql})"),
            params=left.params + right.params,
            mapping=left.mapping,
            fact_type=left.fact_type,
            nodes=left.nodes + right.nodes)
        state.nodes.append(CompiledNode(node_label(plan), operator))
        return state

    if isinstance(plan, JoinNode):
        raise _unsupported("MD050", plan,
                           "identity join is not pushed down")
    if isinstance(plan, AggregateNode):
        raise _unsupported("MD050", plan,
                           "nested aggregate formation is not pushed "
                           "down (only a root α compiles)")
    raise _unsupported("MD050", plan, "unknown plan node")


def _check_function(plan: AggregateNode, state: _FactsQuery,
                    catalog: StarCatalog) -> None:
    function = plan.function
    if type(function) not in PUSHABLE_FUNCTIONS:
        raise _unsupported(
            "MD052", plan,
            f"{function.name} has no SQL scalar translation (only "
            f"{', '.join(c.__name__ for c in PUSHABLE_FUNCTIONS)} "
            f"push down)")
    if plan.strict_types:
        raise _unsupported(
            "MD052", plan,
            "strict aggregation-type mode may raise; the in-memory "
            "path owns that behavior")
    for arg in function.args:
        if arg not in state.mapping:
            raise _unsupported(
                "MD052", plan,
                f"argument dimension {arg!r} is not in the schema")
        origin = state.mapping[arg]
        if origin in catalog.poisoned:
            raise _unsupported(
                "MD052", plan,
                f"dimension {origin!r} has non-numeric surrogates; "
                f"measures_of would raise")
    if function.args:
        bottoms = [catalog.mo.dimension(state.mapping[arg]).dtype
                   .bottom.aggtype for arg in function.args]
        if not min_aggtype(bottoms).permits(function.required_function):
            raise _unsupported(
                "MD052", plan,
                f"{function.name} is not applicable to the argument "
                f"types; the in-memory path owns the warning")


def _compile_aggregate(plan: AggregateNode,
                       catalog: StarCatalog) -> CompiledPlan:
    if catalog.mo.kind is not TimeKind.SNAPSHOT:
        raise _unsupported(
            "MD050", plan,
            "only snapshot MOs push down (temporal grouping resolves "
            "per chronon)")
    state = _compile_facts(plan.child, catalog)
    _check_function(plan, state, catalog)

    grouping = dict(plan.grouping)
    for name, category in plan.grouping:
        if name not in state.mapping:
            raise _unsupported(
                "MD050", plan, f"unknown grouping dimension {name!r}")
        origin = state.mapping[name]
        dimension = catalog.mo.dimension(origin)
        if category not in dimension.dtype:
            raise _unsupported(
                "MD050", plan,
                f"dimension {name!r} has no category {category!r}")
        if category == dimension.dtype.top_name:
            raise _unsupported(
                "MD052", plan,
                "grouping at the ⊤ category is not pushed down")

    names = tuple(sorted(grouping))
    origins = tuple(state.mapping[n] for n in names)
    params = list(state.params)

    select_cols: List[str] = []
    join_sql: List[str] = []
    for k, name in enumerate(names):
        i = catalog.index(state.mapping[name])
        select_cols.append(f"g{k}.value_id")
        join_sql.append(
            f"JOIN member_{i} g{k} "
            f"ON g{k}.fact_id = f.fact_id AND g{k}.category = ?")
        params.append(grouping[name])

    # Dimensions of the current schema that are *not* grouped land at
    # the implicit ⊤ category: a fact with no characterization there
    # has no grouping value at all and drops out of every group.
    implicit: List[str] = []
    for name in sorted(state.mapping):
        if name not in grouping:
            i = catalog.index(state.mapping[name])
            implicit.append(
                f"EXISTS (SELECT 1 FROM bridgef_{i} b "
                f"WHERE b.fact_id = f.fact_id)")

    sql = "SELECT " + ", ".join(select_cols + ["f.fact_id"])
    sql += f" FROM ({state.sql}) f"
    for join in join_sql:
        sql += " " + join
    if implicit:
        sql += " WHERE " + " AND ".join(implicit)

    measure_sql: Optional[str] = None
    if plan.function.args:
        i = catalog.index(state.mapping[plan.function.args[0]])
        measure_sql = (
            f"SELECT b.fact_id, COUNT(*) AS cnt, SUM(v.num) AS s, "
            f"MIN(v.num) AS mn, MAX(v.num) AS mx "
            f"FROM bridgev_{i} b JOIN val_{i} v "
            f"ON v.value_id = b.value_id GROUP BY b.fact_id")

    nodes = state.nodes + [CompiledNode(node_label(plan), sql)]
    if measure_sql:
        nodes.append(CompiledNode(
            f"measures[{plan.function.args[0]}]", measure_sql))
    return CompiledPlan(
        kind="rows", sql=sql, params=tuple(params), nodes=tuple(nodes),
        fact_type=state.fact_type,
        mapping=tuple(sorted(state.mapping.items())),
        aggregate=AggPushdown(function=plan.function, names=names,
                              origins=origins, measure_sql=measure_sql))


def compile_plan(plan: Plan, catalog: StarCatalog) -> CompiledPlan:
    """Compile a plan to SQL, or raise :class:`PushdownUnsupported`
    (``MD050`` plan shape, ``MD051`` predicate, ``MD052``
    aggregation)."""
    if isinstance(plan, AggregateNode):
        return _compile_aggregate(plan, catalog)
    state = _compile_facts(plan, catalog)
    if state.fact_type != catalog.mo.schema.fact_type:
        raise _unsupported(
            "MD050", plan,
            "fact-type rename changes fact identity; a fact-set "
            "result cannot decode through the template")
    return CompiledPlan(
        kind="facts", sql=state.sql, params=tuple(state.params),
        nodes=tuple(state.nodes), fact_type=state.fact_type,
        mapping=tuple(sorted(state.mapping.items())))


def raw_result(function: AggregationFunction,
               fact_ids: FrozenSet[str],
               measure_stats: Mapping[str, Tuple[int, float, float, float]],
               ) -> object:
    """Finish one group from pushed-down per-fact scalars into exactly
    what the in-memory ``apply`` returns.  ``measure_stats`` maps a
    fact id to its ``(count, sum, min, max)`` over the argument
    dimension's measures (facts with no measures are simply absent)."""
    if isinstance(function, SetCount):
        return len(fact_ids)
    stats = [measure_stats[f] for f in fact_ids if f in measure_stats]
    count = sum(s[0] for s in stats)
    if isinstance(function, CountDim):
        return count
    if isinstance(function, Sum):
        # the batch kernel's convention (0.0 for an empty group) — the
        # path Query.execute actually takes for every pushable plan;
        # the naive apply's int 0 is == but not repr-equal
        return float(sum(s[1] for s in stats))
    if isinstance(function, Avg):
        return (float(sum(s[1] for s in stats)) / count
                if count else math.nan)
    if isinstance(function, Min):
        return float(min(s[2] for s in stats)) if count else math.nan
    if isinstance(function, Max):
        return float(max(s[3] for s in stats)) if count else math.nan
    raise ValueError(f"no finisher for {function.name}")  # pragma: no cover
