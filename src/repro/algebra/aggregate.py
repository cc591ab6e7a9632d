"""The aggregate formation operator α (paper §4.1 and §4.2).

``α[D_{n+1}, g, C_1, .., C_n](M)``: for every combination ``(e_1, ..,
e_n)`` of values in the given grouping categories, apply ``g`` to the
set ``Group(e_1, .., e_n)`` of facts characterized by the combination,
and place the result in the new dimension ``D_{n+1}``:

* the new facts are the non-empty groups — *sets* of the argument facts
  (type ``2^F``);
* each argument dimension is restricted upward: only the category types
  ``≥ Type(C_i)`` remain, with ``Type(C_i)`` the new ⊥;
* the fact-dimension relations link each group to its combination and
  the result relation links each group to ``g``'s result on it;
* the **aggregation type propagation rule** guards further aggregation:
  if ``g`` is distributive, the paths up to the grouping categories are
  strict, and the hierarchies up to them are partitioning (i.e. ``g`` is
  summarizable there), the result's ⊥ aggregation type is the minimum of
  the argument ⊥ types; otherwise it is ``c``, so "unsafe" results that
  contain overlapping data cannot be aggregated further — the mechanism
  that prevents accidental double counting.

Temporal rules (§4.2): a group's entry for ``e_i`` carries the
intersection of its members' characterization times; the result entry
carries the intersection over the members and the argument dimensions of
``g``.
"""

from __future__ import annotations

import warnings
from itertools import product
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.algebra.functions import AggregationFunction, is_distributive
from repro.core.aggtypes import AggregationType, min_aggtype
from repro.core.category import CategoryType
from repro.core.dimension import Dimension, DimensionType
from repro.core.errors import SchemaError, SummarizabilityWarning
from repro.core.factdim import FactDimensionRelation
from repro.core.helpers import ResultSpec
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.properties import SummarizabilityCheck, check_summarizability
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.obs import metrics, trace
from repro.temporal.chronon import Chronon
from repro.temporal.timeset import ALWAYS, TimeSet, coalesce_intersection

__all__ = ["aggregate", "rebuild_with_aggtypes", "aggregate_schema",
           "dtype_with_aggtypes"]

_PATH_KERNEL = metrics.counter("aggregate.path.kernel")
_PATH_INDEXED = metrics.counter("aggregate.path.indexed")
_PATH_NAIVE = metrics.counter("aggregate.path.naive")
_PATH_TEMPORAL = metrics.counter("aggregate.path.temporal")
_KERNEL_FALLBACK = metrics.counter("aggregate.kernel.fallback")
_KERNEL_ROWS = metrics.histogram("aggregate.kernel.batch_rows")
_GROUPS = metrics.histogram("aggregate.groups")


def dtype_with_aggtypes(
    dtype: DimensionType,
    aggtype_map: Dict[str, AggregationType],
) -> DimensionType:
    """The intension-level half of :func:`rebuild_with_aggtypes`: the
    same lattice with new aggregation types per category type
    (declarations preserved — changing ``Aggtype_T`` does not touch the
    order)."""
    ctypes: List[CategoryType] = []
    for ctype in dtype.category_types():
        new_aggtype = aggtype_map.get(ctype.name, ctype.aggtype)
        ctypes.append(CategoryType(
            name=ctype.name, aggtype=new_aggtype,
            is_top=ctype.is_top, is_bottom=ctype.is_bottom))
    edges = []
    for ctype in dtype.category_types():
        for parent in dtype.pred(ctype.name):
            if parent == dtype.top_name:
                continue
            edges.append((ctype.name, parent))
    return DimensionType(
        dtype.name, ctypes, edges,
        declared_strict=dtype.declared_strict,
        declared_partitioning=dtype.declared_partitioning,
    )


def _propagated_aggtype_map(
    result_dtype: DimensionType,
    bottom_aggtype: AggregationType,
) -> Dict[str, AggregationType]:
    """The propagation rule's per-category map for the result dimension:
    the new ⊥ type at the bottom, and no category above may exceed it."""
    aggtype_map = {result_dtype.bottom_name: bottom_aggtype}
    for ctype in result_dtype.category_types():
        if ctype.is_top or ctype.name == result_dtype.bottom_name:
            continue
        aggtype_map[ctype.name] = min((ctype.aggtype, bottom_aggtype))
    return aggtype_map


def aggregate_schema(
    schema: FactSchema,
    function: AggregationFunction,
    grouping: Dict[str, str],
    result: ResultSpec,
    summarizable: bool = True,
) -> FactSchema:
    """α's schema-inference hook: the output fact schema of
    ``α[result, function, grouping]`` over an input with ``schema`` —
    Theorem 1's closure argument made executable, no fact data involved.

    Raises the same :class:`SchemaError` the runtime operator would for
    groupings naming unknown dimensions or categories, a colliding
    result-dimension name, or function arguments outside the schema.
    ``summarizable`` supplies the Lenz-Shoshani verdict the propagation
    rule depends on (the one ingredient the schema alone cannot always
    decide): ``True`` yields the optimistic result type (⊥ = min of the
    argument ⊥ types), ``False`` the pessimistic ``c``.  The static
    analyzer calls this twice to bracket the truth when the verdict is
    unknown."""
    for name, cat in grouping.items():
        if name not in schema:
            raise SchemaError(f"grouping names unknown dimension {name!r}")
        dtype = schema.dimension_type(name)
        if cat not in dtype:
            raise SchemaError(
                f"dimension {name!r} has no category {cat!r}"
            )
    if result.name in schema:
        raise SchemaError(
            f"result dimension {result.name!r} collides with an existing "
            f"dimension; rename first"
        )
    for arg in function.args:
        if arg not in schema:
            raise SchemaError(
                f"schema has no dimension type {arg!r}"
            )
    if summarizable:
        bottom_aggtype = min_aggtype(
            schema.dimension_type(d).bottom.aggtype for d in function.args
        )
    else:
        bottom_aggtype = AggregationType.CONSTANT
    result_dtype = dtype_with_aggtypes(
        result.dimension.dtype,
        _propagated_aggtype_map(result.dimension.dtype, bottom_aggtype),
    )
    dtypes = [
        schema.dimension_type(name).restricted_upward(
            grouping.get(name, schema.dimension_type(name).top_name))
        for name in schema.dimension_names
    ]
    return FactSchema(f"Set-of-{schema.fact_type}", dtypes + [result_dtype])


def rebuild_with_aggtypes(
    dimension: Dimension,
    aggtype_map: Dict[str, AggregationType],
) -> Dimension:
    """Rebuild a dimension with new aggregation types per category.

    Category types are immutable, so the propagation rule re-creates the
    result dimension's type with the computed aggregation types; values,
    order, and representations are copied unchanged.
    """
    dtype = dtype_with_aggtypes(dimension.dtype, aggtype_map)
    result = Dimension(dtype)
    for category in dimension.categories():
        if category.ctype.is_top:
            continue
        for value, time in category.items():
            result.add_value(category.name, value, time)
    for child, parent, time, prob in dimension.order.edges():
        result.add_edge(child, parent, time=time, prob=prob)
    for category in dimension.categories():
        if category.ctype.is_top:
            continue
        for rep_name, rep in dimension.representations_of(category.name).items():
            target = result.add_representation(category.name, rep_name)
            for value, rep_value, time in rep.entries():
                target.assign(value, rep_value, time)
    return result


def _grouping_values_per_fact(
    mo: MultidimensionalObject,
    dimension_name: str,
    category_name: str,
    at: Optional[Chronon],
    use_index: bool = True,
) -> Dict[Fact, List[DimensionValue]]:
    """For each fact, the grouping-category values characterizing it,
    deterministically ordered by interned value id.

    Grouping at the ⊤ category is the trivial grouping: *every* fact is
    characterized by ⊤ — including, at a chronon, facts whose pairs in
    this dimension are not valid then (⊤ is the paper's "cannot
    characterize within this dimension" marker, exactly what a
    valid-timeslice inserts for such facts).  This keeps α(…, at=t)
    consistent with α after τ_v(…, t).

    The indexed path answers from the MO's rollup index (one inverted
    closure lookup per category); ``use_index=False`` keeps the naive
    per-value traversal — the oracle the equivalence tests compare
    against.
    """
    if use_index:
        return mo.rollup_index().grouping_values_per_fact(
            dimension_name, category_name, at=at)
    dimension = mo.dimension(dimension_name)
    if category_name == dimension.dtype.top_name:
        top = dimension.top_value
        return {fact: [top] for fact in mo.facts}
    relation = mo.relation(dimension_name)
    out: Dict[Fact, Set[DimensionValue]] = {}
    for value in dimension.category(category_name).members(at=at):
        for fact in relation.facts_characterized_by(value, dimension, at=at):
            out.setdefault(fact, set()).add(value)
    # the pre-index ordering (repr-sort per fact), kept verbatim so this
    # path stays a faithful oracle of the original behavior; it never
    # touches the rollup index
    return {
        fact: sorted(values, key=repr)
        for fact, values in out.items()
    }


def _form_groups(
    mo: MultidimensionalObject,
    full_grouping: Dict[str, str],
    dim_order: List[str],
    at: Optional[Chronon],
    use_index: bool,
) -> Dict[Tuple[DimensionValue, ...], Set[Fact]]:
    """Group formation on value/fact objects (the temporal and naive
    paths).  Per-fact value lists arrive deterministically ordered
    (id-sorted on the indexed path, repr-sorted on the naive oracle), so
    combination order needs no re-sorting."""
    per_dim_values: Dict[str, Dict[Fact, List[DimensionValue]]] = {
        name: _grouping_values_per_fact(mo, name, cat, at,
                                        use_index=use_index)
        for name, cat in full_grouping.items()
    }
    groups: Dict[Tuple[DimensionValue, ...], Set[Fact]] = {}
    for fact in mo.facts:
        value_sets = []
        for name in dim_order:
            values = per_dim_values[name].get(fact)
            if not values:
                break  # not characterized at this granularity: in no group
            value_sets.append(values)
        else:
            for combo in product(*value_sets):
                groups.setdefault(tuple(combo), set()).add(fact)
    return groups


def _form_groups_interned(
    mo: MultidimensionalObject,
    full_grouping: Dict[str, str],
    dim_order: List[str],
    fact_ids: Optional[AbstractSet[int]] = None,
) -> Dict[Tuple[DimensionValue, ...], Set[Fact]]:
    """Group formation on interned ids (the untimed indexed path), over
    ``mo``'s facts or only those with the interned ``fact_ids``.

    The per-fact combination loop — the hot loop of α over large MOs —
    touches only dense integers: fact ids, value-id tuples, and int-tuple
    group keys.  Each distinct combination is converted back to value
    objects once, and each group's fact ids are materialized once, so
    value/fact hashing drops out of the per-fact work entirely.
    """
    index = mo.rollup_index()
    id_maps: Dict[str, Optional[Dict[int, Tuple[int, ...]]]] = {}
    top_vids: Dict[str, Tuple[int, ...]] = {}
    for name, cat in full_grouping.items():
        dimension = mo.dimension(name)
        if cat == dimension.dtype.top_name:
            # trivial grouping: every fact maps to ⊤, no per-fact table
            id_maps[name] = None
            top_vids[name] = (index.value_id(name, dimension.top_value),)
        else:
            id_maps[name] = index.grouping_value_ids_per_fact(name, cat)
    nontrivial_maps = [m for m in id_maps.values() if m is not None]
    if fact_ids is None:
        fact_ids = index.mo_fact_ids()
    if not nontrivial_maps:
        # every dimension grouped at ⊤: one group holding every fact
        if not fact_ids:
            return {}
        top_combo = tuple(
            mo.dimension(name).top_value for name in dim_order)
        return {top_combo: index.facts_of_ids(fact_ids)}
    # only facts present in every non-trivial map land in a group, so
    # iterating the smallest map's keys visits no fact object at all;
    # the id-level F membership check keeps α grouping exactly the MO's
    # (or the mask's) facts even if a relation mentions strays
    candidates = min(nontrivial_maps, key=len)
    group_ids: Dict[Tuple[int, ...], List[int]] = {}
    for fact_id in candidates:
        if fact_id not in fact_ids:
            continue
        vid_sets = []
        for name in dim_order:
            id_map = id_maps[name]
            vids = top_vids[name] if id_map is None else id_map.get(fact_id)
            if not vids:
                break  # not characterized at this granularity: in no group
            vid_sets.append(vids)
        else:
            for combo in product(*vid_sets):
                group_ids.setdefault(combo, []).append(fact_id)
    return {
        tuple(index.value_of(name, vid)
              for name, vid in zip(dim_order, combo)):
        set(index.facts_of_ids(fact_ids))
        for combo, fact_ids in group_ids.items()
    }


def _applicability_gate(function: AggregationFunction,
                        mo: MultidimensionalObject,
                        strict_types: bool) -> None:
    """α's applicability check (§3.1): in strict ("prevent") mode an
    inapplicable function raises
    :class:`~repro.core.errors.AggregationTypeError`; otherwise a
    :class:`SummarizabilityWarning` is issued (``stacklevel`` names the
    caller of :func:`aggregate`)."""
    if not function.check_applicable(mo, strict=strict_types):
        warnings.warn(
            f"{function.name} applied to data whose aggregation type does "
            f"not permit it; the result may be meaningless",
            SummarizabilityWarning,
            stacklevel=4,
        )


_Combo = Tuple[DimensionValue, ...]


def _alpha_groups(
    mo: MultidimensionalObject,
    function: AggregationFunction,
    grouping: Dict[str, str],
    strict_types: bool = True,
    at: Optional[Chronon] = None,
    use_index: bool = True,
    use_kernel: bool = True,
    mask: Optional[AbstractSet[Fact]] = None,
) -> Tuple[Dict[str, str], Dict[_Combo, Set[Fact]], Dict[_Combo, object]]:
    """α up to its result MO: check the grouping and the function's
    applicability, form the groups and evaluate ``function`` on each
    (arguments as :func:`aggregate`'s).  Returns the full grouping
    (⊤ for omitted dimensions), the groups keyed by value combination
    in ``mo.dimension_names`` order, and each group's raw result.  α
    identifies a set-fact by its members (§4.1), so a snapshot query
    reads its rows straight from these; :func:`aggregate` builds its
    result MO from them.  A ``mask`` of ``mo``'s facts (σ's survivors;
    untimed indexed rungs only) groups just those, on ``mo``'s layout:
    σ keeps the schema and the dimensions (§4.1)."""
    for name in grouping:
        if name not in mo.schema:
            raise SchemaError(f"grouping names unknown dimension {name!r}")
    full_grouping = {
        name: grouping.get(name, mo.dimension(name).dtype.top_name)
        for name in mo.dimension_names
    }
    _applicability_gate(function, mo, strict_types)

    dim_order = list(mo.dimension_names)
    raw_results: Optional[Dict[_Combo, object]] = None
    with trace.span("aggregate.alpha", grouping=tuple(sorted(grouping)),
                    function=function.name,
                    n_facts=len(mo) if mask is None else len(mask)):
        if use_index and at is None:
            index = mo.rollup_index()
            fact_ids = (None if mask is None
                        else frozenset(map(index.fact_id, mask)))
            # full_grouping iterates mo.dimension_names, so the columnar
            # combos come back already in dim_order
            columnar = (index.columnar().grouping(full_grouping)
                        if use_kernel else None)
            if columnar is not None and fact_ids is not None:
                columnar = columnar.restricted(fact_ids)
            if columnar is not None:
                groups = columnar.groups()
                _KERNEL_ROWS.observe(columnar.n_rows)
                raw_results = columnar.evaluate(function)
                if raw_results is None:
                    _KERNEL_FALLBACK.inc()
                    _PATH_INDEXED.inc()
                else:
                    _PATH_KERNEL.inc()
            else:
                _PATH_INDEXED.inc()
                groups = _form_groups_interned(mo, full_grouping, dim_order,
                                               fact_ids)
        else:
            (_PATH_TEMPORAL if at is not None else _PATH_NAIVE).inc()
            groups = _form_groups(mo, full_grouping, dim_order, at, use_index)
    _GROUPS.observe(len(groups))
    if raw_results is None:
        raw_results = {
            combo: function.apply(members, mo)
            for combo, members in groups.items()
        }
    return full_grouping, groups, raw_results


def aggregate(
    mo: MultidimensionalObject,
    function: AggregationFunction,
    grouping: Dict[str, str],
    result: ResultSpec,
    strict_types: bool = True,
    at: Optional[Chronon] = None,
    use_index: bool = True,
    use_kernel: bool = True,
) -> MultidimensionalObject:
    """Apply ``α[result, function, grouping]`` to ``mo``.

    ``grouping`` maps dimension names to the grouping category in each;
    omitted dimensions group by their ⊤ category (the trivial grouping).
    ``result`` supplies the result dimension ``D_{n+1}`` and the mapping
    of raw results into its ⊥ category.  ``strict_types`` selects the
    paper's "prevent" mode for the aggregation-type check; otherwise a
    :class:`SummarizabilityWarning` is issued and evaluation proceeds.
    ``at`` evaluates the grouping at one chronon (used by temporal
    analysis so each fact is counted at a single point in time, which
    extends summarizability to snapshot-strict/partitioning hierarchies).
    ``use_index=False`` forces the naive per-value traversal for group
    formation instead of the MO's rollup index — the reference path the
    equivalence tests and benchmarks compare against.  ``use_kernel=
    False`` keeps the index but disables the columnar batch kernels
    (the interned object path), the middle rung of the 3-way
    equivalence ladder; the kernels themselves fall back to it when the
    function has no :meth:`~AggregationFunction.batch_apply` kernel, a
    measure column is poisoned, or the grouping's key space overflows.
    """
    if result.name in mo.schema:
        raise SchemaError(
            f"result dimension {result.name!r} collides with an existing "
            f"dimension; rename first"
        )
    full_grouping, groups, raw_results = _alpha_groups(
        mo, function, grouping, strict_types, at, use_index, use_kernel)
    dim_order = list(mo.dimension_names)

    # -- summarizability and the aggregation-type propagation rule ----------
    nontrivial = {
        name: cat for name, cat in full_grouping.items()
        if cat != mo.dimension(name).dtype.top_name
    }
    if use_index:
        # version-keyed verdict cache: the check re-scans hierarchies and
        # base mappings, which dominates repeated aggregate formations
        summarizability = mo.rollup_index().summarizability(
            nontrivial, is_distributive(function), at=at)
    else:
        summarizability = check_summarizability(
            mo, nontrivial, is_distributive(function), at=at)
    if summarizability.summarizable:
        bottom_aggtype = min_aggtype(
            mo.dimension(d).dtype.bottom.aggtype for d in function.args
        )
    else:
        bottom_aggtype = AggregationType.CONSTANT
    aggtype_map = _propagated_aggtype_map(result.dimension.dtype,
                                          bottom_aggtype)

    # -- build the result relations -------------------------------------------
    set_fact_type = f"Set-of-{mo.schema.fact_type}"
    new_facts: Dict[_Combo, Fact] = {
        combo: Fact.group(members, ftype=set_fact_type)
        for combo, members in groups.items()
    }

    # materialize result values first (the spec's dimension grows on demand)
    result_values = {
        combo: result.value_for(raw) for combo, raw in raw_results.items()
    }
    result_dimension = rebuild_with_aggtypes(result.dimension, aggtype_map)

    restricted_dims: Dict[str, Dimension] = {}
    dtypes: List[DimensionType] = []
    for name in dim_order:
        dimension = mo.dimension(name)
        cat = full_grouping[name]
        restricted_dtype = dimension.dtype.restricted_upward(cat)
        keep = [c for c in restricted_dtype.category_types()
                if not c.is_top]
        restricted = dimension.subdimension(
            [c.name for c in keep], dtype=restricted_dtype)
        restricted_dims[name] = restricted
        dtypes.append(restricted.dtype)
    dtypes.append(result_dimension.dtype)

    relations: Dict[str, FactDimensionRelation] = {
        name: FactDimensionRelation(name) for name in dim_order
    }
    relations[result.name] = FactDimensionRelation(result.name)
    snapshot = mo.kind is TimeKind.SNAPSHOT
    for combo, members in groups.items():
        set_fact = new_facts[combo]
        member_times: Dict[str, TimeSet] = {}
        for name, value in zip(dim_order, combo):
            if snapshot:
                time = ALWAYS
            else:
                dimension = mo.dimension(name)
                relation = mo.relation(name)
                times = [
                    relation.characterization_time(f, value, dimension)
                    for f in members
                ]
                time = coalesce_intersection(times)
            member_times[name] = time
            target_value = (restricted_dims[name].top_value
                            if value.is_top else value)
            if time.is_empty():
                # the members share no chronon of characterization by
                # this value: the *group* cannot be placed in the
                # dimension at any single instant, which the model
                # expresses with the ⊤ marker (no missing values)
                relations[name].add(set_fact,
                                    restricted_dims[name].top_value)
            else:
                relations[name].add(set_fact, target_value, time=time)
        if snapshot or not function.args:
            result_time = ALWAYS
        else:
            result_time = coalesce_intersection(
                [member_times[name] for name in function.args])
        if result_time.is_empty():
            relations[result.name].add(
                set_fact, result_dimension.top_value)
        else:
            relations[result.name].add(
                set_fact, result_values[combo], time=result_time)

    schema = FactSchema(set_fact_type, dtypes)
    dimensions = dict(restricted_dims)
    dimensions[result.name] = result_dimension
    return MultidimensionalObject(
        schema=schema,
        facts=set(new_facts.values()),
        dimensions=dimensions,
        relations=relations,
        kind=mo.kind,
    )


def summarizability_of(
    mo: MultidimensionalObject,
    function: AggregationFunction,
    grouping: Dict[str, str],
    at: Optional[Chronon] = None,
) -> SummarizabilityCheck:
    """The Lenz-Shoshani verdict α would use for this aggregation —
    exposed so callers (and the pre-aggregation engine) can inspect the
    rule without running the operator.

    Answered from the rollup index's version-keyed verdict cache, the
    same cache α's indexed path uses, so inspecting the rule before an
    aggregation costs nothing extra during the aggregation itself.
    """
    nontrivial = {
        name: cat for name, cat in grouping.items()
        if cat != mo.dimension(name).dtype.top_name
    }
    return mo.rollup_index().summarizability(
        nontrivial, is_distributive(function), at=at)


__all__ += ["summarizability_of"]


def partition_facts(mo: MultidimensionalObject,
                    n_shards: int) -> List[Set[Fact]]:
    """Deterministically split ``mo``'s fact set into ``n_shards``
    contiguous ranges of the repr-sorted fact list (the reference
    stand-in for the interned-id range partitioning the sharded
    executor will use).  Shards may be empty when facts are scarce;
    their union is exactly ``mo.facts`` and they are pairwise
    disjoint."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    ordered = sorted(mo.facts, key=repr)
    size, extra = divmod(len(ordered), n_shards)
    shards: List[Set[Fact]] = []
    start = 0
    for i in range(n_shards):
        stop = start + size + (1 if i < extra else 0)
        shards.append(set(ordered[start:stop]))
        start = stop
    return shards


def restricted_to_facts(mo: MultidimensionalObject,
                        facts: Set[Fact]) -> MultidimensionalObject:
    """The sub-MO over a subset of ``mo``'s facts: same schema and
    dimensions, every fact-dimension relation restricted to the subset
    (σ's construction without the predicate evaluation) — the shard
    an executor hands to a worker."""
    surviving = set(facts) & set(mo.facts)
    relations = {
        name: mo.relation(name).restricted_to_facts(surviving)
        for name in mo.dimension_names
    }
    return MultidimensionalObject(
        schema=mo.schema,
        facts=surviving,
        dimensions={name: mo.dimension(name)
                    for name in mo.dimension_names},
        relations=relations,
        kind=mo.kind,
    )


def aggregate_sharded(
    mo: MultidimensionalObject,
    function: AggregationFunction,
    grouping: Dict[str, str],
    n_shards: int = 2,
    partial=None,
    merge=None,
) -> Dict[Tuple[DimensionValue, ...], object]:
    """Reference partition-and-merge execution of one α: partition the
    fact set into ``n_shards`` sub-MOs, form groups and evaluate
    ``function`` per shard, and merge per-combination partials with
    ``function.combine`` — the semantics the MD07x shardability
    analyzer vouches for, kept executable so its verdicts can be
    checked against ``aggregate_sharded(…, n_shards=1)`` (plain
    evaluation) in the property tests.

    Returns ``{grouped-value combination → merged result}`` with
    combinations as tuples over ``sorted(grouping)``.  ``partial`` /
    ``merge`` override the per-shard evaluator and the merge step for
    ALGEBRAIC functions, which shard via accumulator *states* (e.g.
    AVG's (sum, count) pairs) rather than finished results; the
    defaults are ``function.apply`` / ``function.combine``.  A
    combination seen in a single shard keeps its partial unmerged, the
    way a real sharded executor would skip the combine for singleton
    cells.

    Exact only when the analyzer's preconditions hold (DISTRIBUTIVE or
    decomposed-ALGEBRAIC function, grouping summarizability SAFE):
    non-strict fact paths make shards overlap per combination and the
    merge double-counts — exactly what ``MD072`` warns about.
    """
    for name in grouping:
        if name not in mo.schema:
            raise SchemaError(
                f"grouping names unknown dimension {name!r}")
    if partial is None:
        partial = function.apply
    if merge is None:
        merge = function.combine
    full_grouping = {
        name: grouping.get(name, mo.dimension(name).dtype.top_name)
        for name in mo.dimension_names
    }
    dim_order = list(mo.dimension_names)
    names = sorted(grouping)
    positions = [dim_order.index(name) for name in names]

    merged: Dict[Tuple[DimensionValue, ...], List[object]] = {}
    for shard in partition_facts(mo, n_shards):
        sub = restricted_to_facts(mo, shard)
        groups = _form_groups(sub, full_grouping, dim_order, None,
                              use_index=True)
        for combo, members in groups.items():
            if not members:
                continue
            key = tuple(combo[i] for i in positions)
            merged.setdefault(key, []).append(partial(members, sub))
    return {
        key: (partials[0] if len(partials) == 1 else merge(partials))
        for key, partials in merged.items()
    }


__all__ += ["partition_facts", "restricted_to_facts",
            "aggregate_sharded"]
