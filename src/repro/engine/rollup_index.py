"""The rollup-index layer: interned ids + cached closures for grouping
(paper §5 future work: "how the model can be efficiently implemented
using special-purpose algorithms and data structures").

Every operation that groups facts — aggregate formation, drill-across,
imprecision analysis, time-series counts, cube materialization —
ultimately needs the characterization relation ``f ⇝ e`` for whole
categories of values.  The naive evaluation
(:meth:`repro.core.factdim.FactDimensionRelation.facts_characterized_by`)
re-walks the dimension's partial order once per value per query.  A
:class:`RollupIndex` instead:

* **interns** facts and dimension values to dense integer ids
  (:class:`repro.core.interning.InternTable`), so closure tables are
  plain ``int``-set unions and deterministic orderings come from ids;
* **precomputes** one ``value → facts-characterized`` closure table per
  dimension in a single children-first topological sweep of the
  dimension's :class:`~repro.core.order.AnnotatedOrder`
  (``closure(e) = facts(e) ∪ ⋃ closure(child)``), instead of one DFS
  per queried value;
* is **versioned and lazily invalidated**: it snapshots each
  dimension's order and relation mutation counters at build time and
  rebuilds *only the dirty dimensions*, on the next query after a
  mutation.  Obtain the shared instance for an MO through
  :meth:`repro.core.mo.MultidimensionalObject.rollup_index`.

Temporal queries (``at=`` a chronon) take the closure table only as the
candidate set and re-apply the exact per-fact temporal test of the naive
path, so indexed and naive results agree on every input; the equivalence
property tests in ``tests/engine/test_rollup_index.py`` assert this
against the naive oracle.
"""

from __future__ import annotations

from array import array
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional, Set,
                    Tuple)

from repro.core.dimension import Dimension
from repro.core.errors import InstanceError
from repro.core.factdim import FactDimensionRelation
from repro.core.interning import InternTable
from repro.core.properties import SummarizabilityCheck, check_summarizability
from repro.core.values import DimensionValue, Fact
from repro.obs import metrics, trace
from repro.temporal.chronon import Chronon

__all__ = ["RollupIndex", "UNCHARACTERIZED", "MULTI_VALUED"]

#: sentinel in a per-fact value-id array: the fact has no grouping-
#: category value in this dimension (it drops out of the grouping).
UNCHARACTERIZED = -1
#: sentinel in a per-fact value-id array: the fact has *several*
#: grouping-category values (imprecise characterization) — look the
#: id-sorted tuple up in the side map and product-expand.
MULTI_VALUED = -2

# metric objects are cached at import so the hot paths pay one float add
# (see docs/OBSERVABILITY.md for the catalogue)
_BUILDS = metrics.counter("rollup_index.builds")
_BUILD_CAUSES = {
    cause: metrics.counter(f"rollup_index.build_cause.{cause}")
    for cause in ("new", "order", "relation", "order+relation")
}
_CHAR_MAP_HIT = metrics.counter("rollup_index.char_map.hit")
_CHAR_MAP_MISS = metrics.counter("rollup_index.char_map.miss")
_PER_FACT_HIT = metrics.counter("rollup_index.per_fact_map.hit")
_PER_FACT_MISS = metrics.counter("rollup_index.per_fact_map.miss")
_SUMM_HIT = metrics.counter("rollup_index.summarizability.hit")
_SUMM_MISS = metrics.counter("rollup_index.summarizability.miss")
_DELTA_APPLIED = metrics.counter("rollup_index.delta_applied")
_DELTA_OPS = metrics.histogram("rollup_index.delta.batch_ops")
_COVERAGE_HIT = metrics.counter("rollup_index.coverage.hit")
_COVERAGE_MISS = metrics.counter("rollup_index.coverage.miss")
_STRICT_HIT = metrics.counter("rollup_index.strictness.hit")
_STRICT_MISS = metrics.counter("rollup_index.strictness.miss")

_EMPTY_IDS: FrozenSet[int] = frozenset()


def _memo_get(memo: Mapping[tuple, tuple], key: tuple, stamp: object):
    """A version-keyed memo's answer to ``key`` if it was computed at
    ``stamp``, else ``None``.  The memos hold one ``(stamp, answer)``
    per question, overwritten when stale, so they stay as large as the
    set of questions asked instead of growing with every write."""
    found = memo.get(key)
    if found is not None and found[0] == stamp:
        return found[1]
    return None


class _DimensionIndex:
    """The closure tables of one dimension, valid for one version pair."""

    __slots__ = (
        "order_version",
        "relation_version",
        "values",
        "closure",
        "fact_sets",
        "category_maps",
        "per_fact_maps",
        "per_fact_id_maps",
        "id_array_maps",
        "nonempty_maps",
    )

    def __init__(
        self,
        order_version: int,
        relation_version: int,
        values: InternTable,
        closure: Dict[int, FrozenSet[int]],
    ) -> None:
        self.order_version = order_version
        self.relation_version = relation_version
        self.values = values
        #: interned value id → interned ids of the facts it characterizes
        self.closure = closure
        #: lazily materialized object-level views of ``closure``
        self.fact_sets: Dict[int, FrozenSet[Fact]] = {}
        #: category name → (value → facts) map, built on demand
        self.category_maps: \
            Dict[str, Dict[DimensionValue, FrozenSet[Fact]]] = {}
        #: category name → (fact → id-sorted values) map, built on demand
        self.per_fact_maps: Dict[str, Dict[Fact, List[DimensionValue]]] = {}
        #: category name → (fact id → id-sorted value-id tuple), the
        #: all-integer view the aggregate hot loop runs on
        self.per_fact_id_maps: Dict[str, Dict[int, Tuple[int, ...]]] = {}
        #: category name → (dense fact_id→value_id ``array('q')``,
        #: multi-valued side map) — the columnar kernel's input; see
        #: :meth:`RollupIndex.grouping_value_id_array`
        self.id_array_maps: Dict[
            str, Tuple[array, Dict[int, Tuple[int, ...]]]] = {}
        #: category name → the non-empty fact sets of its members (the
        #: cuboid-sizing fast path; see
        #: :meth:`RollupIndex.nonempty_fact_sets`)
        self.nonempty_maps: Dict[str, List[FrozenSet[Fact]]] = {}

    def is_fresh(self, dimension: Dimension,
                 relation: FactDimensionRelation) -> bool:
        return (self.order_version == dimension.order.version
                and self.relation_version == relation.version)


def _build_dimension_index(
    dimension: Dimension,
    relation: FactDimensionRelation,
    values: InternTable,
    facts: InternTable,
) -> _DimensionIndex:
    """One topological sweep: closure(e) = facts(e) ∪ ⋃ closure(child).

    The sweep visits children before parents, so each value's closure is
    one base lookup plus set unions of already-final child closures —
    O(edges × avg-closure) for the whole dimension, versus one DFS per
    value on the naive path.
    """
    order = dimension.order
    order_version = order.version
    relation_version = relation.version
    by_node: Dict[DimensionValue, FrozenSet[int]] = {}
    for node in order.topological():
        acc: Set[int] = {facts.intern(f) for f in relation.facts_of(node)}
        for child in order.children(node):
            acc |= by_node[child]
        by_node[node] = frozenset(acc)
    # ⊤ contains every value of the dimension, with no materialized
    # edges; its closure is the whole relation's fact set
    all_facts = frozenset(facts.intern(f) for f in relation.facts())
    by_node[dimension.top_value] = all_facts
    # values mentioned by the relation but absent from the order (possible
    # on hand-built, not-yet-validated relations) characterize only their
    # directly related facts — matching the naive empty-descendants walk
    for value in relation.values():
        if value not in by_node:
            by_node[value] = frozenset(
                facts.intern(f) for f in relation.facts_of(value))
    closure = {values.intern(node): fact_ids
               for node, fact_ids in by_node.items()}
    return _DimensionIndex(order_version, relation_version, values, closure)


class RollupIndex:
    """Interned, versioned closure tables for one MO's grouping paths.

    One instance serves all dimensions of the MO; per-dimension tables
    are built lazily on first use and rebuilt lazily when the
    dimension's order or relation mutation counter has moved.  All query
    methods return freshly usable objects (frozensets / read-only maps)
    whose contents always reflect the MO's current state.
    """

    def __init__(self, mo) -> None:
        self._mo = mo
        self._facts = InternTable()
        self._value_tables: Dict[str, InternTable] = {}
        self._dims: Dict[str, _DimensionIndex] = {}
        #: question → (version stamp, answer), see :func:`_memo_get`
        self._verdicts: Dict[tuple, Tuple[tuple, SummarizabilityCheck]] = {}
        self._coverage: Dict[tuple, Tuple[tuple, bool]] = {}
        self._strictness: Dict[tuple, Tuple[object, bool]] = {}
        self._mo_fact_ids: Optional[FrozenSet[int]] = None
        self._mo_facts_version = -1
        self._columnar = None
        self._builds = 0
        self._deltas = 0
        #: apply small mutations as deltas instead of rebuilds, in
        #: every layer over this index: closures, id-level category
        #: views, and the columnar store's layouts and measure columns.
        #: Disable to force the full-rebuild path everywhere (the
        #: benchmarks and the delta-equivalence tests do).
        self.delta_enabled = True

    @property
    def mo(self):
        """The indexed MO."""
        return self._mo

    @property
    def build_count(self) -> int:
        """How many per-dimension builds have run (observability for
        tests and benchmarks: mutations should rebuild exactly the dirty
        dimensions, repeated queries none)."""
        return self._builds

    @property
    def delta_count(self) -> int:
        """How many mutation batches were applied as deltas (closure
        patches) instead of per-dimension rebuilds."""
        return self._deltas

    # -- freshness ---------------------------------------------------------

    def _entry(self, dimension_name: str) -> _DimensionIndex:
        dimension = self._mo.dimension(dimension_name)
        relation = self._mo.relation(dimension_name)
        entry = self._dims.get(dimension_name)
        if entry is not None and entry.is_fresh(dimension, relation):
            return entry
        if (entry is not None and self.delta_enabled
                and self._apply_delta(dimension_name, entry,
                                      dimension, relation)):
            return entry
        cause = self._rebuild_cause(entry, dimension, relation)
        values = self._value_tables.setdefault(dimension_name, InternTable())
        with trace.span("rollup_index.build", dimension=dimension_name,
                        cause=cause):
            entry = _build_dimension_index(dimension, relation, values,
                                           self._facts)
        self._dims[dimension_name] = entry
        self._builds += 1
        _BUILDS.inc()
        _BUILD_CAUSES[cause].inc()
        return entry

    @staticmethod
    def _rebuild_cause(entry: Optional[_DimensionIndex],
                       dimension: Dimension,
                       relation: FactDimensionRelation) -> str:
        """Why a (re)build is happening: first build, a dirty order, a
        dirty relation, or both — the per-cause counters turn "the
        benchmark got slower" into "a rebuild storm on dimension X"."""
        if entry is None:
            return "new"
        order_dirty = entry.order_version != dimension.order.version
        relation_dirty = entry.relation_version != relation.version
        if order_dirty and relation_dirty:
            return "order+relation"
        return "order" if order_dirty else "relation"

    # -- incremental (delta) maintenance -----------------------------------

    def _apply_delta(self, dimension_name: str, entry: _DimensionIndex,
                     dimension: Dimension,
                     relation: FactDimensionRelation) -> bool:
        """Patch a stale entry's closures from the mutation logs instead
        of rebuilding — true on success.

        Relation ops replay first, in log order, every step against the
        *final* order: an add puts the fact id into the closures of the
        value, its ancestors and ⊤; a remove takes it out of the
        closures of each value the fact lost, their ancestors and ⊤ —
        every closure it was in, since the order only grows — and
        resets its row before any later add refills it.  Order edges
        then replay in insertion order, flowing the child's closure
        into the parent and the parent's ancestors — each newly
        reachable ``value → fact`` path is then covered by the latest-
        inserted edge on it (or directly, for relation adds).  Spans the
        bounded logs no longer cover and batches so large the one-sweep
        rebuild is the cheaper computation fall back to the rebuild.

        A relation op changes only its own fact's row of the id-level
        category views, so those are patched (:meth:`_patch_id_views`);
        an edge can move many facts, so the categories it touches drop
        every view.
        """
        order = dimension.order
        order_ops = order.change_log.since(entry.order_version,
                                           order.version)
        relation_ops = relation.change_log.since(entry.relation_version,
                                                 relation.version)
        if order_ops is None or relation_ops is None:
            return False
        n_ops = len(order_ops) + len(relation_ops)
        if n_ops > max(16, len(entry.closure) // 2):
            return False  # bulk mutation: the one-sweep rebuild wins
        facts = self._facts
        values = entry.values
        closure = entry.closure
        top = dimension.top_value

        def reach(value: DimensionValue) -> Set[DimensionValue]:
            targets = {value, top}
            if value in order:
                targets |= order.ancestors(value)
            return targets

        added: Dict[int, Set[DimensionValue]] = {}
        dropped: Dict[int, Set[DimensionValue]] = {}
        with trace.span("rollup_index.delta", dimension=dimension_name,
                        ops=n_ops):
            for kind, fact, payload in relation_ops:
                # ("add", fact, value) | ("remove", fact, values)
                fid = facts.intern(fact)
                if kind == "add":
                    targets = reach(payload)
                    for target in targets:
                        vid = values.intern(target)
                        closure[vid] = closure.get(vid, _EMPTY_IDS) | {fid}
                    added.setdefault(fid, set()).update(targets)
                else:
                    targets = set().union(*map(reach, payload))
                    for target in targets:
                        known = values.id_of(target)
                        if known is not None and known in closure:
                            closure[known] = closure[known] - {fid}
                    added[fid] = set()
                    dropped.setdefault(fid, set()).update(targets)
            self._patch_id_views(entry, dimension, added, dropped)
            self._evict_affected(
                entry, dimension,
                set().union(*added.values(), *dropped.values()),
                id_views=False)
            affected: Set[DimensionValue] = set()
            for op in order_ops:  # ("node", n) | ("edge", child, parent)
                if op[0] == "node":
                    # no closure flow, but the node's category map must
                    # be rebuilt to show the new (empty) member
                    affected.add(op[1])
                    continue
                _, child, parent = op
                child_vid = values.id_of(child)
                flowing = (closure.get(child_vid, _EMPTY_IDS)
                           if child_vid is not None else _EMPTY_IDS)
                targets = order.ancestors(parent, reflexive=True)
                if flowing:
                    for target in targets:
                        vid = values.intern(target)
                        existing = closure.get(vid, _EMPTY_IDS)
                        closure[vid] = existing | flowing
                affected |= targets
            self._evict_affected(entry, dimension, affected, id_views=True)
        entry.order_version = order.version
        entry.relation_version = relation.version
        self._deltas += 1
        _DELTA_APPLIED.inc()
        _DELTA_OPS.observe(n_ops)
        return True

    def _patch_id_views(self, entry: _DimensionIndex, dimension: Dimension,
                        added: Dict[int, Set[DimensionValue]],
                        dropped: Dict[int, Set[DimensionValue]]) -> None:
        """Fold relation ops into the id-level category views: each
        fact id in ``added`` gains the ids of the values it now rolls up
        to (the added values and their ancestors), category by
        category; a fact id in ``dropped`` first loses its row in the
        categories of the values it rolled up to before its removal.
        A patched view is a new object (copy-on-patch), so a holder of
        the old one keeps a consistent snapshot; its dense array grows
        to the interned fact count, as a fresh build's would."""
        by_category: Dict[str, Dict[int, Set[int]]] = {}
        categories: Dict[DimensionValue, Optional[str]] = {}
        for fid, targets in added.items():
            for target in targets | dropped.get(fid, set()):
                if target not in categories:
                    try:
                        categories[target] = dimension.category_name_of(
                            target)
                    except InstanceError:
                        categories[target] = None  # outside the dimension
                category_name = categories[target]
                if category_name is None:
                    continue
                row = by_category.setdefault(category_name, {}).setdefault(
                    fid, set())
                if target in targets:
                    row.add(entry.values.intern(target))
        for category_name, rows in by_category.items():
            id_map = entry.per_fact_id_maps.get(category_name)
            if id_map is None:
                # the dense array is derived from the map: rebuild both
                entry.id_array_maps.pop(category_name, None)
                continue
            id_map = dict(id_map)
            for fid, vids in rows.items():
                if fid not in dropped:
                    vids.update(id_map.get(fid, ()))
                if vids:
                    id_map[fid] = tuple(sorted(vids))
                else:
                    id_map.pop(fid, None)
            entry.per_fact_id_maps[category_name] = id_map
            arrays = entry.id_array_maps.get(category_name)
            if arrays is None:
                continue
            column = array("q", arrays[0])
            column.extend(array("q", [UNCHARACTERIZED])
                          * (len(self._facts) - len(column)))
            multi = dict(arrays[1])
            for fid in rows:
                vids = id_map.get(fid, ())
                multi.pop(fid, None)
                if len(vids) == 1:
                    column[fid] = vids[0]
                elif vids:
                    column[fid] = MULTI_VALUED
                    multi[fid] = vids
                else:
                    column[fid] = UNCHARACTERIZED
            entry.id_array_maps[category_name] = (column, multi)

    @staticmethod
    def _evict_affected(entry: _DimensionIndex, dimension: Dimension,
                        affected: Set[DimensionValue],
                        id_views: bool) -> None:
        """Surgically drop the lazily built views a delta invalidated:
        the per-value fact-set views of the touched values, and the
        category-level maps of every category containing one (the
        id-level views too when ``id_views``; relation adds patch them
        instead).  Values a relation mentions outside the dimension
        (hand-built relations) belong to no category, so only their
        fact-set view drops."""
        categories: Set[str] = set()
        for value in affected:
            vid = entry.values.id_of(value)
            if vid is not None:
                entry.fact_sets.pop(vid, None)
            try:
                categories.add(dimension.category_name_of(value))
            except InstanceError:
                continue
        for category_name in categories:
            entry.category_maps.pop(category_name, None)
            entry.per_fact_maps.pop(category_name, None)
            entry.nonempty_maps.pop(category_name, None)
            if id_views:
                entry.per_fact_id_maps.pop(category_name, None)
                entry.id_array_maps.pop(category_name, None)

    def is_fresh(self, dimension_name: str) -> bool:
        """Whether the dimension's table exists and matches the current
        order/relation versions (no query has to rebuild)."""
        entry = self._dims.get(dimension_name)
        return entry is not None and entry.is_fresh(
            self._mo.dimension(dimension_name),
            self._mo.relation(dimension_name))

    def invalidate(self, dimension_name: Optional[str] = None) -> None:
        """Drop cached tables (one dimension, or all).

        Not needed for correctness — mutation counters invalidate lazily
        — but lets callers release memory for large MOs.
        """
        if dimension_name is None:
            self._dims.clear()
        else:
            self._dims.pop(dimension_name, None)

    # -- summarizability ---------------------------------------------------

    def summarizability(self, grouping: Dict[str, str], distributive: bool,
                        at: Optional[Chronon] = None) -> SummarizabilityCheck:
        """The (cached) Lenz-Shoshani verdict for a grouping.

        Untimed verdicts come from cached per-dimension pieces
        (:meth:`_fact_paths_strict`, :meth:`_partitioning_up_to`);
        :func:`~repro.core.properties.check_summarizability` stays the
        oracle and answers timed (``at``) verdicts.  The cache is keyed
        by the question (grouping, distributivity, ``at``) and stamped
        with the grouped dimensions' order/relation versions and the
        fact-set version, so a relevant mutation misses the cache,
        re-checks and overwrites the stale answer.
        """
        names = tuple(sorted(grouping))
        key = (tuple((name, grouping[name]) for name in names),
               distributive, at)
        stamp = (
            tuple((self._mo.dimension(name).order.version,
                   self._mo.relation(name).version) for name in names),
            self._mo.facts_version,
        )
        verdict = _memo_get(self._verdicts, key, stamp)
        if verdict is not None:
            _SUMM_HIT.inc()
            return verdict
        _SUMM_MISS.inc()
        with trace.span("rollup_index.summarizability", grouping=names):
            if at is None:
                verdict = SummarizabilityCheck(
                    function_distributive=distributive,
                    paths_strict=all(self._fact_paths_strict(name, cat)
                                     for name, cat in grouping.items()),
                    hierarchies_partitioning=all(
                        self._partitioning_up_to(name, cat)
                        for name, cat in grouping.items()),
                )
            else:
                verdict = check_summarizability(self._mo, dict(grouping),
                                                distributive, at=at)
        self._verdicts[key] = (stamp, verdict)
        return verdict

    def _fact_paths_strict(self, dimension_name: str,
                           category_name: str) -> bool:
        """Definition 2's strict-path condition (no fact of ``F``
        characterized by two values of the category), answered from the
        cached per-fact grouping-id map and memoized against the
        version triple."""
        dimension = self._mo.dimension(dimension_name)
        if category_name == dimension.dtype.top_name:
            return True
        key = (dimension_name, "*paths*", category_name)
        stamp = (dimension.order.version,
                 self._mo.relation(dimension_name).version,
                 self._mo.facts_version)
        cached = _memo_get(self._strictness, key, stamp)
        if cached is None:
            id_map = self.grouping_value_ids_per_fact(dimension_name,
                                                      category_name)
            multi = [fid for fid, vids in id_map.items() if len(vids) > 1]
            # a relation may mention facts outside F; only F's count
            cached = not multi or self.mo_fact_ids().isdisjoint(multi)
            self._strictness[key] = (stamp, cached)
        return cached

    def _partitioning_up_to(self, dimension_name: str,
                            category_name: str) -> bool:
        """Definition 3 on the categories ≤ ``category_name`` plus ⊤ —
        the subhierarchy ``check_summarizability`` tests — without
        building its subdimension: Pred sets come from the restricted
        type order, and as the kept categories form a down-set, the
        subdimension's order is the dimension's, so a value is covered
        iff its cached ancestors meet a Pred category.  Cached per
        order version."""
        dimension = self._mo.dimension(dimension_name)
        key = (dimension_name, "*partitioning*", category_name)
        stamp = dimension.order.version
        cached = _memo_get(self._strictness, key, stamp)
        if cached is not None:
            _STRICT_HIT.inc()
            return cached
        _STRICT_MISS.inc()
        dtype = dimension.dtype
        keep = {c.name for c in dimension.categories()
                if dtype.leq(c.name, category_name)}
        keep.add(dtype.top_name)
        preds: Dict[str, Set[str]] = {}
        for lower, upper in dimension._restrict_type_order(keep):
            preds.setdefault(lower, set()).add(upper)
        order = dimension.order
        result = True
        for name, pred_names in preds.items():
            if dtype.top_name in pred_names:
                continue  # every value is below ⊤
            pred_members: Set[DimensionValue] = set()
            for pred_name in pred_names:
                pred_members |= dimension.category(pred_name).members()
            if any(pred_members.isdisjoint(order.ancestors(value))
                   for value in dimension.category(name).members()):
                result = False
                break
        self._strictness[key] = (stamp, result)
        return result

    # -- hierarchy properties ----------------------------------------------

    def mapping_strict(self, dimension_name: str, lower_category: str,
                       upper_category: str) -> bool:
        """Definition 2 for one category pair, answered from the cached
        ancestor sets: one ``ancestors(value) ∩ upper-members``
        intersection per lower value, instead of the naive
        O(|lower|·|upper|) per-pair containment scan of
        :func:`repro.core.properties.mapping_is_strict`.  Cached keyed
        by the dimension's order version (category membership bumps the
        order counter too, via ``add_node``)."""
        dimension = self._mo.dimension(dimension_name)
        key = (dimension_name, "*mapping*", lower_category, upper_category)
        stamp = dimension.order.version
        cached = _memo_get(self._strictness, key, stamp)
        if cached is not None:
            _STRICT_HIT.inc()
            return cached
        _STRICT_MISS.inc()
        upper_members = dimension.category(upper_category).members()
        result = True
        for value in dimension.category(lower_category).members():
            parents = dimension.ancestors(value, reflexive=False)
            parents &= upper_members
            parents.discard(value)
            if len(parents) > 1:
                result = False
                break
        self._strictness[key] = (stamp, result)
        return result

    def hierarchy_strict(self, dimension_name: str) -> bool:
        """Definition 2 for the whole dimension: every related category
        pair's mapping is strict.  Built on :meth:`mapping_strict`, so
        repeated queries (the analyzer, the pre-aggregate store) answer
        from the per-pair cache."""
        dimension = self._mo.dimension(dimension_name)
        key = (dimension_name, "*hierarchy*")
        stamp = dimension.order.version
        cached = _memo_get(self._strictness, key, stamp)
        if cached is not None:
            _STRICT_HIT.inc()
            return cached
        _STRICT_MISS.inc()
        dtype = dimension.dtype
        names = [c.name for c in dimension.categories()]
        result = all(
            self.mapping_strict(dimension_name, lower, upper)
            for lower in names for upper in names
            if lower != upper and dtype.leq(lower, upper)
        )
        self._strictness[key] = (stamp, result)
        return result

    def hierarchy_partitioning(self, dimension_name: str) -> bool:
        """Definition 3 for the whole dimension: the ⊤ case of
        :meth:`_partitioning_up_to`, whose Pred sets are the type
        order's covering edges (what ``DimensionType.pred`` returns for
        a type declared by its covering edges)."""
        return self._partitioning_up_to(
            dimension_name, self._mo.dimension(dimension_name).dtype.top_name)

    # -- interned orderings ------------------------------------------------

    def value_id(self, dimension_name: str, value: DimensionValue) -> int:
        """The dense interned id of a value (assigning one if unseen).

        Ids are assigned in build/first-seen order and never reused, so
        they are a stable, cheap deterministic sort key — the grouping
        paths order value combinations by id instead of ``repr``.
        """
        table = self._value_tables.setdefault(dimension_name, InternTable())
        return table.intern(value)

    # -- characterization queries ------------------------------------------

    def _fact_set(self, entry: _DimensionIndex,
                  value: DimensionValue) -> FrozenSet[Fact]:
        vid = entry.values.id_of(value)
        if vid is None:
            return frozenset()
        fact_ids = entry.closure.get(vid)
        if fact_ids is None:
            return frozenset()
        cached = entry.fact_sets.get(vid)
        if cached is None:
            cached = frozenset(self._facts.objects_of(fact_ids))
            entry.fact_sets[vid] = cached
        return cached

    def facts_characterized_by(
        self,
        dimension_name: str,
        value: DimensionValue,
        at: Optional[Chronon] = None,
    ) -> FrozenSet[Fact]:
        """All facts ``f`` with ``f ⇝ value`` — the indexed counterpart
        of :meth:`FactDimensionRelation.facts_characterized_by`.

        Untimed queries answer straight from the closure table.  Timed
        queries (``at``) take the closure as the candidate set and apply
        the naive per-fact temporal test, so results match the naive
        path exactly.
        """
        entry = self._entry(dimension_name)
        candidates = self._fact_set(entry, value)
        if at is None:
            return candidates
        dimension = self._mo.dimension(dimension_name)
        relation = self._mo.relation(dimension_name)
        return frozenset(
            f for f in candidates
            if relation.characterizes(f, value, dimension, at=at)
        )

    def characterization_map(
        self, dimension_name: str, category_name: str
    ) -> Dict[DimensionValue, FrozenSet[Fact]]:
        """``value → facts characterized`` for one whole category.

        Every member of the category appears (empty frozenset when no
        fact rolls up into it).  Built from the closure table and cached
        per category until the dimension is dirtied.  Treat the returned
        map as read-only.
        """
        entry = self._entry(dimension_name)
        cached = entry.category_maps.get(category_name)
        if cached is not None:
            _CHAR_MAP_HIT.inc()
            return cached
        _CHAR_MAP_MISS.inc()
        dimension = self._mo.dimension(dimension_name)
        category = dimension.category(category_name)
        with trace.span("rollup_index.char_map", dimension=dimension_name,
                        category=category_name):
            result = {
                value: self._fact_set(entry, value)
                for value in category.members()
            }
        entry.category_maps[category_name] = result
        return result

    def facts_for(self, dimension_name: str, category_name: str,
                  value: DimensionValue) -> FrozenSet[Fact]:
        """The facts characterized by ``value`` (empty if none)."""
        return self.characterization_map(
            dimension_name, category_name).get(value, frozenset())

    def nonempty_fact_sets(self, dimension_name: str,
                           category_name: str) -> List[FrozenSet[Fact]]:
        """The category's characterization map filtered down to its
        non-empty fact sets — the inner structure of cuboid sizing,
        memoized per category so a lattice scan filters each category
        once instead of once per candidate cuboid.  Treat as read-only.
        """
        entry = self._entry(dimension_name)
        cached = entry.nonempty_maps.get(category_name)
        if cached is not None:
            return cached
        result = [
            facts for facts in self.characterization_map(
                dimension_name, category_name).values() if facts
        ]
        entry.nonempty_maps[category_name] = result
        return result

    def covers(self, dimension_name: str, stored_category: str,
               target_category: str) -> bool:
        """Whether rolling this dimension up from ``stored_category``
        cells is *byte-identical* to grouping at ``target_category``
        directly — the per-dimension summarizability condition, checked
        extensionally on the instance:

        * every fact visible at either level is characterized by
          *exactly one* stored-category value (no imprecise fact
          recorded above the stored level and so lost, no fact under
          two stored siblings and so double counted); and
        * that stored value's ancestors in the target category are
          exactly the fact's own target-level characterization, at most
          one value (no non-strict edge fanning one stored cell into
          two target cells, no shortcut path bypassing the stored
          level).

        Schema-level Lenz-Shoshani verdicts imply this but are coarser:
        a grouping can fail the verdict because of *another* dimension
        (or another branch of this one) while this particular pair of
        levels combines exactly.  Cached per level pair, stamped with
        the dimension's version pair plus the fact-set version (the
        target map at ⊤ is the MO's whole fact set).
        """
        if stored_category == target_category:
            return True
        dimension = self._mo.dimension(dimension_name)
        key = (dimension_name, stored_category, target_category)
        stamp = (dimension.order.version,
                 self._mo.relation(dimension_name).version,
                 self._mo.facts_version)
        cached = _memo_get(self._coverage, key, stamp)
        if cached is not None:
            _COVERAGE_HIT.inc()
            return cached
        _COVERAGE_MISS.inc()
        stored_map = self.grouping_values_per_fact(dimension_name,
                                                   stored_category)
        target_map = self.grouping_values_per_fact(dimension_name,
                                                   target_category)
        # at ⊤ the target map is exactly F; also require uniqueness for
        # facts only the relation mentions, so a stray can never be
        # combined twice
        candidates: Iterable[Fact] = set(target_map) | set(stored_map)
        at_top = (target_category == dimension.dtype.top_name)
        category = None if at_top else dimension.category(target_category)
        mapped_cache: Dict[DimensionValue, FrozenSet[DimensionValue]] = {}
        result = True
        for fact in candidates:
            stored_values = stored_map.get(fact)
            if stored_values is None or len(stored_values) != 1:
                result = False
                break
            if at_top:
                continue  # every fact maps to the single ⊤ cell
            value = stored_values[0]
            mapped = mapped_cache.get(value)
            if mapped is None:
                mapped = frozenset(
                    ancestor for ancestor in dimension.ancestors(
                        value, reflexive=True)
                    if ancestor in category
                )
                mapped_cache[value] = mapped
            if len(mapped) > 1 or mapped != frozenset(
                    target_map.get(fact, ())):
                result = False
                break
        self._coverage[key] = (stamp, result)
        return result

    def group_counts(self, dimension_name: str,
                     category_name: str) -> Dict[DimensionValue, int]:
        """Distinct-fact counts per category value — the indexed version
        of Example 12's set-count rollup."""
        return {
            value: len(facts)
            for value, facts in self.characterization_map(
                dimension_name, category_name).items()
        }

    def grouping_values_per_fact(
        self,
        dimension_name: str,
        category_name: str,
        at: Optional[Chronon] = None,
    ) -> Dict[Fact, List[DimensionValue]]:
        """For each fact, the id-sorted grouping-category values
        characterizing it — the inner loop of aggregate formation,
        answered by inverting the closure table once per category.

        Grouping at ⊤ is the trivial grouping: every fact of the MO is
        characterized by ⊤ (the paper's "cannot characterize within this
        dimension" marker), mirroring
        :func:`repro.algebra.aggregate._grouping_values_per_fact`.
        Treat the returned map as read-only.
        """
        dimension = self._mo.dimension(dimension_name)
        if category_name == dimension.dtype.top_name:
            top = dimension.top_value
            return {fact: [top] for fact in self._mo.facts}
        if at is not None:
            return self._grouping_values_at(dimension_name, category_name, at)
        entry = self._entry(dimension_name)
        cached = entry.per_fact_maps.get(category_name)
        if cached is not None:
            _PER_FACT_HIT.inc()
            return cached
        facts_table = self._facts
        values_table = entry.values
        result: Dict[Fact, List[DimensionValue]] = {
            facts_table.object_of(fid): [
                values_table.object_of(vid) for vid in vids
            ]
            for fid, vids in self._grouping_ids(
                dimension_name, entry, category_name).items()
        }
        entry.per_fact_maps[category_name] = result
        return result

    def _grouping_ids(self, dimension_name: str, entry: _DimensionIndex,
                      category_name: str) -> Dict[int, Tuple[int, ...]]:
        cached = entry.per_fact_id_maps.get(category_name)
        if cached is not None:
            _PER_FACT_HIT.inc()
            return cached
        _PER_FACT_MISS.inc()
        dimension = self._mo.dimension(dimension_name)
        by_fact_ids: Dict[int, List[int]] = {}
        for value in dimension.category(category_name).members():
            vid = entry.values.id_of(value)
            if vid is None:
                continue
            for fid in entry.closure.get(vid, ()):
                by_fact_ids.setdefault(fid, []).append(vid)
        result = {
            fid: tuple(sorted(vids)) for fid, vids in by_fact_ids.items()
        }
        entry.per_fact_id_maps[category_name] = result
        return result

    # -- the all-integer view (the aggregate hot loop) ---------------------

    def fact_id(self, fact: Fact) -> int:
        """The dense interned id of a fact (assigning one if unseen)."""
        return self._facts.intern(fact)

    def mo_fact_ids(self) -> FrozenSet[int]:
        """The interned ids of the MO's own fact set ``F``, cached
        against the MO's fact-set version.  Grouping must only emit
        facts of ``F`` even when a relation (transiently) mentions
        others, and this set makes that a per-id integer check."""
        version = self._mo.facts_version
        if self._mo_fact_ids is None or self._mo_facts_version != version:
            intern = self._facts.intern
            ops = (None if self._mo_fact_ids is None else
                   self._mo.fact_log.since(self._mo_facts_version, version))
            if ops is not None:
                # the fact set only grows: patch the interned view with
                # the logged insertions instead of re-interning F
                self._mo_fact_ids = self._mo_fact_ids | frozenset(
                    intern(fact) for _, fact in ops)
            else:
                self._mo_fact_ids = frozenset(
                    intern(f) for f in self._mo.facts)
            self._mo_facts_version = version
        return self._mo_fact_ids

    def facts_of_ids(self, ids: Iterable[int]) -> Set[Fact]:
        """The facts behind a collection of interned fact ids."""
        return self._facts.objects_of(ids)

    def value_of(self, dimension_name: str, value_id: int) -> DimensionValue:
        """The value behind an interned value id of one dimension."""
        return self._value_tables[dimension_name].object_of(value_id)

    def all_characterize(self, dimension_name: str,
                         value_ids: Iterable[int]) -> bool:
        """Whether every interned value id in ``value_ids`` still
        characterizes some fact — a fresh layout codes exactly those."""
        closure = self._entry(dimension_name).closure
        return all(closure.get(vid) for vid in value_ids)

    def grouping_value_ids_per_fact(
        self, dimension_name: str, category_name: str
    ) -> Dict[int, Tuple[int, ...]]:
        """The id-level form of :meth:`grouping_values_per_fact`
        (untimed, non-⊤): interned fact id → id-sorted tuple of interned
        grouping-value ids.  Aggregate formation runs its per-fact
        combination loop entirely on these integers — hashing ints
        instead of value/fact objects — and converts each distinct
        combination back to objects once.  Treat as read-only.
        """
        entry = self._entry(dimension_name)
        return self._grouping_ids(dimension_name, entry, category_name)

    def grouping_value_id_array(
        self, dimension_name: str, category_name: str
    ) -> Tuple[array, Dict[int, Tuple[int, ...]]]:
        """The dense-array form of :meth:`grouping_value_ids_per_fact`
        (untimed, non-⊤): an ``array('q')`` indexed by interned fact id
        holding the fact's single grouping-value id, plus a side map for
        the imprecise facts.  Cells are :data:`UNCHARACTERIZED` for
        facts with no value in the category and :data:`MULTI_VALUED`
        for facts whose id-sorted value tuple lives in the side map.

        Fact ids at or beyond ``len(array)`` were interned after the
        array was built or last patched and are necessarily
        uncharacterized here (a new characterization in this dimension
        would have bumped the relation version, and the delta that
        replays it patches a grown copy of the array).  Kernel setup
        reads this with zero per-object hashing.  Treat both parts as
        read-only.
        """
        entry = self._entry(dimension_name)
        cached = entry.id_array_maps.get(category_name)
        if cached is not None:
            return cached
        id_map = self._grouping_ids(dimension_name, entry, category_name)
        column = array("q", [UNCHARACTERIZED]) * len(self._facts)
        multi: Dict[int, Tuple[int, ...]] = {}
        for fid, vids in id_map.items():
            if len(vids) == 1:
                column[fid] = vids[0]
            else:
                column[fid] = MULTI_VALUED
                multi[fid] = vids
        cached = (column, multi)
        entry.id_array_maps[category_name] = cached
        return cached

    def columnar(self):
        """The MO's shared :class:`~repro.engine.columnar.ColumnarStore`
        — version-stamped flat group-key columns and measure columns for
        the batch aggregation kernels — created lazily on first use."""
        if self._columnar is None:
            from repro.engine.columnar import ColumnarStore
            self._columnar = ColumnarStore(self)
        return self._columnar

    def _grouping_values_at(
        self, dimension_name: str, category_name: str, at: Chronon
    ) -> Dict[Fact, List[DimensionValue]]:
        """The temporal variant: closure candidates, naive time filter."""
        dimension = self._mo.dimension(dimension_name)
        table = self._value_tables.setdefault(dimension_name, InternTable())
        out: Dict[Fact, Set[DimensionValue]] = {}
        for value in dimension.category(category_name).members(at=at):
            for fact in self.facts_characterized_by(
                    dimension_name, value, at=at):
                out.setdefault(fact, set()).add(value)
        return {
            fact: sorted(values, key=table.intern)
            for fact, values in out.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RollupIndex({self._mo!r}, {len(self._dims)} dimensions "
                f"indexed, {self._builds} builds)")
