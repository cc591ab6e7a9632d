"""Pre-computed aggregates gated by summarizability (paper §3.4).

"Summarizability is an important concept as it is a condition for the
flexible use of pre-computed aggregates.  Without summarizability,
lower-level results generally cannot be directly combined into
higher-level results."

:class:`PreAggregateStore` materializes aggregate results at chosen
category levels and answers coarser queries by *combining* stored
results — but only when the Lenz-Shoshani condition holds (distributive
function, strict paths, partitioning hierarchies) between the stored
and requested levels.  When it does not, the store refuses and the
caller must recompute from base data; the summarizability benchmark
shows both the refusal and the cost difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.algebra.functions import AggregationFunction, is_distributive
from repro.core.errors import AlgebraError
from repro.core.mo import MultidimensionalObject
from repro.core.properties import SummarizabilityCheck
from repro.core.values import DimensionValue, Fact
from repro.obs import metrics, trace

__all__ = ["MaterializedAggregate", "PreAggregateStore"]

GroupKey = Tuple[DimensionValue, ...]

#: the MO state a materialization was computed from: the fact-set
#: version plus every dimension's (order version, relation version) —
#: all dimensions, not just the grouped ones, because the aggregation
#: function may read measures from any relation (e.g. ``Sum("Age")``)
VersionStamp = Tuple[int, Tuple[Tuple[str, int, int], ...]]

_MATERIALIZE = metrics.counter("preagg.materialize")
_MATERIALIZE_BASE = metrics.counter("preagg.materialize.base")
_MATERIALIZE_ROLLUP = metrics.counter("preagg.materialize.rollup")
_REUSE = metrics.counter("preagg.reuse")
_REFUSE = metrics.counter("preagg.refuse")
_STALE_EVICTED = metrics.counter("preagg.stale_evicted")
_COVERAGE_REFUSED = metrics.counter("preagg.coverage_refused")

#: sentinel distinguishing "not yet resolved" from "no target ancestor"
#: in the rollup translation tables
_MISSING = object()


@dataclass
class MaterializedAggregate:
    """One materialized aggregate: results per group plus the
    summarizability verdict and MO version stamp recorded at
    materialization time."""

    grouping: Dict[str, str]
    function_name: str
    results: Dict[GroupKey, object]
    #: group members per combo; frozensets on the columnar/rollup paths,
    #: plain sets on the map-expansion fallback — equal either way
    groups: Dict[GroupKey, AbstractSet[Fact]]
    summarizability: SummarizabilityCheck
    #: the (fact-set, per-dimension order/relation) versions this was
    #: built from; the store serves it only while they still match
    versions: VersionStamp = field(default=(0, ()))
    #: how this was computed: ``"base"`` (characterization-map scan) or
    #: ``"rollup"`` (combined from a finer stored aggregate)
    via: str = "base"
    #: for ``via="rollup"``: the source grouping and its cell count —
    #: the cube layer reports the parent-size histogram from this
    source_grouping: Optional[Dict[str, str]] = None
    source_size: int = 0


class PreAggregateStore:
    """Materializes and reuses aggregate results over one MO."""

    def __init__(self, mo: MultidimensionalObject) -> None:
        self._mo = mo
        # share the MO-attached index so closures built here also serve
        # the algebra and query layers (and vice versa)
        self._index = mo.rollup_index()
        self._store: Dict[Tuple[Tuple[Tuple[str, str], ...], str],
                          MaterializedAggregate] = {}

    @property
    def mo(self) -> MultidimensionalObject:
        """The base MO."""
        return self._mo

    @staticmethod
    def _key(grouping: Dict[str, str],
             function: AggregationFunction
             ) -> Tuple[Tuple[Tuple[str, str], ...], str]:
        return tuple(sorted(grouping.items())), function.name

    def _verdict(self, grouping: Dict[str, str],
                 distributive: bool) -> SummarizabilityCheck:
        """The Lenz-Shoshani verdict for a grouping, from the rollup
        index's version-keyed cache: repeated reuse decisions do not
        re-scan the base data, yet a mutated dimension is re-checked."""
        return self._index.summarizability(grouping, distributive)

    def summarizability(self, grouping: Dict[str, str],
                        distributive: bool) -> SummarizabilityCheck:
        """The cached Lenz-Shoshani verdict for a grouping — exposed so
        the cube builder can judge cuboids without materializing them."""
        return self._verdict(grouping, distributive)

    def _stamp(self) -> VersionStamp:
        """The MO's current mutation-counter state, recorded on each
        materialization and re-checked before any reuse."""
        mo = self._mo
        return (
            mo.facts_version,
            tuple(
                (name, mo.dimension(name).order.version,
                 mo.relation(name).version)
                for name in mo.dimension_names
            ),
        )

    def _is_fresh(self, stored: MaterializedAggregate) -> bool:
        return stored.versions == self._stamp()

    def materialize(self, function: AggregationFunction,
                    grouping: Dict[str, str],
                    shared_scan: bool = True) -> MaterializedAggregate:
        """Compute and store the aggregate at the given grouping levels
        (single- or multi-dimension).

        The *shared-scan* path (default) first looks for the smallest
        already-stored, still-fresh aggregate at a strictly finer
        grouping from which this one can be safely combined
        (:meth:`can_roll_up`: distributive function, exact
        per-dimension coverage between the changed levels) and rolls
        its cell values and groups up instead of re-scanning the
        characterization maps.  ``shared_scan=False`` forces the base
        path — the per-cuboid comparator the benchmarks time against.
        Either way the stored entry is byte-identical: the rollup gate
        refuses whenever combining could differ from a base scan.
        """
        _MATERIALIZE.inc()
        if shared_scan and grouping:
            source = self._rollup_source(function, grouping)
            if source is not None:
                return self._materialize_rollup(source, function, grouping)
        return self._materialize_base(function, grouping)

    def _materialize_base(self, function: AggregationFunction,
                          grouping: Dict[str, str]) -> MaterializedAggregate:
        """The base path: lay the grouping out columnar and evaluate
        ``function`` with its batch kernel — falling back to expanding
        the characterization maps (key-space overflow) and/or per-group
        ``apply`` (no kernel, poisoned measures) on the same groups."""
        _MATERIALIZE_BASE.inc()
        with trace.span("preagg.materialize",
                        grouping=tuple(sorted(grouping.items())),
                        function=function.name):
            stamp = self._stamp()
            groups: Dict[GroupKey, AbstractSet[Fact]] = {}
            results: Optional[Dict[GroupKey, object]] = None
            names = sorted(grouping)
            columnar = (self._index.columnar().grouping(
                {name: grouping[name] for name in names}) if names else None)
            if columnar is not None:
                groups = dict(columnar.groups())
                results = columnar.evaluate(function)
            elif names:
                maps = {
                    name: self._index.characterization_map(name, cat)
                    for name, cat in grouping.items()
                }
                for combo, facts in self._expand(names, maps):
                    if facts:
                        groups[combo] = facts
            elif self._mo.facts:
                # a fact-less MO has no grand-total group, matching the
                # α path, which produces no result fact either
                groups[()] = set(self._mo.facts)
            if results is None:
                results = {
                    combo: function.apply(facts, self._mo)
                    for combo, facts in groups.items()
                }
            verdict = self._verdict(grouping, is_distributive(function))
        materialized = MaterializedAggregate(
            grouping=dict(grouping),
            function_name=function.name,
            results=results,
            groups=groups,
            summarizability=verdict,
            versions=stamp,
        )
        self._store[self._key(grouping, function)] = materialized
        return materialized

    def _rollup_source(
        self, function: AggregationFunction, grouping: Dict[str, str],
    ) -> Optional[MaterializedAggregate]:
        """The smallest stored, fresh, strictly finer aggregate from
        which ``grouping`` can be safely combined — or ``None``, in
        which case the caller scans from base."""
        target_key = tuple(sorted(grouping.items()))
        best: Optional[MaterializedAggregate] = None
        for (grouping_key, function_name), stored in list(self._store.items()):
            if function_name != function.name:
                continue
            if grouping_key == target_key:
                continue  # recomputation was asked for; do not self-serve
            if best is not None and len(stored.results) >= len(best.results):
                continue  # a smaller parent is already in hand
            if self.can_roll_up(stored, function, grouping):
                best = stored
        return best

    def _materialize_rollup(
        self,
        stored: MaterializedAggregate,
        function: AggregationFunction,
        grouping: Dict[str, str],
    ) -> MaterializedAggregate:
        """Combine a finer stored aggregate into ``grouping`` — cell
        values merge with ``function.combine``, groups by set union —
        and store the result exactly as the base path would."""
        _MATERIALIZE_ROLLUP.inc()
        with trace.span("preagg.materialize_rollup",
                        source=tuple(sorted(stored.grouping.items())),
                        target=tuple(sorted(grouping.items())),
                        function=function.name):
            stamp = self._stamp()
            partials: Dict[GroupKey, list] = {}
            member_sets: Dict[GroupKey, List[AbstractSet[Fact]]] = {}
            # per-dimension value → target-ancestor tables, built once
            # from the stored category's members so the per-cell loop
            # below is nothing but dict lookups
            translators = self._translators(stored.grouping, grouping)
            source_groups = stored.groups
            for combo, result in stored.results.items():
                target_key = []
                for pos, table, name, target_cat in translators:
                    value = combo[pos]
                    if table is not None:
                        parent = table.get(value, _MISSING)
                        if parent is _MISSING:
                            # a stored value outside the category's
                            # member list (e.g. carried over from a
                            # previous rollup): resolve and memoize
                            parent = table[value] = self._parent_in(
                                name, value, target_cat)
                        if parent is None:
                            target_key = None  # no target ancestor
                            break
                        value = parent
                    target_key.append(value)
                if target_key is None:
                    continue
                target_combo = tuple(target_key)
                bucket = partials.get(target_combo)
                if bucket is None:
                    partials[target_combo] = [result]
                    member_sets[target_combo] = [source_groups[combo]]
                else:
                    bucket.append(result)
                    member_sets[target_combo].append(source_groups[combo])
            # one n-ary union per target cell instead of building up
            # intermediate sets pairwise — the former cube hotspot
            groups: Dict[GroupKey, AbstractSet[Fact]] = {
                combo: frozenset().union(*sets)
                for combo, sets in member_sets.items()
            }
            results = {
                combo: function.combine(values)
                for combo, values in partials.items()
            }
            verdict = self._verdict(grouping, is_distributive(function))
        materialized = MaterializedAggregate(
            grouping=dict(grouping),
            function_name=function.name,
            results=results,
            groups=groups,
            summarizability=verdict,
            versions=stamp,
            via="rollup",
            source_grouping=dict(stored.grouping),
            source_size=len(stored.results),
        )
        self._store[self._key(grouping, function)] = materialized
        return materialized

    def _translators(self, stored_grouping: Dict[str, str],
                     target_grouping: Dict[str, str]):
        """Per target dimension (sorted order): ``(source position,
        table, name, target category)`` — the source-combo position of
        the dimension's value plus a value → target-ancestor table
        (``None`` table for pass-through dimensions whose category is
        unchanged).  Dimensions the target drops entirely have no entry
        — their values collapse into one cell.  Table entries map to
        ``None`` where a member has no ancestor in the target category
        (non-covering hierarchies); such cells are dropped, matching
        the characterization maps the base path expands."""
        src_names = sorted(stored_grouping)
        position = {name: i for i, name in enumerate(src_names)}
        translators = []
        for name in sorted(target_grouping):
            target_cat = target_grouping[name]
            if stored_grouping[name] == target_cat:
                translators.append((position[name], None, name, target_cat))
                continue
            dimension = self._mo.dimension(name)
            table = {
                member: self._parent_in(name, member, target_cat)
                for member in
                dimension.category(stored_grouping[name]).members()
            }
            translators.append((position[name], table, name, target_cat))
        return translators

    def _combo_map(self, stored: MaterializedAggregate,
                   target_grouping: Dict[str, str]):
        """Yield ``(source combo, target combo)`` for every source cell
        that survives the rollup: each value maps to its unique ancestor
        in the target category; dimensions the target groups at ⊤ are
        dropped from the key (their values collapse into one cell)."""
        translators = self._translators(stored.grouping, target_grouping)
        for combo in stored.results:
            target_combo = []
            ok = True
            for pos, table, name, target_cat in translators:
                value = combo[pos]
                if table is not None:
                    parent = table.get(value, _MISSING)
                    if parent is _MISSING:
                        parent = table[value] = self._parent_in(
                            name, value, target_cat)
                    if parent is None:
                        ok = False
                        break
                    value = parent
                target_combo.append(value)
            if ok:
                yield combo, tuple(target_combo)

    def _expand(self, names, maps):
        """All value combinations with their intersected fact sets."""

        def rec(i: int, prefix: GroupKey, facts: Optional[Set[Fact]]):
            if i == len(names):
                yield prefix, facts if facts is not None else set()
                return
            for value, value_facts in maps[names[i]].items():
                joined = (set(value_facts) if facts is None
                          else facts & value_facts)
                if not joined:
                    continue
                yield from rec(i + 1, prefix + (value,), joined)

        yield from rec(0, (), None)

    def get(self, function: AggregationFunction,
            grouping: Dict[str, str]) -> Optional[MaterializedAggregate]:
        """A previously materialized aggregate, if any — only while its
        version stamp still matches the MO (a mutation since
        materialization evicts the entry instead of serving stale
        results)."""
        key = self._key(grouping, function)
        stored = self._store.get(key)
        if stored is None:
            return None
        if not self._is_fresh(stored):
            del self._store[key]
            _STALE_EVICTED.inc()
            return None
        return stored

    def entries(self):
        """Iterate ``(grouping dict, function name, materialized)`` for
        every stored aggregate that is still fresh; stale entries are
        evicted, not yielded."""
        stamp = self._stamp()
        stale = [key for key, stored in self._store.items()
                 if stored.versions != stamp]
        for key in stale:
            del self._store[key]
            _STALE_EVICTED.inc()
        for (grouping_key, function_name), stored in list(self._store.items()):
            yield dict(grouping_key), function_name, stored

    def can_roll_up(
        self,
        stored: MaterializedAggregate,
        function: AggregationFunction,
        target_grouping: Dict[str, str],
    ) -> bool:
        """Whether ``stored`` may be combined into the coarser
        ``target_grouping``: the stored aggregate must still be fresh,
        the function distributive, the target coarser in every
        dimension — a dimension absent from the target counts as rolled
        all the way to ⊤ — and every dimension whose level changes must
        pass the exact per-dimension summarizability check
        (:meth:`_stored_level_covers`).

        The check is per *changed* dimension on purpose: a grouping's
        schema-level verdict can fail because of a dimension that the
        rollup passes through unchanged (e.g. a many-to-many diagnosis
        level held fixed while residence coarsens) — pass-through
        dimensions filter both sides identically, so they cannot break
        byte-identity."""
        if not self._is_fresh(stored):
            return False
        if not is_distributive(function):
            return False
        if not target_grouping:
            # the apex cell is the whole fact set; the base path builds
            # it directly without expanding any map — never roll into it
            return False
        if set(target_grouping) - set(stored.grouping):
            return False
        for name, target_cat in target_grouping.items():
            dtype = self._mo.dimension(name).dtype
            if not dtype.leq(stored.grouping[name], target_cat):
                return False
        if not self._stored_level_covers(stored.grouping, target_grouping):
            _COVERAGE_REFUSED.inc()
            return False
        return True

    def _stored_level_covers(self, stored_grouping: Dict[str, str],
                             target_grouping: Dict[str, str]) -> bool:
        """The summarizability condition the paper leaves implicit: the
        fact characterizations at the *stored* level must be many-to-one
        onto the facts visible at the target level — every fact
        characterized at the target category characterized by exactly
        one stored-category value.

        Without it, combining stored results miscounts under mixed
        granularity: a fact recorded only at a coarse value (an
        imprecise fact) appears in the direct target-level grouping but
        in no stored fine-level group, so the combined result silently
        loses it; a fact under two stored siblings would conversely be
        counted twice.  The per-pair verdicts come from the rollup
        index's version-keyed :meth:`~RollupIndex.covers` cache, so
        repeated checks (one per lattice edge considered) do not
        re-scan the data.  A dimension the target drops entirely is
        checked against ⊤ — the fact must sit in exactly one stored
        cell of that dimension to collapse into the target cell once.
        """
        index = self._index
        for name, stored_cat in stored_grouping.items():
            dtype = self._mo.dimension(name).dtype
            target_cat = target_grouping.get(name, dtype.top_name)
            if not index.covers(name, stored_cat, target_cat):
                return False
        return True

    def roll_up(
        self,
        function: AggregationFunction,
        source_grouping: Dict[str, str],
        target_grouping: Dict[str, str],
    ) -> Dict[GroupKey, object]:
        """Answer a coarser aggregate by combining a stored finer one.

        Raises :class:`AlgebraError` when reuse is unsafe (the paper's
        "we have to pre-compute the total results ... while other
        aggregates must be computed from the base data").
        """
        return self.rolled_up(function, source_grouping,
                              target_grouping)[0]

    def rolled_up(
        self,
        function: AggregationFunction,
        source_grouping: Dict[str, str],
        target_grouping: Dict[str, str],
    ) -> Tuple[Dict[GroupKey, object], Dict[GroupKey, AbstractSet[Fact]]]:
        """:meth:`roll_up`, but also returning each target cell's member
        set (the union of its source cells') — callers that present the
        combined aggregate the way α would need the member sets to merge
        value combinations selecting the same facts."""
        stored = self.get(function, source_grouping)
        if stored is None:
            raise AlgebraError(
                f"no materialized aggregate at {source_grouping!r}"
            )
        if not self.can_roll_up(stored, function, target_grouping):
            _REFUSE.inc()
            reason = stored.summarizability.explain()
            if stored.summarizability.summarizable:
                reason = ("stored-level fact characterizations are not "
                          "many-to-one onto the target level (mixed "
                          "granularity or many-to-many), or the target "
                          "level is itself not summarizable")
            raise AlgebraError(
                f"cannot combine {source_grouping!r} into "
                f"{target_grouping!r}: {reason}"
            )
        _REUSE.inc()
        with trace.span("preagg.roll_up",
                        source=tuple(sorted(source_grouping.items())),
                        target=tuple(sorted(target_grouping.items()))):
            partials: Dict[GroupKey, list] = {}
            member_sets: Dict[GroupKey, List[AbstractSet[Fact]]] = {}
            for combo, target_combo in self._combo_map(stored,
                                                       target_grouping):
                partials.setdefault(target_combo, []).append(
                    stored.results[combo])
                member_sets.setdefault(target_combo, []).append(
                    stored.groups[combo])
            return (
                {
                    combo: function.combine(values)
                    for combo, values in partials.items()
                },
                {
                    combo: frozenset().union(*sets)
                    for combo, sets in member_sets.items()
                },
            )

    def _parent_in(self, dimension_name: str, value: DimensionValue,
                   category_name: str) -> Optional[DimensionValue]:
        dimension = self._mo.dimension(dimension_name)
        if dimension.category_name_of(value) == category_name:
            return value
        category = dimension.category(category_name)
        for ancestor in dimension.ancestors(value, reflexive=False):
            if ancestor in category:
                return ancestor
        return None

    def compute_from_base(
        self,
        function: AggregationFunction,
        grouping: Dict[str, str],
    ) -> Dict[GroupKey, object]:
        """The fallback: evaluate directly against the base data (used
        when reuse is refused; the benchmarks compare its cost with
        :meth:`roll_up`).  Always takes the base path — this method is
        the oracle the shared-scan equivalence tests compare against."""
        return self.materialize(function, grouping, shared_scan=False).results
