"""Cube materialization over the category lattice (paper §5 future
work; Gray et al.'s data cube generalized to the extended model).

The *cuboid lattice* of an MO is the product of its dimensions' category
lattices: one cuboid per choice of grouping category in each dimension,
ordered coarser-than.  :class:`CubeBuilder` enumerates and materializes
cuboids, and :func:`greedy_view_selection` picks a bounded set of
cuboids to materialize using the classic greedy benefit heuristic
(Harinarayan-Rajaraman-Ullman), with cuboid sizes measured as their
number of non-empty groups — summarizability decides which cuboids can
answer which queries, so non-summarizable edges contribute no benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.functions import (AggregationFunction, SetCount,
                                     is_distributive)
from repro.core.mo import MultidimensionalObject
from repro.engine.preagg import PreAggregateStore
from repro.obs import metrics, trace

__all__ = ["Cuboid", "CubeBuilder", "greedy_view_selection"]

_SIZED = metrics.counter("cube.cuboids_sized")
_MATERIALIZED = metrics.counter("cube.cuboids_materialized")
_ROLLUP_FROM_PARENT = metrics.counter("cube.rollup_from_parent")
_BASE_SCAN_FALLBACK = metrics.counter("cube.base_scan_fallback")
_PARENT_SIZE = metrics.histogram("cube.parent_size")

#: A cuboid id: the grouping category per dimension, in schema order.
CuboidKey = Tuple[str, ...]


@dataclass(frozen=True)
class Cuboid:
    """One cuboid of the lattice."""

    key: CuboidKey
    dimension_names: Tuple[str, ...]
    size: int  # number of non-empty groups
    summarizable: bool

    @property
    def grouping(self) -> Dict[str, str]:
        """The grouping mapping this cuboid represents."""
        return dict(zip(self.dimension_names, self.key))


class CubeBuilder:
    """Enumerates and materializes the cuboid lattice of an MO."""

    def __init__(self, mo: MultidimensionalObject,
                 dimensions: Optional[Sequence[str]] = None,
                 function: Optional[AggregationFunction] = None,
                 shared_scan: bool = True) -> None:
        self._mo = mo
        self._dims = tuple(dimensions or mo.dimension_names)
        self._function = function or SetCount()
        self._store = PreAggregateStore(mo)
        self._shared_scan = shared_scan
        self._cuboids: Dict[CuboidKey, Cuboid] = {}
        self._cuboids_stamp = self._versions()

    def _versions(self) -> Tuple[int, Tuple[Tuple[str, int, int], ...]]:
        """The MO mutation-counter state cuboid sizes and verdicts were
        computed from — fact-set version plus every dimension's (order,
        relation) versions."""
        mo = self._mo
        return (
            mo.facts_version,
            tuple(
                (name, mo.dimension(name).order.version,
                 mo.relation(name).version)
                for name in mo.dimension_names
            ),
        )

    def _check_cache(self) -> None:
        """Drop cached cuboids computed before the last MO mutation —
        sizes and summarizability verdicts are both version-sensitive."""
        stamp = self._versions()
        if stamp != self._cuboids_stamp:
            self._cuboids.clear()
            self._cuboids_stamp = stamp

    @property
    def store(self) -> PreAggregateStore:
        """The underlying pre-aggregate store."""
        return self._store

    def cuboid_keys(self) -> List[CuboidKey]:
        """All cuboid keys: the product of the category names of each
        dimension's lattice."""
        per_dim = [
            [ctype.name for ctype
             in self._mo.dimension(d).dtype.category_types()]
            for d in self._dims
        ]
        return [tuple(combo) for combo in product(*per_dim)]

    def _nontrivial(self, key: CuboidKey) -> Dict[str, str]:
        return {
            name: cat for name, cat in zip(self._dims, key)
            if cat != self._mo.dimension(name).dtype.top_name
        }

    def size_of(self, key: CuboidKey) -> int:
        """The cuboid's size — its number of non-empty groups — counted
        straight from the rollup index's characterization maps, without
        evaluating the aggregation function or storing results.

        This is the sizing fast path :func:`greedy_view_selection`
        scans the lattice with; :meth:`materialize` pays the full cost
        only for cuboids actually selected or queried.
        """
        self._check_cache()
        cached = self._cuboids.get(key)
        if cached is not None:
            return cached.size
        nontrivial = self._nontrivial(key)
        if not nontrivial:
            return 1  # the apex: one group holding every fact
        index = self._mo.rollup_index()
        # a fresh columnar layout (built by a materialization or an α
        # at this grouping) already knows the distinct-key count; peek
        # — never build — so sizing stays cheaper than materializing
        columnar = index.columnar().peek(
            {name: nontrivial[name] for name in sorted(nontrivial)})
        if columnar is not None:
            return len(columnar.rows_by_key())
        maps = [
            index.nonempty_fact_sets(name, cat)
            for name, cat in sorted(nontrivial.items())
        ]

        def count(i: int, facts) -> int:
            if i == len(maps):
                return 1
            total = 0
            for value_facts in maps[i]:
                joined = value_facts if facts is None else facts & value_facts
                if joined:
                    total += count(i + 1, joined)
            return total

        return count(0, None)

    def cuboid(self, key: CuboidKey) -> Cuboid:
        """The cuboid's size and summarizability verdict, computed via
        the sizing fast path (no full materialization) and cached until
        the next MO mutation."""
        self._check_cache()
        cached = self._cuboids.get(key)
        if cached is not None:
            return cached
        _SIZED.inc()
        with trace.span("cube.size", cuboid=key):
            verdict = self._store.summarizability(
                self._nontrivial(key), is_distributive(self._function))
            cuboid = Cuboid(
                key=key,
                dimension_names=self._dims,
                size=self.size_of(key),
                summarizable=verdict.summarizable,
            )
        self._cuboids[key] = cuboid
        return cuboid

    def materialize(self, key: CuboidKey) -> Cuboid:
        """Materialize one cuboid — results stored in the pre-aggregate
        store — and record its size and verdict.

        With shared scans enabled (the default) the store first tries
        to combine the cuboid from the smallest already-materialized
        strictly finer aggregate (``cube.rollup_from_parent``); only
        when no safe parent exists does it scan the base
        characterization maps (``cube.base_scan_fallback``)."""
        nontrivial = self._nontrivial(key)
        materialized = self._store.get(self._function, nontrivial)
        if materialized is None:
            with trace.span("cube.materialize", cuboid=key):
                materialized = self._store.materialize(
                    self._function, nontrivial,
                    shared_scan=self._shared_scan)
            _MATERIALIZED.inc()
            if materialized.via == "rollup":
                _ROLLUP_FROM_PARENT.inc()
                _PARENT_SIZE.observe(materialized.source_size)
            else:
                _BASE_SCAN_FALLBACK.inc()
        self._check_cache()
        cuboid = self._cuboids.get(key)
        if cuboid is None:
            # the materialized cells *are* the non-empty groups — record
            # the size straight from them instead of re-counting the
            # characterization maps
            verdict = self._store.summarizability(
                nontrivial, is_distributive(self._function))
            cuboid = Cuboid(
                key=key,
                dimension_names=self._dims,
                size=len(materialized.results) if nontrivial else 1,
                summarizable=verdict.summarizable,
            )
            self._cuboids[key] = cuboid
        return cuboid

    def _fineness(self, key: CuboidKey) -> int:
        """A topological rank: strictly finer cuboids rank strictly
        higher (each component counts the categories above it)."""
        rank = 0
        for name, cat in zip(self._dims, key):
            dtype = self._mo.dimension(name).dtype
            rank += sum(
                1 for ctype in dtype.category_types()
                if dtype.leq(cat, ctype.name)
            )
        return rank

    def materialize_all(self) -> List[Cuboid]:
        """Materialize the full lattice (exponential in dimensions with
        deep hierarchies; the benchmarks bound it).

        Cuboids are visited finest-first so every coarser cuboid finds
        its parents already in the store — the whole lattice beyond the
        base cuboid then materializes by combining stored cells instead
        of re-scanning facts, wherever the rollup gate allows it.
        Returns cuboids in lattice (finest-first) order."""
        keys = sorted(self.cuboid_keys(),
                      key=self._fineness, reverse=True)
        return [self.materialize(key) for key in keys]

    def is_coarser_or_equal(self, fine: CuboidKey, coarse: CuboidKey) -> bool:
        """Lattice order: ``coarse`` is answerable from ``fine`` when
        every component is ≥ in the dimension's category order."""
        for dim, f_cat, c_cat in zip(self._dims, fine, coarse):
            if not self._mo.dimension(dim).dtype.leq(f_cat, c_cat):
                return False
        return True

    def answerable_from(self, fine: CuboidKey) -> Set[CuboidKey]:
        """The cuboids answerable from ``fine`` by safe combination:
        coarser-or-equal cuboids, provided the fine cuboid's grouping is
        summarizable (otherwise only the cuboid itself)."""
        fine_cuboid = self.cuboid(fine)
        if not (fine_cuboid.summarizable and is_distributive(self._function)):
            return {fine}
        return {
            key for key in self.cuboid_keys()
            if self.is_coarser_or_equal(fine, key)
        }


def greedy_view_selection(
    builder: CubeBuilder,
    budget: int,
) -> List[Cuboid]:
    """Pick up to ``budget`` cuboids to materialize, greedily maximizing
    the benefit of answering every cuboid from the cheapest selected
    ancestor (query cost = size of the cuboid it is answered from; the
    base cuboid — the finest key — is always available).

    Returns the selected cuboids in selection order.  The scan sizes
    candidate cuboids through :meth:`CubeBuilder.cuboid` (rollup-index
    counting); only the selected cuboids are fully materialized.
    """
    with trace.span("cube.greedy_view_selection", budget=budget):
        return _greedy_view_selection(builder, budget)


def _greedy_view_selection(
    builder: CubeBuilder,
    budget: int,
) -> List[Cuboid]:
    keys = builder.cuboid_keys()
    base_key = min(
        keys,
        key=lambda k: sum(
            1 for other in keys if builder.is_coarser_or_equal(k, other)
        ) * -1,
    )
    base = builder.cuboid(base_key)
    cost: Dict[CuboidKey, int] = {key: base.size for key in keys}
    selected: List[Cuboid] = []
    candidates = [k for k in keys if k != base_key]
    for _ in range(budget):
        best_key = None
        best_benefit = 0
        for key in candidates:
            cuboid = builder.cuboid(key)
            benefit = 0
            for target in builder.answerable_from(key):
                saved = cost[target] - cuboid.size
                if saved > 0:
                    benefit += saved
            if benefit > best_benefit:
                best_benefit = benefit
                best_key = key
        if best_key is None:
            break
        chosen = builder.materialize(best_key)
        selected.append(chosen)
        for target in builder.answerable_from(best_key):
            cost[target] = min(cost[target], chosen.size)
        candidates.remove(best_key)
    return selected
