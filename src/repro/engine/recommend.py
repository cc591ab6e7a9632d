"""Materialization advisor (paper §3.4 + §5, combined).

"Without summarizability ... we have to pre-compute the total results
for all the aggregations that we need fast answers to, while other
aggregates must be computed from the base data."  Given an MO and the
groupings a workload is expected to ask for, the advisor turns that
sentence into a plan:

* groupings whose Lenz-Shoshani condition fails are **mandatory**
  materializations (nothing finer can serve them);
* for the summarizable rest, a greedy pass picks up to ``budget``
  *covering* materializations, preferring finer groupings that can
  serve many requested ones by safe combination — the combinations the
  store itself accepts (:meth:`PreAggregateStore.can_roll_up`).

The output is an ordered list of
:class:`MaterializationRecommendation`; feeding it to a
:class:`~repro.engine.preagg.PreAggregateStore` readies the store for
the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.functions import (AggregationFunction, SetCount,
                                     is_distributive)
from repro.core.mo import MultidimensionalObject
from repro.core.properties import check_summarizability
from repro.engine.preagg import PreAggregateStore

__all__ = ["MaterializationRecommendation", "recommend_materializations",
           "apply_recommendations"]

Grouping = Dict[str, str]


@dataclass(frozen=True)
class MaterializationRecommendation:
    """One aggregate to materialize, with the groupings it will serve
    and why it was chosen."""

    grouping: Tuple[Tuple[str, str], ...]
    serves: Tuple[Tuple[Tuple[str, str], ...], ...]
    reason: str

    def grouping_dict(self) -> Grouping:
        """The grouping as a dict (the store's input shape)."""
        return dict(self.grouping)


def _key(grouping: Grouping) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(grouping.items()))


def _covers(mo: MultidimensionalObject, finer: Grouping,
            coarser: Grouping) -> bool:
    """The store's roll-up rule per dimension: ``coarser`` is at or
    above ``finer`` in the schema, and on the instance every fact
    visible at either level sits under exactly one finer value
    (:meth:`~repro.engine.rollup_index.RollupIndex.covers`)."""
    if set(finer) != set(coarser):
        return False
    index = mo.rollup_index()
    return all(
        mo.dimension(name).dtype.leq(finer[name], coarser[name])
        and index.covers(name, finer[name], coarser[name])
        for name in finer
    )


def recommend_materializations(
    mo: MultidimensionalObject,
    groupings: Sequence[Grouping],
    function: Optional[AggregationFunction] = None,
    budget: int = 3,
) -> List[MaterializationRecommendation]:
    """Plan which of the requested groupings to materialize.

    ``budget`` bounds the *optional* (covering) materializations; the
    mandatory ones — non-summarizable groupings, which no finer result
    can serve — are always included and do not consume budget.
    """
    function = function or SetCount()
    requested = [dict(g) for g in groupings]
    verdicts = {
        _key(g): check_summarizability(mo, g, is_distributive(function))
        for g in requested
    }
    recommendations: List[MaterializationRecommendation] = []
    mandatory = [
        g for g in requested if not verdicts[_key(g)].summarizable
    ]
    for g in mandatory:
        recommendations.append(MaterializationRecommendation(
            grouping=_key(g),
            serves=(_key(g),),
            reason="mandatory: " + verdicts[_key(g)].explain(),
        ))
    remaining: List[Grouping] = [
        g for g in requested if verdicts[_key(g)].summarizable
    ]
    uncovered: Set = {_key(g) for g in remaining}
    # candidates: the summarizable requested groupings themselves; a
    # finer one can serve every coarser summarizable one it covers
    for _ in range(budget):
        if not uncovered:
            break
        best: Optional[Grouping] = None
        best_served: Set = set()
        for candidate in remaining:
            served = {
                _key(g) for g in remaining
                if _key(g) in uncovered and _covers(mo, candidate, g)
            }
            if len(served) > len(best_served):
                best, best_served = candidate, served
        if best is None or not best_served:
            break
        recommendations.append(MaterializationRecommendation(
            grouping=_key(best),
            serves=tuple(sorted(best_served)),
            reason=(f"covers {len(best_served)} requested grouping(s) by "
                    f"safe combination"),
        ))
        uncovered -= best_served
    for key in sorted(uncovered):
        recommendations.append(MaterializationRecommendation(
            grouping=key,
            serves=(key,),
            reason="requested but out of budget: answer from base data",
        ))
    return recommendations


def apply_recommendations(
    store: PreAggregateStore,
    recommendations: Sequence[MaterializationRecommendation],
    function: Optional[AggregationFunction] = None,
) -> int:
    """Materialize every in-budget recommendation into the store;
    returns how many aggregates were materialized.  "Out of budget"
    entries are skipped (they are advice to scan base data)."""
    function = function or SetCount()
    materialized = 0
    for rec in recommendations:
        if rec.reason.startswith("requested but out of budget"):
            continue
        store.materialize(function, rec.grouping_dict())
        materialized += 1
    return materialized
