"""The selection operator σ (paper §4.1).

``σ[p](M) = (S', F', D', R')`` with ``S' = S``, ``D' = D``,
``F' = {f ∈ F | ∃e_1 ∈ D_1, .., e_n ∈ D_n (p(e_1, .., e_n) ∧ f ⇝_1 e_1
∧ .. ∧ f ⇝_n e_n)}``, and each ``R'_i`` restricted to the surviving
facts.  The set of facts is restricted to those characterized by values
where p evaluates to true; dimensions and schema stay the same, and —
per §4.2 — selection does not change the time attached to the result.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Set

from repro.algebra.predicates import Predicate, SelectionContext
from repro.core.errors import SchemaError
from repro.core.mo import MultidimensionalObject
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.obs import metrics

__all__ = ["select", "select_schema"]

_PATH_SET = metrics.counter("selection.path.set")
_PATH_PER_FACT = metrics.counter("selection.path.per_fact")


def select_schema(schema: FactSchema, predicate: Predicate) -> FactSchema:
    """σ's schema-inference hook: the output schema of
    ``σ[predicate]`` over an input with ``schema`` (``S' = S``), raising
    the same :class:`SchemaError` the runtime operator would for a
    predicate constraining an unknown dimension.  Used by the static
    plan typechecker (:mod:`repro.analyze`) — no fact data involved."""
    for name in predicate.dims:
        if name not in schema:
            raise SchemaError(
                f"predicate constrains unknown dimension {name!r}"
            )
    return schema


def _candidate_values(mo: MultidimensionalObject, fact: Fact,
                      dimension_name: str) -> Set[DimensionValue]:
    """All values ``e`` with ``f ⇝ e`` in the dimension: the ancestors of
    the fact's base values (including the base values and ⊤)."""
    dimension = mo.dimension(dimension_name)
    relation = mo.relation(dimension_name)
    out: Set[DimensionValue] = set()
    for base in relation.values_of(fact):
        out |= dimension.ancestors(base, reflexive=True)
    return out


def _dice_values(
        predicate: Predicate) -> Optional[Dict[str, List[DimensionValue]]]:
    """The dice values per constrained dimension of a predicate built
    only from ``characterized_by`` and ``conjunction`` (nested
    conjunctions flatten), or ``None`` for any other predicate."""
    if predicate.kind == "characterized_by":
        name, value = predicate.payload
        return {name: [value]}
    if predicate.kind != "conjunction":
        return None
    dices: Dict[str, List[DimensionValue]] = {}
    for operand in predicate.payload:
        inner = _dice_values(operand)
        if inner is None:
            return None
        for name, values in inner.items():
            dices.setdefault(name, []).extend(values)
    return dices


def _diced_facts(mo: MultidimensionalObject,
                 dices: Dict[str, List[DimensionValue]]) -> Set[Fact]:
    """The set-at-a-time σ of a dice.  A characterizing value ``c``
    witnesses a dimension's dice values iff ``c ≤ v`` for each; then
    the base value below ``c`` is a witness too, so the fact qualifies
    iff a base value lies in every dice value's reflexive down-set.  A
    ⊤ dice value only needs the fact to have some value there."""
    surviving = mo.facts
    for name, values in dices.items():
        dimension = mo.dimension(name)
        relation = mo.relation(name)
        witnesses: Optional[Set[DimensionValue]] = None
        for value in values:
            if value == dimension.top_value:
                continue
            down = dimension.descendants(value, reflexive=True)
            witnesses = down if witnesses is None else witnesses & down
        if witnesses is None:
            surviving &= relation.facts()
            continue
        kept: Set[Fact] = set()
        for witness in witnesses:
            kept |= relation.facts_of(witness)
        surviving &= kept
    return surviving


def _per_fact_survivors(mo: MultidimensionalObject,
                        predicate: Predicate) -> Set[Fact]:
    """Keep each fact at its first characterizing tuple satisfying the
    predicate."""
    surviving: Set[Fact] = set()
    for fact in mo.facts:
        ctx = SelectionContext(mo=mo, fact=fact)
        candidate_sets: List[List[DimensionValue]] = []
        for name in predicate.dims:
            candidates = _candidate_values(mo, fact, name)
            candidate_sets.append(sorted(candidates, key=repr))
        if not predicate.dims:
            if predicate({}, ctx):
                surviving.add(fact)
            continue
        for combo in product(*candidate_sets):
            values: Dict[str, DimensionValue] = dict(zip(predicate.dims, combo))
            if predicate(values, ctx):
                surviving.add(fact)
                break
    return surviving


def select(mo: MultidimensionalObject,
           predicate: Predicate) -> MultidimensionalObject:
    """Apply ``σ[predicate]`` to ``mo``.

    The existential quantification over value tuples is evaluated per
    fact over the fact's *characterizing* values in each dimension the
    predicate constrains; unconstrained dimensions are witnessed by ⊤
    (every fact is characterized by ⊤, so they never exclude a fact).
    Dices (``characterized_by`` / ``conjunction`` predicates) evaluate
    the same quantifier set-at-a-time over the dimensions' down-sets.
    """
    select_schema(mo.schema, predicate)
    dices = _dice_values(predicate)
    if dices is None:
        _PATH_PER_FACT.inc()
        surviving = _per_fact_survivors(mo, predicate)
    else:
        _PATH_SET.inc()
        surviving = _diced_facts(mo, dices)
    relations = {
        name: mo.relation(name).restricted_to_facts(surviving)
        for name in mo.dimension_names
    }
    return MultidimensionalObject(
        schema=mo.schema,
        facts=surviving,
        dimensions={name: mo.dimension(name) for name in mo.dimension_names},
        relations=relations,
        kind=mo.kind,
    )
