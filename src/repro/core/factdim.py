"""Fact-dimension relations (paper §3.1-§3.3).

A fact-dimension relation ``R = {(f, e)}`` links facts to dimension
values — at *any* level of the dimension, which is how the model records
data of different granularity (a patient can be linked to the imprecise
"Diabetes" family as well as to a precise low-level diagnosis), and with
arbitrarily many pairs per fact, which is how it captures many-to-many
relationships between facts and dimensions.

Each pair may carry a valid-time chronon set (``(f, e) ∈_Tv R``, §3.2)
and a probability (``(f, e) ∈_p R``, §3.3).  The derived characterization
``f ⇝ e`` — "fact f is characterized by value e" — holds when some base
pair ``(f, e1)`` exists with ``e1 ≤ e``; its temporal/probabilistic
variants compose the pair's annotation with the order's containment
profile.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.changelog import ChangeLog
from repro.core.dimension import Dimension
from repro.core.errors import InstanceError, UncertaintyError
from repro.core.order import Annotation, piecewise_noisy_or
from repro.core.values import DimensionValue, Fact
from repro.temporal.chronon import Chronon
from repro.temporal.timeset import ALWAYS, EMPTY, TimeSet

__all__ = ["FactDimensionRelation"]

Pair = Tuple[Fact, DimensionValue]


class FactDimensionRelation:
    """The set of ``(fact, value)`` pairs of one dimension of an MO,
    with optional time and probability annotations per pair."""

    def __init__(self, dimension_name: str) -> None:
        self._dimension_name = dimension_name
        self._entries: Dict[Pair, List[Annotation]] = {}
        self._by_fact: Dict[Fact, Set[DimensionValue]] = {}
        self._by_value: Dict[DimensionValue, Set[Fact]] = {}
        self._version = 0
        self._log = ChangeLog()

    @property
    def dimension_name(self) -> str:
        """Name of the dimension this relation characterizes facts in."""
        return self._dimension_name

    @property
    def version(self) -> int:
        """A mutation counter: bumped on every effective :meth:`add` /
        :meth:`remove_fact`.  The rollup index compares it to the version
        captured at build time and replays the :attr:`change_log` span
        between the two onto its closures.

        Derived relations (:meth:`union`, :meth:`restricted_to_facts`,
        :meth:`copy`) are fresh objects whose counters start over — they
        never inherit this relation's counter, so an index keyed on
        ``(relation identity, version)`` can never confuse a copy with
        its source and observe a stale closure through it.
        """
        return self._version

    @property
    def change_log(self) -> ChangeLog:
        """The bounded per-bump mutation log: ``("add", fact, value)``
        for a pair addition and ``("remove", fact, values)`` for a
        :meth:`remove_fact`, with every value the fact lost — the rollup
        index and the columnar layouts replay both as deltas."""
        return self._log

    # -- population -------------------------------------------------------

    def add(
        self,
        fact: Fact,
        value: DimensionValue,
        time: TimeSet = ALWAYS,
        prob: float = 1.0,
    ) -> None:
        """Record ``(fact, value) ∈_Tv,p R``.

        Annotations with equal probability merge their chronon sets so
        the relation stays coalesced (no value-equivalent pairs).
        """
        if not 0.0 <= prob <= 1.0:
            raise UncertaintyError(f"probability {prob} outside [0, 1]")
        if time.is_empty() or prob == 0.0:
            return
        key = (fact, value)
        annotations = self._entries.setdefault(key, [])
        for idx, (ts, p) in enumerate(annotations):
            if p == prob:
                annotations[idx] = (ts.union(time), p)
                break
        else:
            annotations.append((time, prob))
        self._by_fact.setdefault(fact, set()).add(value)
        self._by_value.setdefault(value, set()).add(fact)
        self._version += 1
        self._log.record(self._version, ("add", fact, value))

    def remove_fact(self, fact: Fact) -> None:
        """Drop every pair involving ``fact``."""
        removed = self._by_fact.pop(fact, set())
        for value in removed:
            self._entries.pop((fact, value), None)
            facts = self._by_value.get(value)
            if facts is not None:
                facts.discard(fact)
                if not facts:
                    del self._by_value[value]
        if removed:
            self._version += 1
            self._log.record(self._version, ("remove", fact, removed))

    # -- base-pair queries --------------------------------------------------

    def pairs(self) -> Iterator[Pair]:
        """Iterate all base pairs (untimed view)."""
        return iter(self._entries)

    def annotated_pairs(self) -> Iterator[Tuple[Fact, DimensionValue,
                                                TimeSet, float]]:
        """Iterate ``(fact, value, time, prob)`` for every annotation."""
        for (fact, value), annotations in self._entries.items():
            for time, prob in annotations:
                yield fact, value, time, prob

    def annotations(self, fact: Fact, value: DimensionValue) -> List[Annotation]:
        """The annotations of one pair (empty list if absent)."""
        return list(self._entries.get((fact, value), ()))

    def pair_time(self, fact: Fact, value: DimensionValue) -> TimeSet:
        """The chronon set during which ``(fact, value) ∈ R`` with any
        positive probability."""
        acc = EMPTY
        for time, _ in self._entries.get((fact, value), ()):
            acc = acc.union(time)
        return acc

    def contains(self, fact: Fact, value: DimensionValue,
                 at: Optional[Chronon] = None) -> bool:
        """Base-pair membership test (``(f, e) ∈ R``)."""
        annotations = self._entries.get((fact, value))
        if not annotations:
            return False
        if at is None:
            return True
        return any(at in time for time, _ in annotations)

    def facts(self) -> Set[Fact]:
        """All facts appearing in the relation."""
        return set(self._by_fact)

    def values_of(self, fact: Fact) -> Set[DimensionValue]:
        """The base values a fact is directly related to."""
        return set(self._by_fact.get(fact, ()))

    def facts_of(self, value: DimensionValue) -> Set[Fact]:
        """The facts directly related to a value."""
        return set(self._by_value.get(value, ()))

    def values(self) -> Set[DimensionValue]:
        """All values appearing in the relation."""
        return set(self._by_value)

    def __len__(self) -> int:
        return len(self._entries)

    # -- characterization (f ⇝ e) ------------------------------------------------

    def characterizes(
        self,
        fact: Fact,
        value: DimensionValue,
        dimension: Dimension,
        at: Optional[Chronon] = None,
    ) -> bool:
        """The paper's ``f ⇝ e``: some base pair ``(f, e1)`` exists with
        ``e1 ≤ e`` (at chronon ``at`` when given: ``f ⇝_t e``)."""
        for base in self._by_fact.get(fact, ()):
            if not dimension.leq(base, value, at=at):
                continue
            if at is None:
                return True
            if self.contains(fact, base, at=at):
                return True
        return False

    def characterization_time(self, fact: Fact, value: DimensionValue,
                              dimension: Dimension) -> TimeSet:
        """The chronon set during which ``f ⇝ e`` holds: union over base
        values of (pair time ∩ containment time)."""
        acc = EMPTY
        for base in self._by_fact.get(fact, ()):
            pair_time = self.pair_time(fact, base)
            if pair_time.is_empty():
                continue
            containment = dimension.containment_time(base, value)
            acc = acc.union(pair_time.intersection(containment))
        return acc

    def characterization_profile(
        self, fact: Fact, value: DimensionValue, dimension: Dimension
    ) -> List[Annotation]:
        """The piecewise ``(time, probability)`` profile of ``f ⇝ e``.

        Per base pair and per containment piece, probabilities multiply
        (pair certainty × containment certainty); parallel base pairs
        combine by noisy-or, mirroring the order's parallel-path rule.
        """
        contributions: List[Annotation] = []
        for base in self._by_fact.get(fact, ()):
            for pair_time, pair_prob in self._entries.get((fact, base), ()):
                for cont_time, cont_prob in dimension.containment_profile(
                        base, value):
                    joint = pair_time.intersection(cont_time)
                    prob = pair_prob * cont_prob
                    if not joint.is_empty() and prob > 0.0:
                        contributions.append((joint, prob))
        return piecewise_noisy_or(contributions)

    def characterization_probability(
        self,
        fact: Fact,
        value: DimensionValue,
        dimension: Dimension,
        at: Optional[Chronon] = None,
    ) -> float:
        """The probability of ``f ⇝ e`` (max over time when ``at`` is
        omitted)."""
        profile = self.characterization_profile(fact, value, dimension)
        if at is None:
            return max((p for _, p in profile), default=0.0)
        for time, p in profile:
            if at in time:
                return p
        return 0.0

    def facts_characterized_by(
        self,
        value: DimensionValue,
        dimension: Dimension,
        at: Optional[Chronon] = None,
    ) -> Set[Fact]:
        """All facts ``f`` with ``f ⇝ value`` — the workhorse of
        grouping.  Computed from the value's descendants so it does not
        scan unrelated facts.

        This is the *naive* evaluation: one descendant walk per call.
        Hot paths go through :class:`repro.engine.rollup_index.RollupIndex`
        instead, which precomputes the closure once per dimension; this
        method is kept as the fallback and as the oracle the index's
        equivalence tests compare against."""
        candidates: Set[Fact] = set()
        for desc in dimension.descendants(value, reflexive=True):
            candidates |= self._by_value.get(desc, set())
        if at is None:
            return candidates
        return {
            f for f in candidates
            if self.characterizes(f, value, dimension, at=at)
        }

    # -- copying / restriction -------------------------------------------------------

    def restricted_to_facts(self, facts: Set[Fact]) -> "FactDimensionRelation":
        """The relation restricted to the given fact set (selection and
        difference restrict this way)."""
        result = FactDimensionRelation(self._dimension_name)
        for (fact, value), annotations in self._entries.items():
            if fact in facts:
                for time, prob in annotations:
                    result.add(fact, value, time=time, prob=prob)
        return result

    def union(self, other: "FactDimensionRelation") -> "FactDimensionRelation":
        """Set union with the paper's temporal rule: chronon sets of
        pairs present in both operands are unioned."""
        result = FactDimensionRelation(self._dimension_name)
        for source in (self, other):
            for fact, value, time, prob in source.annotated_pairs():
                result.add(fact, value, time=time, prob=prob)
        return result

    def copy(self) -> "FactDimensionRelation":
        """An independent copy."""
        return self.union(FactDimensionRelation(self._dimension_name))

    def validate_against(self, facts: Set[Fact], dimension: Dimension) -> None:
        """Check the MO invariants that concern this relation: every pair's
        fact is in the fact set and its value is in some category of the
        dimension; every fact has at least one pair (no missing values).
        """
        related: Set[Fact] = set()
        for fact, value in self._entries:
            if fact not in facts:
                raise InstanceError(
                    f"relation {self._dimension_name!r} mentions unknown "
                    f"fact {fact!r}"
                )
            if value not in dimension:
                raise InstanceError(
                    f"relation {self._dimension_name!r} mentions value "
                    f"{value!r} outside dimension {dimension.name!r}"
                )
            related.add(fact)
        missing = facts - related
        if missing:
            raise InstanceError(
                f"facts {sorted(missing, key=repr)!r} have no value in "
                f"dimension {self._dimension_name!r}; the paper disallows "
                f"missing values — relate them to ⊤ instead"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FactDimensionRelation({self._dimension_name}, "
                f"{len(self._entries)} pairs)")
