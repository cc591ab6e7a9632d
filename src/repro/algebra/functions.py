"""The family of aggregation functions (paper §4.1).

Following Klug, the paper assumes a family of aggregation functions
``g: 2^F → D_{n+1}`` that take some subset of the n dimensions as
arguments — e.g. ``SUM_i`` sums the i'th dimension — with ``Args(g)``
returning the argument dimensions.  The function "looks up the required
data for the facts in the relevant fact-dimension relations".

Each function here carries:

* ``args`` — the argument dimension names (the paper's ``Args(g)``);
* ``distributive`` — whether the function declares itself
  distributive, one of the three Lenz-Shoshani summarizability
  conditions (readers take :func:`is_distributive`, which the analyzer
  can refute);
* ``required_function`` — which SQL function class it belongs to, so the
  aggregation-type mechanism can check ``g ∈ min_{j∈Args(g)}
  (Aggtype(⊥_{D_j}))``;
* ``combine`` — for distributive functions, how partial results merge
  (used by the pre-aggregation engine; e.g. COUNT partials combine by
  summing).

Measures are read from the fact-dimension relations: the numeric value
of a fact in a dimension is the surrogate of a ⊥-category value the fact
is directly related to (the model treats measures as dimension values —
its symmetric treatment of dimensions and measures).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.aggtypes import AggregationType, SQLFunction, min_aggtype
from repro.core.errors import AggregationTypeError, AlgebraError
from repro.core.mo import MultidimensionalObject
from repro.core.values import Fact

__all__ = [
    "AggregationFunction",
    "SetCount",
    "CountDim",
    "Sum",
    "Avg",
    "Min",
    "Max",
    "Median",
    "SumProduct",
    "measures_of",
    "has_batch_kernel",
    "is_distributive",
]


def measures_of(mo: MultidimensionalObject, dimension_name: str,
                fact: Fact) -> List[float]:
    """The numeric measures of ``fact`` in the named dimension.

    Every directly related value whose surrogate is numeric contributes;
    the ⊤ value (the "unknown" marker) contributes nothing.  A fact may
    contribute several numbers in a many-to-many dimension.
    """
    relation = mo.relation(dimension_name)
    out: List[float] = []
    for value in relation.values_of(fact):
        if value.is_top:
            continue
        sid = value.sid
        if isinstance(sid, bool) or not isinstance(sid, (int, float)):
            raise AlgebraError(
                f"value {value!r} in dimension {dimension_name!r} has a "
                f"non-numeric surrogate; cannot use it as a measure"
            )
        out.append(float(sid))
    return out


class AggregationFunction:
    """Base class: an aggregation function ``g : 2^F → D_{n+1}``.

    Subclasses set :attr:`args`, :attr:`distributive`, and
    :attr:`required_function`, and implement :meth:`apply`.
    """

    #: the paper's ``Args(g)``: argument dimension names.
    args: Tuple[str, ...] = ()
    #: whether the function is distributive (summarizability condition).
    distributive: bool = True
    #: the SQL function class, checked against aggregation types.
    required_function: SQLFunction = SQLFunction.COUNT

    @property
    def name(self) -> str:
        """Display name, e.g. ``SUM(Age)`` or ``set-count``."""
        base = type(self).__name__
        return f"{base}({', '.join(self.args)})" if self.args else base

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> object:
        """Evaluate the function on a group of facts of ``mo``."""
        raise NotImplementedError

    def batch_apply(self, keys: Sequence[int],
                    measures: Mapping[str, object]
                    ) -> Optional[Dict[int, object]]:
        """Batch kernel: evaluate the function for *every* group at once.

        ``keys`` is a row-aligned sequence of composed group keys (one
        row per fact × characterization, in fact-id order) and
        ``measures`` maps each dimension in :attr:`args` to a
        row-aligned measure summary with ``counts``, ``sums``, ``mins``
        and ``maxs`` sequences (one entry per row — the fact's measure
        count and its measure sum/min/max in that dimension; see
        :class:`repro.engine.columnar.MeasureRows`).

        Returns a dict with exactly one entry per distinct key.  The
        base implementation returns ``None``, meaning "no kernel": the
        caller must fall back to per-group :meth:`apply`.  Subclasses
        that override this MUST also override :meth:`apply` with
        matching semantics (the object path is the byte-identity
        oracle); ``tools/lint_invariants.py`` enforces the pairing.
        """
        return None

    def combine(self, partials: Sequence[object]) -> object:
        """Merge partial results of disjoint sub-groups (distributive
        functions only)."""
        raise AlgebraError(
            f"{self.name} is not distributive; partial results cannot be "
            f"combined"
        )

    def check_applicable(self, mo: MultidimensionalObject,
                         strict: bool = True) -> bool:
        """The paper's applicability condition
        ``g ∈ min_{j ∈ Args(g)}(Aggtype(⊥_{D_j}))``.

        Returns True when applicable.  When not: raises
        :class:`AggregationTypeError` in strict mode (the "prevent"
        option of §3.1), returns False otherwise (caller may warn — the
        "warn" option).
        """
        bottom_types = [
            mo.dimension(d).dtype.bottom.aggtype for d in self.args
        ]
        floor = min_aggtype(bottom_types)
        if floor.permits(self.required_function):
            return True
        if strict:
            raise AggregationTypeError(
                f"{self.name} requires {self.required_function.value}, but the "
                f"argument data has aggregation type {floor.symbol} which only "
                f"permits {sorted(f.value for f in floor.allowed_functions)}"
            )
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def has_batch_kernel(function: AggregationFunction) -> bool:
    """Whether ``function`` carries a real batch kernel (overrides
    :meth:`AggregationFunction.batch_apply`).  The columnar layer and
    the plan analyzer use this to predict kernel vs object-path
    evaluation without running anything."""
    return type(function).batch_apply is not AggregationFunction.batch_apply


def is_distributive(function: AggregationFunction) -> bool:
    """The one distributivity verdict the summarizability readers (α's
    aggtype rule, the pre-aggregate store, the cube, the recommender,
    the schema analyzer) take: the ``distributive`` declaration, unless
    :func:`~repro.analyze.shardability.classify_function` refutes it (a
    ``combine`` that disagrees with ``apply`` on synthesized
    partitions, MD076).  Cached per function type and args."""
    # the analyzer imports this module: import it on first use
    from repro.analyze.shardability import classify_function
    return function.distributive and \
        classify_function(function).merge_check is not False


class SetCount(AggregationFunction):
    """The paper's *set-count*: the number of members in a set of facts
    (Example 12).  Takes no argument dimension, so it is applicable to
    any MO — counting is always meaningful."""

    args = ()
    distributive = True
    required_function = SQLFunction.COUNT

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> int:
        return sum(1 for _ in group)

    def batch_apply(self, keys: Sequence[int],
                    measures: Mapping[str, object]) -> Dict[int, object]:
        """Group sizes in one C-speed pass (``Counter`` over the key
        column).  Exact: counting is order-insensitive."""
        return dict(Counter(keys))

    def combine(self, partials: Sequence[object]) -> int:
        """Counts of *disjoint* groups combine by summation."""
        return sum(int(p) for p in partials)  # type: ignore[arg-type]


class CountDim(AggregationFunction):
    """``COUNT_i``: the number of measures of the group in dimension i
    (counts fact-value pairs, so a many-to-many fact counts once per
    related value)."""

    def __init__(self, dimension_name: str) -> None:
        self.args = (dimension_name,)

    distributive = True
    required_function = SQLFunction.COUNT

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> int:
        return sum(len(measures_of(mo, self.args[0], f)) for f in group)

    def batch_apply(self, keys: Sequence[int],
                    measures: Mapping[str, object]) -> Dict[int, object]:
        """Sums per-fact measure counts per key.  Exact: integer sums
        are order-insensitive."""
        rows = measures[self.args[0]]
        out: Dict[int, object] = {}
        get = out.get
        for key, count in zip(keys, rows.counts):
            out[key] = get(key, 0) + count
        return out

    def combine(self, partials: Sequence[object]) -> int:
        return sum(int(p) for p in partials)  # type: ignore[arg-type]


class Sum(AggregationFunction):
    """``SUM_i``: sums the i'th dimension's measures over the group."""

    def __init__(self, dimension_name: str) -> None:
        self.args = (dimension_name,)

    distributive = True
    required_function = SQLFunction.SUM

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> float:
        return sum(
            m for f in group for m in measures_of(mo, self.args[0], f)
        )

    def batch_apply(self, keys: Sequence[int],
                    measures: Mapping[str, object]) -> Dict[int, object]:
        """Sums per-fact measure subtotals per key.  The kernel adds in
        fact-id order while :meth:`apply` adds in set-iteration order —
        identical for integral measures, potentially an ULP apart for
        arbitrary floats (see docs/PERFORMANCE.md)."""
        rows = measures[self.args[0]]
        out: Dict[int, object] = {}
        get = out.get
        for key, subtotal in zip(keys, rows.sums):
            out[key] = get(key, 0.0) + subtotal
        return out

    def combine(self, partials: Sequence[object]) -> float:
        return sum(float(p) for p in partials)  # type: ignore[arg-type]


class Avg(AggregationFunction):
    """``AVG_i``: the mean of the i'th dimension's measures.

    Not distributive — averages of averages are wrong — so results of
    AVG can never seed further summarization (the propagation rule will
    mark them ``c``).
    """

    def __init__(self, dimension_name: str) -> None:
        self.args = (dimension_name,)

    distributive = False
    required_function = SQLFunction.AVG

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> float:
        measures = [
            m for f in group for m in measures_of(mo, self.args[0], f)
        ]
        if not measures:
            return math.nan
        return sum(measures) / len(measures)

    def batch_apply(self, keys: Sequence[int],
                    measures: Mapping[str, object]) -> Dict[int, object]:
        """Mean via per-key (sum, count) accumulators; ``nan`` for keys
        whose facts carry no measures, matching :meth:`apply`.  AVG
        stays non-distributive *across* materializations — the kernel
        only fuses the single full scan it is given."""
        rows = measures[self.args[0]]
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        sget, cget = sums.get, counts.get
        for key, count, subtotal in zip(keys, rows.counts, rows.sums):
            counts[key] = cget(key, 0) + count
            sums[key] = sget(key, 0.0) + subtotal
        return {
            key: (sums[key] / count if count else math.nan)
            for key, count in counts.items()
        }


class Min(AggregationFunction):
    """``MIN_i``: the minimum of the i'th dimension's measures."""

    def __init__(self, dimension_name: str) -> None:
        self.args = (dimension_name,)

    distributive = True
    required_function = SQLFunction.MIN

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> float:
        measures = [
            m for f in group for m in measures_of(mo, self.args[0], f)
        ]
        if not measures:
            return math.nan
        return min(measures)

    def batch_apply(self, keys: Sequence[int],
                    measures: Mapping[str, object]) -> Dict[int, object]:
        """Per-key minimum of per-fact minima; ``nan`` for keys with no
        measures (a ``None`` placeholder until a measure shows up).
        Exact: min is order-insensitive."""
        rows = measures[self.args[0]]
        mins: Dict[int, Optional[float]] = {}
        get = mins.get
        for key, count, low in zip(keys, rows.counts, rows.mins):
            if count:
                current = get(key)
                if current is None or low < current:
                    mins[key] = low
            else:
                mins.setdefault(key, None)
        return {key: (math.nan if value is None else value)
                for key, value in mins.items()}

    def combine(self, partials: Sequence[object]) -> float:
        return min(float(p) for p in partials)  # type: ignore[arg-type]


class SumProduct(AggregationFunction):
    """``SUMPRODUCT_ij``: sums, over the group, the product of a fact's
    measures in two dimensions — the paper's two-argument function
    family (``SUM_ij`` "sums the i'th and j'th dimensions"), and the
    natural revenue measure of the introduction's retail example
    (amount × price per purchase).

    Distributive (per-fact products sum across disjoint groups).  A
    fact with several measures in either dimension contributes the
    product of the sums of its measures, the bridge-table convention.
    """

    def __init__(self, first_dimension: str, second_dimension: str) -> None:
        self.args = (first_dimension, second_dimension)

    distributive = True
    required_function = SQLFunction.SUM

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> float:
        total = 0.0
        for fact in group:
            a = sum(measures_of(mo, self.args[0], fact))
            b = sum(measures_of(mo, self.args[1], fact))
            total += a * b
        return total

    def combine(self, partials: Sequence[object]) -> float:
        return sum(float(p) for p in partials)  # type: ignore[arg-type]


class Median(AggregationFunction):
    """``MEDIAN_i``: the median of the i'th dimension's measures.

    A *holistic* function: like AVG it is not distributive, so medians
    can never be combined from partials and median results always get
    aggregation type ``c``.  Included to exercise the propagation rule
    beyond the SQL five; its applicability class is that of AVG
    (ordinal data suffices).
    """

    def __init__(self, dimension_name: str) -> None:
        self.args = (dimension_name,)

    distributive = False
    required_function = SQLFunction.AVG

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> float:
        measures = sorted(
            m for f in group for m in measures_of(mo, self.args[0], f)
        )
        if not measures:
            return math.nan
        mid = len(measures) // 2
        if len(measures) % 2:
            return measures[mid]
        return (measures[mid - 1] + measures[mid]) / 2.0


class Max(AggregationFunction):
    """``MAX_i``: the maximum of the i'th dimension's measures."""

    def __init__(self, dimension_name: str) -> None:
        self.args = (dimension_name,)

    distributive = True
    required_function = SQLFunction.MAX

    def apply(self, group: Iterable[Fact],
              mo: MultidimensionalObject) -> float:
        measures = [
            m for f in group for m in measures_of(mo, self.args[0], f)
        ]
        if not measures:
            return math.nan
        return max(measures)

    def batch_apply(self, keys: Sequence[int],
                    measures: Mapping[str, object]) -> Dict[int, object]:
        """Per-key maximum of per-fact maxima; ``nan`` for keys with no
        measures.  Exact: max is order-insensitive."""
        rows = measures[self.args[0]]
        maxs: Dict[int, Optional[float]] = {}
        get = maxs.get
        for key, count, high in zip(keys, rows.counts, rows.maxs):
            if count:
                current = get(key)
                if current is None or high > current:
                    maxs[key] = high
            else:
                maxs.setdefault(key, None)
        return {key: (math.nan if value is None else value)
                for key, value in maxs.items()}

    def combine(self, partials: Sequence[object]) -> float:
        return max(float(p) for p in partials)  # type: ignore[arg-type]
