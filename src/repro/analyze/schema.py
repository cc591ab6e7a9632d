"""Schema-level static analysis: intensional summarizability and
hierarchy-property drift.

The paper's §3.4 summarizability test (Lenz–Shoshani: distributive
function ∧ strict fact paths ∧ partitioning hierarchies) is extensional
— it scans the data.  This module adds the *intensional* layer: schema
authors declare strictness/partitioning on the dimension type
(:attr:`~repro.core.dimension.DimensionType.declared_strict` /
``declared_partitioning``), the analyzer derives a verdict from the
declarations alone, and — when an MO with data is at hand — checks the
declarations for *drift* against the extension, so the soundness
guarantee

    static SAFE  ⇒  ``check_summarizability(...)`` passes

is earned, not assumed: :func:`static_summarizability` only answers
``SAFE`` after confirming the declarations against the rollup index's
cached extensional facts (the same cached pieces the engine's own
verdicts come from), and answers ``UNKNOWN`` — never a guess — when it
cannot.
"""

from __future__ import annotations

import enum
from typing import Dict, Union

from repro.analyze.diagnostics import AnalysisReport
from repro.core.dimension import Dimension, DimensionType
from repro.core.mo import MultidimensionalObject
from repro.core.schema import FactSchema
from repro.algebra.functions import AggregationFunction, is_distributive
from repro.temporal.chronon import Chronon
from repro.temporal.timeset import EMPTY

__all__ = ["StaticVerdict", "intensional_summarizability",
           "grouping_summarizability", "static_summarizability",
           "analyze_schema", "analyze_timeslice", "recorded_valid_time"]


class StaticVerdict(enum.Enum):
    """What the analyzer can say about a grouping without fact data.

    ``SAFE`` is *sound*: the extensional check is guaranteed to pass.
    ``UNSAFE`` means the schema itself rules summarizability out (a
    non-distributive function, or a declared property violation).
    ``UNKNOWN`` means the declarations don't decide it — the engine
    must run the extensional check."""

    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"


def intensional_summarizability(
    schema: FactSchema,
    grouping: Dict[str, str],
    function: AggregationFunction,
) -> StaticVerdict:
    """The declarations-only verdict for aggregating ``function`` over
    ``grouping`` — no MO, no data, just the fact schema.

    A non-distributive function is ``UNSAFE`` outright (first
    Lenz–Shoshani condition).  A grouped dimension declared non-strict
    or non-partitioning is ``UNSAFE``.  All grouped dimensions declared
    strict *and* partitioning yields ``SAFE`` — sound **relative to the
    declarations**; :func:`static_summarizability` upgrades this to an
    absolute guarantee by confirming them against the extension.
    Anything undeclared is ``UNKNOWN``."""
    if not is_distributive(function):
        return StaticVerdict.UNSAFE
    verdict = StaticVerdict.SAFE
    for name in grouping:
        dtype = schema.dimension_type(name)
        if dtype.declared_strict is False or \
                dtype.declared_partitioning is False:
            return StaticVerdict.UNSAFE
        if dtype.declared_strict is None or \
                dtype.declared_partitioning is None:
            verdict = StaticVerdict.UNKNOWN
    return verdict


def grouping_summarizability(
    mo: MultidimensionalObject,
    grouping: Dict[str, str],
) -> StaticVerdict:
    """The hierarchy-only half of the summarizability verdict: strict
    fact paths and partitioning hierarchies for the grouped dimensions,
    independent of which function merges the partials.

    This is what the shardability analysis needs for ALGEBRAIC
    functions (e.g. AVG): ``is_distributive(function)`` is False — so
    :func:`static_summarizability` would answer ``UNSAFE`` outright —
    yet the *grouping* can still be safe to partition-and-merge once
    the function is decomposed into distributive accumulators.  Same
    soundness discipline: ``SAFE`` only after the declarations are
    confirmed against the extension through the rollup index."""
    verdict = StaticVerdict.SAFE
    for name in grouping:
        dtype = mo.schema.dimension_type(name)
        if dtype.declared_strict is False or \
                dtype.declared_partitioning is False:
            return StaticVerdict.UNSAFE
        if dtype.declared_strict is None or \
                dtype.declared_partitioning is None:
            verdict = StaticVerdict.UNKNOWN
    if verdict is not StaticVerdict.SAFE:
        return verdict
    index = mo.rollup_index()
    if index.summarizability(grouping, True).summarizable:
        return StaticVerdict.SAFE
    return StaticVerdict.UNKNOWN


def static_summarizability(
    mo: MultidimensionalObject,
    grouping: Dict[str, str],
    function: AggregationFunction,
) -> StaticVerdict:
    """The sound static verdict for an MO: the intensional verdict,
    with ``SAFE`` *confirmed* against the extension through the rollup
    index's version-cached checks (so repeated calls are cheap and the
    guarantee "``SAFE`` ⇒ the extensional
    :func:`~repro.core.properties.check_summarizability` passes"
    holds even for drifted declarations — drift demotes the
    answer to ``UNKNOWN`` and is reported by :func:`analyze_schema`)."""
    if not is_distributive(function):
        return StaticVerdict.UNSAFE
    return grouping_summarizability(mo, grouping)


def _aggtype_inversions(dtype: DimensionType):
    """Category pairs whose aggregation type grows upward (finer data
    constant, coarser data additive) — legal, but usually a schema
    mistake worth an info diagnostic.  Normal hierarchies *lose*
    additivity as data coarsens (``Aggtype`` is monotonically
    non-increasing up the lattice); the flagged pairs gain it."""
    by_name = {c.name: c for c in dtype.category_types()}
    inversions = []
    for child in dtype.category_types():
        if child.is_top:
            continue
        for parent_name in dtype.pred(child.name):
            if parent_name == dtype.top_name:
                continue
            parent = by_name[parent_name]
            if parent.aggtype > child.aggtype:
                inversions.append((child.name, parent_name))
    return inversions


def _analyze_dimension(report: AnalysisReport, mo: MultidimensionalObject,
                       dimension: Dimension) -> None:
    """Drift + extensional hierarchy diagnostics for one dimension."""
    dtype = dimension.dtype
    location = f"dimension {dimension.name}"
    index = mo.rollup_index()
    strict = index.hierarchy_strict(dimension.name)
    partitioning = index.hierarchy_partitioning(dimension.name)

    if dtype.declared_strict is True and not strict:
        report.emit("MD020",
                    "declared strict, but the extension is not",
                    location,
                    hint="fix the offending mappings or declare "
                         "declared_strict=False")
    if dtype.declared_partitioning is True and not partitioning:
        report.emit("MD021",
                    "declared partitioning, but the extension is not",
                    location,
                    hint="link the orphaned values to parents or declare "
                         "declared_partitioning=False")
    if dtype.declared_strict is False and strict:
        report.emit("MD022",
                    "declared non-strict, but the extension is strict",
                    location,
                    hint="declare declared_strict=True so the analyzer "
                         "can prove groupings SAFE")
    if dtype.declared_partitioning is False and partitioning:
        report.emit("MD022",
                    "declared non-partitioning, but the extension is "
                    "partitioning",
                    location,
                    hint="declare declared_partitioning=True so the "
                         "analyzer can prove groupings SAFE")
    if dtype.declared_strict is None and dtype.declared_partitioning is None:
        report.emit("MD025",
                    "hierarchy properties undeclared",
                    location,
                    hint="declare strictness/partitioning on the "
                         "dimension type so groupings can be vouched "
                         "for statically")

    if not strict:
        report.emit("MD023",
                    "hierarchy is non-strict (some value has several "
                    "parents in one category)",
                    location,
                    hint="aggregate results above the offending levels "
                         "must be computed from base data, not reused")
    if not partitioning:
        report.emit("MD024",
                    "hierarchy is non-partitioning (some value has no "
                    "parent in an immediate predecessor category)",
                    location,
                    hint="use mixed-granularity-aware groupings or "
                         "link every value upward")

    # fact-path strictness per category: a schema-level property of the
    # *relation*, not the hierarchy — double counting starts here
    for ctype in dtype.category_types():
        if ctype.is_top:
            continue
        per_fact = index.grouping_values_per_fact(dimension.name, ctype.name)
        offending = sum(1 for values in per_fact.values()
                        if len(values) > 1)
        if offending:
            report.emit("MD028",
                        f"{offending} fact(s) map to several values of "
                        f"category {ctype.name!r}",
                        location,
                        hint="SUM-class aggregates grouped here double "
                             "count; prefer COUNT-class functions or "
                             "finer groupings")

    for lower, upper in _aggtype_inversions(dtype):
        report.emit("MD026",
                    f"category {lower!r} has a lower aggregation type "
                    f"than its parent category {upper!r}",
                    location,
                    hint="coarser data rarely supports more functions "
                         "than the finer data it summarizes; check the "
                         "Aggtype declarations")


def _analyze_uncertainty(report: AnalysisReport,
                         mo: MultidimensionalObject) -> None:
    """§3.3 lint: per fact and dimension, alternative characterizations
    carry probabilities; mass above 1 is inconsistent."""
    for name in mo.dimension_names:
        relation = mo.relation(name)
        mass: Dict[object, float] = {}
        partial: Dict[object, bool] = {}
        for fact, _value, _time, prob in relation.annotated_pairs():
            mass[fact] = mass.get(fact, 0.0) + prob
            if prob < 1.0:
                partial[fact] = True
        offending = [fact for fact, total in mass.items()
                     if partial.get(fact) and total > 1.0 + 1e-9]
        if offending:
            report.emit("MD032",
                        f"{len(offending)} fact(s) have probability "
                        f"mass > 1 over their alternative values in "
                        f"dimension {name!r}",
                        f"relation {name}",
                        hint="alternative (p < 1) characterizations of "
                             "one fact should have mass ≤ 1")


def analyze_schema(
    mo_or_schema: Union[MultidimensionalObject, FactSchema],
) -> AnalysisReport:
    """Lint a fact schema — or an MO, which additionally enables the
    drift and extensional hierarchy checks.

    With only a :class:`FactSchema` (no data anywhere), the analysis is
    purely intensional: declarations and aggregation-type structure.
    With an MO the declarations are checked for drift and the
    extensional hierarchy/path/uncertainty lints run, answered from the
    rollup index's caches."""
    if isinstance(mo_or_schema, FactSchema):
        schema = mo_or_schema
        report = AnalysisReport(f"schema {schema.fact_type}")
        for dtype in schema:
            location = f"dimension type {dtype.name}"
            if dtype.declared_strict is None and \
                    dtype.declared_partitioning is None:
                report.emit("MD025", "hierarchy properties undeclared",
                            location,
                            hint="declare strictness/partitioning so "
                                 "groupings can be vouched for "
                                 "statically")
            for lower, upper in _aggtype_inversions(dtype):
                report.emit("MD026",
                            f"category {lower!r} has a lower aggregation "
                            f"type than its parent category {upper!r}",
                            location,
                            hint="check the Aggtype declarations")
        return report.sort()

    mo = mo_or_schema
    report = AnalysisReport(f"schema {mo.schema.fact_type}")
    for name in mo.dimension_names:
        _analyze_dimension(report, mo, mo.dimension(name))
    _analyze_uncertainty(report, mo)
    return report.sort()


def recorded_valid_time(mo: MultidimensionalObject):
    """The union of every relation pair's and order edge's chronon
    set — the span within which a timeslice can see anything."""
    span = EMPTY
    for name in mo.dimension_names:
        for _fact, _value, time, _prob in mo.relation(name).annotated_pairs():
            span = span.union(time)
        for _child, _parent, time, _prob in mo.dimension(name).order.edges():
            span = span.union(time)
    return span


def analyze_timeslice(mo: MultidimensionalObject,
                      at: Chronon) -> AnalysisReport:
    """§4.2 lint: warn when ``τ(M, t)`` is taken at a chronon outside
    the recorded valid-time span — legal, but every fact then falls to
    the ⊤ "cannot characterize" marker in every dimension."""
    report = AnalysisReport(f"timeslice of {mo.schema.fact_type} at {at}")
    span = recorded_valid_time(mo)
    if span.is_always():
        return report
    if at not in span:
        bounds = ("empty recorded span" if span.is_empty() else
                  f"recorded span [{span.min()}, {span.max()}]")
        report.emit("MD031",
                    f"chronon {at} lies outside the {bounds}",
                    f"timeslice at {at}",
                    hint="slice within the recorded span, or expect "
                         "every fact to be characterized by ⊤ only")
    return report
