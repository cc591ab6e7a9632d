"""Property tests for analyzer soundness.

The contract under test (docs/ANALYSIS.md): a ``SAFE`` verdict from
:func:`repro.analyze.static_summarizability` guarantees the extensional
Lenz–Shoshani check passes — for any MO, any declarations (truthful,
missing, or lies), any grouping.  And ``RollupIndex.summarizability``
must be verdict-equivalent to the full extensional check."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algebra import SetCount
from repro.analyze import StaticVerdict, static_summarizability
from repro.core.properties import check_summarizability
from tests.strategies import small_mos

declaration = st.sampled_from([None, True, False])


@st.composite
def declared_mos(draw):
    """A random small MO whose dimension types carry random
    declarations — including *false* ones, which the extensional
    confirmation must catch."""
    mo = draw(small_mos())
    for name in mo.dimension_names:
        dtype = mo.dimension(name).dtype
        dtype._declared_strict = draw(declaration)
        dtype._declared_partitioning = draw(declaration)
    return mo


@st.composite
def groupings(draw, mo):
    grouping = {}
    for name in mo.dimension_names:
        if draw(st.booleans()):
            categories = [c.name for c in
                          mo.dimension(name).dtype.category_types()
                          if not c.is_top]
            if categories:
                grouping[name] = draw(st.sampled_from(categories))
    return grouping


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_static_safe_implies_extensional_check_passes(data):
    mo = data.draw(declared_mos())
    grouping = data.draw(groupings(mo))
    verdict = static_summarizability(mo, grouping, SetCount())
    if verdict is StaticVerdict.SAFE:
        check = check_summarizability(mo, grouping,
                                      function_distributive=True)
        assert check.summarizable, (grouping, check)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_accepted_plans_execute(data):
    """A plan the analyzer passes without error findings evaluates
    without schema errors (Theorem 1's closure, both directions)."""
    import warnings

    from repro.algebra import characterized_by
    from repro.analyze import analyze_plan
    from repro.core.helpers import make_result_spec
    from repro.engine.optimizer import (AggregateNode, Base, ProjectNode,
                                        SelectNode, evaluate)

    mo = data.draw(declared_mos())
    plan = Base(mo)
    names = list(mo.dimension_names)
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(names))
        values = sorted(mo.dimension(name).order.nodes, key=repr)
        plan = SelectNode(child=plan, predicate=characterized_by(
            name, data.draw(st.sampled_from(values))))
    if data.draw(st.booleans()) and len(names) > 1:
        keep = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                  unique=True))
        plan = ProjectNode(child=plan, dimensions=tuple(keep))
        names = keep
    grouping = data.draw(groupings(mo))
    grouping = {n: c for n, c in grouping.items() if n in names}
    plan = AggregateNode(child=plan, function=SetCount(),
                         grouping=tuple(sorted(grouping.items())),
                         result=make_result_spec(name="Result"),
                         strict_types=False)
    report = analyze_plan(plan)
    if not report.has_errors:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = evaluate(plan)
        assert "Result" in result.schema


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fast_path_verdict_equals_full_check(data):
    """The rollup index must return the same verdict the naive
    extensional check computes — field by field, for truthful and
    lying declarations alike."""
    mo = data.draw(declared_mos())
    grouping = data.draw(groupings(mo))
    indexed = mo.rollup_index().summarizability(grouping,
                                                distributive=True)
    naive = check_summarizability(mo, grouping,
                                  function_distributive=True)
    assert indexed.function_distributive == naive.function_distributive
    assert indexed.paths_strict == naive.paths_strict
    assert indexed.hierarchies_partitioning == \
        naive.hierarchies_partitioning
