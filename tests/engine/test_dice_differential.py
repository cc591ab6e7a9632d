"""Differential tests for the set-at-a-time answer paths.

* σ of a dice (``characterized_by`` / ``conjunction``) is evaluated from
  down-sets of the dice values; the same predicate with its kind erased
  takes the per-fact enumeration, which stays the oracle.
* ``RollupIndex.summarizability`` assembles untimed verdicts from cached
  pieces; ``check_summarizability`` stays the oracle.
* ``Query.to_plan`` is the one plan of a query: evaluating it gives the
  rows ``execute`` returns, multi-dice queries included.

All three run over random snapshot and valid-time MOs.
"""

import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import SetCount, characterized_by, conjunction, select
from repro.algebra.predicates import Predicate
from repro.core.properties import check_summarizability
from repro.core.values import DimensionValue, Fact
from repro.engine import Query, evaluate
from repro.engine.query import _alpha_rows
from repro.obs import metrics
from tests.strategies import small_mos

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

temporal_flags = st.booleans()


def _draw_dices(data, mo, max_dices=4):
    """0..max_dices dices, dimensions drawn with replacement (so several
    can land on one dimension); values from every category, with ⊤ and
    a value outside the dimension (no fact reaches it) drawn about as
    often as all the others together."""
    dices = []
    names = sorted(mo.dimension_names)
    for _ in range(data.draw(st.integers(0, max_dices), label="n_dices")):
        name = data.draw(st.sampled_from(names), label="dice_dim")
        dimension = mo.dimension(name)
        value = data.draw(st.one_of(
            st.sampled_from(sorted(dimension.values(), key=repr)),
            st.just(dimension.top_value),
            st.just(DimensionValue(sid=(name, "unreached")))),
            label="dice_value")
        dices.append((name, value))
    return dices


def _dice_predicate(dices):
    if len(dices) == 1:
        return characterized_by(*dices[0])
    return conjunction(*[characterized_by(d, v) for d, v in dices])


def _image(mo):
    """Facts plus every relation's annotated pairs."""
    return (
        mo.facts,
        {name: {(f, v): mo.relation(name).annotations(f, v)
                for f, v in mo.relation(name).pairs()}
         for name in mo.dimension_names},
    )


@_SETTINGS
@given(data=st.data(), temporal=temporal_flags)
def test_set_select_equals_per_fact_select(data, temporal):
    mo = data.draw(small_mos(temporal=temporal), label="mo")
    if data.draw(st.booleans(), label="unrelated_fact"):
        # related in no dimension: every dice, ⊤ included, drops it
        mo.add_fact(Fact(fid="unrelated", ftype=mo.schema.fact_type))
    predicate = _dice_predicate(_draw_dices(data, mo))
    erased = Predicate(dims=predicate.dims, test=predicate.test)
    set_path = metrics.counter("selection.path.set")
    per_fact = metrics.counter("selection.path.per_fact")
    before = (set_path.value, per_fact.value)
    fast = select(mo, predicate)
    naive = select(mo, erased)
    assert (set_path.value, per_fact.value) == (before[0] + 1,
                                                before[1] + 1)
    assert _image(fast) == _image(naive)


def _check_all_groupings(data, mo):
    index = mo.rollup_index()
    groupings = [
        {name: ctype.name}
        for name in mo.dimension_names
        for ctype in mo.dimension(name).dtype.category_types()
    ]
    mixed = {}
    for name in mo.dimension_names:
        categories = [c.name for c in
                      mo.dimension(name).dtype.category_types()]
        choice = data.draw(st.sampled_from([None] + categories),
                           label=f"grouping[{name}]")
        if choice is not None:
            mixed[name] = choice
    groupings.append(mixed)
    for grouping in groupings:
        for distributive in (True, False):
            assert index.summarizability(grouping, distributive) == \
                check_summarizability(mo, grouping, distributive), \
                grouping


@_SETTINGS
@given(data=st.data(), temporal=temporal_flags)
def test_index_summarizability_equals_check(data, temporal):
    mo = data.draw(small_mos(temporal=temporal), label="mo")
    _check_all_groupings(data, mo)
    dices = _draw_dices(data, mo, max_dices=2)
    if dices:
        _check_all_groupings(data, select(mo, _dice_predicate(dices)))


@_SETTINGS
@given(data=st.data(), temporal=temporal_flags)
def test_evaluated_plan_equals_execute(data, temporal):
    mo = data.draw(small_mos(temporal=temporal), label="mo")
    query = Query(mo)
    for name, value in _draw_dices(data, mo):
        query = query.dice(name, value)
    grouped = []
    for name in mo.dimension_names:
        categories = [c.name for c in
                      mo.dimension(name).dtype.category_types()]
        choice = data.draw(st.sampled_from([None] + categories),
                           label=f"grouping[{name}]")
        if choice is not None:
            query = query.rollup(name, choice)
            grouped.append(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        planned = evaluate(query.to_plan(SetCount()))
        rows = query.execute(SetCount(), check=False, cache=False)
    assert repr(_alpha_rows(planned, sorted(grouped))) == repr(rows)
