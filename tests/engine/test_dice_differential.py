"""Differential tests for the set-at-a-time answer paths.

* σ of a dice (``characterized_by`` / ``conjunction``) is evaluated from
  down-sets of the dice values; the same predicate with its kind erased
  takes the per-fact enumeration, which stays the oracle.
* ``RollupIndex.summarizability`` assembles untimed verdicts from cached
  pieces; ``check_summarizability`` stays the oracle.
* ``Query.to_plan`` is the one plan of a query: evaluating it gives the
  rows ``execute`` returns, multi-dice queries included.

All three run over random snapshot and valid-time MOs.

* A snapshot query's dices are a fact mask on the undiced MO's layout;
  σ's MO then α on the naive path stays the oracle, over clinical MOs
  with numeric measures, every function kernel and ``apply`` rung, and
  mutations that leave the undiced layout stale between queries.
"""

import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import (SetCount, aggregate, characterized_by,
                           conjunction, select)
from repro.algebra.functions import Avg, Max, Median, Min, Sum
from repro.algebra.predicates import Predicate
from repro.core.helpers import make_result_spec
from repro.core.properties import check_summarizability
from repro.core.values import DimensionValue, Fact
from repro.engine import Query, columnar, evaluate
from repro.engine.query import _alpha_rows
from repro.obs import metrics
from repro.workloads.generator import ClinicalConfig, generate_clinical
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


FUNCTIONS = (SetCount(), Sum("Age"), Avg("Age"), Min("Age"), Max("Age"),
             Median("Age"))


def _masked_and_oracle_rows(mo, function, grouping, dices):
    """``execute``'s rows (the dices mask the MO) and the oracle's: σ
    builds the diced MO, then α on the naive path."""
    query = Query(mo)
    for name, value in dices:
        query = query.dice(name, value)
    for name, category in grouping.items():
        query = query.rollup(name, category)
    conj = conjunction(*[characterized_by(d, v) for d, v in dices])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = query.execute(function, check=False, cache=False)
        oracle = _alpha_rows(aggregate(
            select(mo, conj), function, grouping,
            make_result_spec(name="__query_result"), strict_types=False,
            use_index=False), sorted(grouping))
    return rows, oracle


def _clinical_dice(data, workload):
    mo = workload.mo
    name = data.draw(st.sampled_from(sorted(mo.dimension_names)),
                     label="top_dim")
    value = data.draw(st.one_of(
        st.sampled_from(workload.regions + workload.counties
                        + workload.areas),
        st.just(DimensionValue(sid=("Residence", "unreached"))),
        st.none()), label="dice_value")
    if value is None:  # ⊤ of some dimension
        return name, mo.dimension(name).top_value
    return "Residence", value


def _clinical_grouping(data, mo):
    names = data.draw(st.lists(
        st.sampled_from(["Residence", "Diagnosis", "Age"]), max_size=2,
        unique=True), label="grouped")
    return {name: data.draw(st.sampled_from(
        [c.name for c in mo.dimension(name).dtype.category_types()]),
        label=f"grouping[{name}]") for name in names}


def _mutate(data, workload, fid):
    """Add a patient, then relink an existing one's diagnosis."""
    mo = workload.mo
    low = workload.icd.low_levels
    patient = Fact(fid=fid, ftype=mo.schema.fact_type)
    mo.add_fact(patient)
    mo.relate(patient, "Residence",
              data.draw(st.sampled_from(workload.areas), label="area"))
    mo.relate(patient, "Age", min(
        mo.dimension("Age").category("Age").members(), key=repr))
    mo.relate(patient, "Diagnosis", data.draw(st.sampled_from(low),
                                              label="diagnosis"))
    relinked = data.draw(st.sampled_from(workload.patients),
                         label="relinked")
    mo.relate(relinked, "Diagnosis", data.draw(st.sampled_from(low),
                                               label="relink_to"))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_masked_alpha_equals_diced_oracle(data):
    workload = generate_clinical(ClinicalConfig(
        n_patients=data.draw(st.integers(5, 60), label="n_patients"),
        seed=data.draw(st.integers(0, 10_000), label="seed")))
    dices = [_clinical_dice(data, workload) for _ in range(
        data.draw(st.integers(0, 3), label="n_dices"))]
    grouping = _clinical_grouping(data, workload.mo)
    function = data.draw(st.sampled_from(FUNCTIONS), label="function")
    n_rounds = data.draw(st.integers(1, 3), label="n_rounds")
    for i in range(n_rounds):
        rows, oracle = _masked_and_oracle_rows(workload.mo, function,
                                               grouping, dices)
        assert repr(rows) == repr(oracle)
        if i + 1 < n_rounds:
            _mutate(data, workload, fid=60_000 + i)


def test_measure_poisoned_outside_the_dice():
    """A non-numeric Age on a fact the dice drops poisons the undiced
    measure column: the kernel refuses and ``apply`` answers on the
    masked groups, which never meet the bad fact."""
    workload = generate_clinical(ClinicalConfig(n_patients=40, seed=7))
    mo = workload.mo
    region = workload.regions[0]
    outside = next(f for f in workload.patients
                   if region not in mo.dimension("Residence").ancestors(
                       next(iter(mo.relation("Residence").values_of(f)))))
    bad = DimensionValue(sid=("not", "numeric"), label="bad")
    mo.dimension("Age").add_value("Age", bad)
    mo.relate(outside, "Age", bad)
    fallbacks = metrics.counter("aggregate.kernel.fallback")
    for function in FUNCTIONS[1:5]:
        before = fallbacks.value
        rows, oracle = _masked_and_oracle_rows(
            mo, function, {"Residence": "County"}, [("Residence", region)])
        assert repr(rows) == repr(oracle)
        assert fallbacks.value == before + 1


def test_radix_overflow_masks_the_interned_rung(monkeypatch):
    """With every composed key space overflowing, α takes the interned
    rung, which must honour the mask too."""
    monkeypatch.setattr(columnar, "MAX_COMPOSED_KEY", 1)
    workload = generate_clinical(ClinicalConfig(n_patients=30, seed=4))
    overflows = metrics.counter("columnar.fallback.radix")
    before = overflows.value
    rows, oracle = _masked_and_oracle_rows(
        workload.mo, Sum("Age"),
        {"Residence": "County", "Diagnosis": "Diagnosis Group"},
        [("Residence", workload.regions[1])])
    assert repr(rows) == repr(oracle)
    assert rows and overflows.value > before
