"""Incremental (delta) maintenance of the rollup index and the layers
over it.

A fact insertion or removal does not trigger a full
``_build_dimension_index`` rebuild — it applies as a patch to the
existing closure and characterization maps, counted by
``rollup_index.delta_applied``.  Above the index, the id-level category
views, the columnar layouts (``columnar.patch``) and the measure
columns are patched from the same change logs.  The property tests are
the safety net: across random sequences of mutations (new facts,
fact-value relates, removals, corrections that remove a fact's pairs
and relate it again within one replayed span, single-edge hierarchy
additions), the maintained state must equal a from-scratch build.
Layouts still rebuild after order changes, new or vanished layout
codes, and on delta-off indexes; the pins below check each.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import SetCount, Sum, aggregate
from repro.algebra.aggregate import summarizability_of
from repro.core.helpers import make_result_spec
from repro.core.interning import InternTable
from repro.core.values import DimensionValue, Fact
from repro.engine.columnar import MeasureRows
from repro.engine.query import Query, _alpha_rows
from repro.engine.rollup_index import UNCHARACTERIZED, RollupIndex
from repro.obs import metrics

from tests.algebra.test_kernel_equivalence import _canon_raw, measured_mos
from tests.strategies import small_mos


def _assert_matches_fresh(index, mo):
    """Every dimension/category characterization of the maintained
    index equals a from-scratch build's."""
    fresh = RollupIndex(mo)
    for name in mo.dimension_names:
        dimension = mo.dimension(name)
        for ctype in dimension.dtype.category_types():
            maintained = index.characterization_map(name, ctype.name)
            rebuilt = fresh.characterization_map(name, ctype.name)
            assert maintained == rebuilt, (
                f"delta-maintained {name}/{ctype.name} diverged"
            )


def _warm(index, mo):
    for name in mo.dimension_names:
        index.characterization_map(name, mo.dimension(name).dtype.top_name)


class TestSingleMutations:
    def test_fact_insertion_applies_as_delta(self, small_clinical):
        """The acceptance criterion, verbatim: one insertion, zero
        rebuilds, ``rollup_index.delta_applied`` moves."""
        generated = small_clinical
        mo = generated.mo.copy()
        index = mo.rollup_index()
        index.group_counts("Diagnosis", "Diagnosis Group")
        builds = index.build_count
        applied = metrics.counter("rollup_index.delta_applied")
        before = applied.value
        fact = Fact(fid=("delta-probe", 1), ftype=mo.schema.fact_type)
        mo.relate(fact, "Diagnosis", generated.icd.low_levels[0])
        counts = index.group_counts("Diagnosis", "Diagnosis Group")
        assert index.build_count == builds, "insertion caused a rebuild"
        assert applied.value == before + 1
        assert sum(counts.values()) >= 1
        _assert_matches_fresh(index, mo)

    def test_single_edge_addition_applies_as_delta(self, small_clinical):
        generated = small_clinical
        mo = generated.mo.copy()
        index = mo.rollup_index()
        _warm(index, mo)
        builds = index.build_count
        deltas = index.delta_count
        dimension = mo.dimension("Diagnosis")
        value = DimensionValue(sid=("delta-probe", "low"))
        dimension.add_value("Low-level Diagnosis", value)
        dimension.add_edge(value, generated.icd.families[0])
        index.characterization_map("Diagnosis", "Diagnosis Family")
        assert index.build_count == builds, "edge addition caused a rebuild"
        assert index.delta_count == deltas + 1
        _assert_matches_fresh(index, mo)

    def test_removal_applies_as_delta(self, small_clinical):
        """A removal is a set difference on the relation: the delta
        carries it, with zero rebuilds."""
        mo = small_clinical.mo.copy()
        index = mo.rollup_index()
        _warm(index, mo)
        builds = index.build_count
        deltas = index.delta_count
        victim = next(iter(mo.facts))
        mo.relation("Diagnosis").remove_fact(victim)
        index.characterization_map("Diagnosis", "Diagnosis Group")
        assert index.build_count == builds, "removal caused a rebuild"
        assert index.delta_count == deltas + 1
        _assert_matches_fresh(index, mo)

    def test_delta_disabled_always_rebuilds(self, small_clinical):
        generated = small_clinical
        mo = generated.mo.copy()
        index = mo.rollup_index()
        index.delta_enabled = False
        _warm(index, mo)
        builds = index.build_count
        mo.relate(Fact(fid=("delta-probe", 2), ftype=mo.schema.fact_type),
                  "Diagnosis", generated.icd.low_levels[0])
        index.group_counts("Diagnosis", "Diagnosis Group")
        assert index.build_count == builds + 1
        _assert_matches_fresh(index, mo)


@st.composite
def _mutation_scripts(draw):
    """A script of mutations as data: each step either adds a fresh
    fact related somewhere, relates an (existing or new) fact to another
    value, removes a fact's pairs in one dimension, corrects a fact
    (removes its pairs, then relates it again in that dimension, as an
    ingest correction does), or adds one hierarchy edge."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["new_fact", "relate", "remove", "correction",
                             "edge"]),
            st.integers(min_value=0, max_value=10 ** 6),
            st.integers(min_value=0, max_value=10 ** 6),
        ),
        min_size=1, max_size=8,
    ))


def _apply_script(mo, script):
    """Replay a mutation script against the MO, interpreting the drawn
    integers against whatever the MO currently contains; returns how
    many steps mutated anything."""
    applied = 0
    next_fid = 10 ** 6  # clear of the generator's fact ids
    for op, a, b in script:
        names = mo.dimension_names
        name = names[a % len(names)]
        dimension = mo.dimension(name)
        values = [v for cat in dimension.categories()
                  for v in cat.members() if not v.is_top]
        if op == "new_fact":
            fact = Fact(fid=next_fid, ftype=mo.schema.fact_type)
            next_fid += 1
            target = (values[b % len(values)] if values
                      else dimension.top_value)
            mo.relate(fact, name, target)
            applied += 1
        elif op == "relate":
            facts = sorted(mo.facts, key=repr)
            if not facts or not values:
                continue
            mo.relate(facts[b % len(facts)], name, values[a % len(values)])
            applied += 1
        elif op in ("remove", "correction"):
            facts = sorted(mo.facts, key=repr)
            if not facts:
                continue
            fact = facts[b % len(facts)]
            mo.relation(name).remove_fact(fact)
            if op == "correction":
                mo.relate(fact, name, values[a % len(values)] if values
                          else dimension.top_value)
            applied += 1
        else:  # one upward edge between adjacent levels
            levels = [ctype.name for ctype in dimension.dtype.category_types()
                      if not ctype.is_top]
            if len(levels) < 2:
                continue
            i = a % (len(levels) - 1)
            children = list(dimension.category(levels[i]).members())
            parents = list(dimension.category(levels[i + 1]).members())
            if not children or not parents:
                continue
            dimension.add_edge(children[b % len(children)],
                               parents[(a + b) % len(parents)])
            applied += 1
    return applied


@given(mo=small_mos(), script=_mutation_scripts())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delta_maintained_index_matches_fresh_build(mo, script):
    """Property: after any sequence of mutations, the incrementally
    maintained index ≡ a freshly built index."""
    index = mo.rollup_index()
    _warm(index, mo)
    _apply_script(mo, script)
    _assert_matches_fresh(index, mo)


@given(mo=small_mos(), script=_mutation_scripts())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_interleaved_queries_stay_consistent(mo, script):
    """Same property with a query between every mutation, so each step
    individually applies as a delta (or rebuilds) instead of batching."""
    index = mo.rollup_index()
    _warm(index, mo)
    for step in script:
        _apply_script(mo, [step])
        _warm(index, mo)
    _assert_matches_fresh(index, mo)


# -- the layers over the index: id views, layouts, measure columns -------


def _counters(*names):
    return {name: metrics.counter(name).value for name in names}


def _moved(before):
    return {name for name, value in before.items()
            if metrics.counter(name).value != value}


_LAYER_COUNTERS = ("columnar.patch", "columnar.build",
                   "columnar.measure_column.build",
                   "rollup_index.per_fact_map.miss", "rollup_index.builds")


def _clinical_read(mo, grouping=None):
    """One dashboard-shaped read; returns its rows and the oracle's."""
    grouping = grouping or {"Diagnosis": "Diagnosis Group",
                            "Residence": "Region"}
    query = Query(mo)
    for name, category in sorted(grouping.items()):
        query = query.rollup(name, category)
    rows = query.execute(Sum("Age"), cache=False)
    oracle = _alpha_rows(aggregate(
        mo, Sum("Age"), grouping, make_result_spec(name="__query_result"),
        use_index=False), sorted(grouping))
    return rows, oracle


def _ingest_batch(mo, patients, step=0):
    """Four relinks to diagnoses patients already have, plus one new
    fact related in every dimension to values in use."""
    diagnosis = mo.relation("Diagnosis")
    for k in range(4):
        source = patients[(step + 2 * k + 1) % len(patients)]
        value = sorted(diagnosis.values_of(source), key=repr)[0]
        mo.relate(patients[(step + 2 * k) % len(patients)], "Diagnosis",
                  value)
    model = patients[step % len(patients)]
    fact = Fact(fid=("ingest", step), ftype=mo.schema.fact_type)
    for name in mo.dimension_names:
        for value in sorted(mo.relation(name).values_of(model), key=repr):
            mo.relate(fact, name, value)


class TestLayerPatches:
    def test_ingest_batch_patches_every_layer(self, small_clinical):
        """An ingest-shaped batch, then one read: the layout is patched,
        and no layout, measure column or id view is rebuilt."""
        mo = small_clinical.mo.copy()
        rows, oracle = _clinical_read(mo)
        assert repr(rows) == repr(oracle)
        _ingest_batch(mo, small_clinical.patients)
        before = _counters(*_LAYER_COUNTERS)
        rows, oracle = _clinical_read(mo)
        assert repr(rows) == repr(oracle)
        assert _moved(before) == {"columnar.patch"}

    def test_correction_patches_every_layer(self, small_clinical):
        """An ingest correction — every Diagnosis pair of a patient
        removed, then one value in use related again — then one read:
        the removal replays as a delta, so the layout is patched and no
        index, layout, measure column or id view is rebuilt."""
        mo = small_clinical.mo.copy()
        patients = small_clinical.patients
        rows, oracle = _clinical_read(mo)
        assert repr(rows) == repr(oracle)
        diagnosis = mo.relation("Diagnosis")
        value = sorted(diagnosis.values_of(patients[1]), key=repr)[0]
        diagnosis.remove_fact(patients[0])
        mo.relate(patients[0], "Diagnosis", value)
        before = _counters(*_LAYER_COUNTERS)
        rows, oracle = _clinical_read(mo)
        assert repr(rows) == repr(oracle)
        assert _moved(before) == {"columnar.patch"}

    @pytest.mark.parametrize("mutation", [
        "lost_code", "add_edge", "new_code", "delta_disabled"])
    def test_mutations_a_patch_cannot_replay_rebuild(self, small_clinical,
                                                     mutation):
        mo = small_clinical.mo.copy()
        icd = small_clinical.icd
        patients = small_clinical.patients
        unused = DimensionValue(sid=("patch-probe", "low"))
        grouping = {"Diagnosis": "Diagnosis Group", "Residence": "Region"}
        if mutation in ("new_code", "lost_code"):
            # in the dimension before the warm read, and no fact has it
            # (lost_code: one patient has it, until a correction)
            mo.dimension("Diagnosis").add_value("Low-level Diagnosis",
                                                unused)
            mo.dimension("Diagnosis").add_edge(unused, icd.families[0])
            grouping["Diagnosis"] = "Low-level Diagnosis"
        if mutation == "lost_code":
            mo.relate(patients[0], "Diagnosis", unused)
        _clinical_read(mo, grouping)  # warm the layout the pin reads
        if mutation == "lost_code":
            diagnosis = mo.relation("Diagnosis")
            value = sorted(diagnosis.values_of(patients[1]), key=repr)[0]
            diagnosis.remove_fact(patients[0])
            mo.relate(patients[0], "Diagnosis", value)
        elif mutation == "add_edge":
            low = next(v for v in icd.low_levels
                       if icd.families[-1] not in
                       mo.dimension("Diagnosis").ancestors(v))
            mo.dimension("Diagnosis").add_edge(low, icd.families[-1])
        elif mutation == "new_code":
            mo.relate(patients[0], "Diagnosis", unused)
        else:
            mo.rollup_index().delta_enabled = False
            _ingest_batch(mo, patients)
        before = _counters("columnar.build", "columnar.patch")
        rows, oracle = _clinical_read(mo, grouping)
        assert repr(rows) == repr(oracle)
        assert _moved(before) == {"columnar.build"}


def test_version_keyed_memos_stay_bounded(small_clinical):
    """Writes re-answer a question in place: 100 rounds of write then
    read of one grouping leave the memos as large as the first."""
    mo = small_clinical.mo.copy()
    index = mo.rollup_index()
    grouping = {"Diagnosis": "Diagnosis Group", "Residence": "Region"}
    patients = small_clinical.patients
    low_levels = small_clinical.icd.low_levels
    sizes = []
    for step in range(100):
        mo.relate(patients[step % len(patients)], "Diagnosis",
                  low_levels[step % len(low_levels)])
        summarizability_of(mo, SetCount(), grouping)
        index.covers("Diagnosis", "Diagnosis Family", "Diagnosis Group")
        sizes.append((len(index._verdicts), len(index._strictness),
                      len(index._coverage)))
    assert set(sizes) == {sizes[0]}


@st.composite
def _layer_scripts(draw, removals):
    """Mutation steps as data; ``removals`` adds relation removals,
    corrections and hierarchy edges to the additions."""
    ops = ["new_fact", "relate"] + (["remove", "correction", "edge"]
                                    if removals else [])
    return draw(st.lists(
        st.tuples(st.sampled_from(ops),
                  st.integers(min_value=0, max_value=10 ** 6),
                  st.integers(min_value=0, max_value=10 ** 6)),
        min_size=1, max_size=8))


def _apply_layer_step(mo, step):
    op, a, b = step
    if op in ("new_fact", "relate"):
        names = mo.dimension_names
        if op == "new_fact":  # F only grows: its size is a fresh fid
            fact = Fact(fid=("new", len(mo.facts)), ftype=mo.schema.fact_type)
            names = names[a % len(names):] + names[:a % len(names)]
        else:
            facts = sorted(mo.facts, key=repr)
            if not facts:
                return
            fact, names = facts[b % len(facts)], [names[a % len(names)]]
        for i, name in enumerate(names):
            dimension = mo.dimension(name)
            values = [v for cat in dimension.categories()
                      for v in cat.members() if not v.is_top]
            mo.relate(fact, name, values[(a + b + i) % len(values)]
                      if values else dimension.top_value)
    else:
        _apply_script(mo, [(op, a, b)])


def _layer_groupings(mo, extra=None):
    """Every single-dimension grouping plus all-bottom and ``extra``,
    as α's full groupings (⊤ for the other dimensions)."""
    tops = {name: mo.dimension(name).dtype.top_name
            for name in mo.dimension_names}
    partial = [{name: ctype.name} for name in mo.dimension_names
               for ctype in mo.dimension(name).dtype.category_types()
               if not ctype.is_top]
    partial.append({name: mo.dimension(name).dtype.bottom.name
                    for name in mo.dimension_names})
    if extra:
        partial.append(extra)
    return [{name: grouping.get(name, tops[name])
             for name in mo.dimension_names} for grouping in partial]


def _read_layers(mo, groupings, measures):
    """Build every view a read can: the id views, the layouts with
    their lazy views, and each measure column gathered per layout."""
    index = mo.rollup_index()
    store = index.columnar()
    for name in mo.dimension_names:
        for ctype in mo.dimension(name).dtype.category_types():
            if not ctype.is_top:
                index.grouping_value_id_array(name, ctype.name)
    for grouping in groupings:
        layout = store.grouping(grouping)
        if layout is None:
            continue
        layout.groups()
        for name in measures:
            column = store.measure_column(name)
            if column.error is None:
                layout.measure_rows(name, column)


def _trimmed(column):
    end = len(column)
    while end and column[end - 1] == UNCHARACTERIZED:
        end -= 1
    return column[:end]


def _assert_layers_match_fresh(mo, groupings, measures, functions):
    """The maintained views equal a fresh index's, built over the same
    interning so ids line up; every query equals the naive oracle."""
    index = mo.rollup_index()
    fresh = RollupIndex(mo)
    fresh._facts = InternTable(index._facts)
    fresh._value_tables = {name: InternTable(table)
                           for name, table in index._value_tables.items()}
    for name in mo.dimension_names:
        for ctype in mo.dimension(name).dtype.category_types():
            if ctype.is_top:
                continue
            assert index.grouping_value_ids_per_fact(name, ctype.name) == \
                fresh.grouping_value_ids_per_fact(name, ctype.name)
            column, multi = index.grouping_value_id_array(name, ctype.name)
            expected, expected_multi = fresh.grouping_value_id_array(
                name, ctype.name)
            assert _trimmed(column) == _trimmed(expected)
            assert multi == expected_multi
    store, fresh_store = index.columnar(), fresh.columnar()
    for name in measures:
        kept = store.measure_column(name)
        built = fresh_store.measure_column(name)
        for field in ("counts", "sums", "mins", "maxs", "poisoned",
                      "stamp"):
            assert getattr(kept, field) == getattr(built, field), field
        assert (kept.error is None) == (built.error is None)
    for grouping in groupings:
        kept = store.grouping(grouping)
        built = fresh_store.grouping(grouping)
        assert (kept is None) == (built is None)
        if built is None:
            continue
        assert kept.keys == built.keys
        assert kept.row_facts == built.row_facts
        assert kept._decodes == built._decodes
        assert kept._codes == built._codes
        assert kept.rows_by_key() == built.rows_by_key()
        assert kept.combos() == built.combos()
        assert kept.groups() == built.groups()
        for name, (column, rows) in kept._measure_cache.items():
            if column is store.measure_column(name):
                gathered = MeasureRows(column, built.row_facts)
                for field in MeasureRows.__slots__:
                    assert getattr(rows, field) == getattr(gathered, field)
    spec = make_result_spec(name="__query_result")
    for grouping in groupings:
        names = sorted(name for name in grouping
                       if grouping[name] != mo.dimension(name).dtype.top_name)
        query = Query(mo)
        for name in names:
            query = query.rollup(name, grouping[name])
        for function in functions:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rows = query.execute(function, check=False, cache=False)
                oracle = _alpha_rows(aggregate(
                    mo, function, {n: grouping[n] for n in names}, spec,
                    strict_types=False, use_index=False), names)
            # SUM of a measureless group: the kernel's 0.0, α's 0
            assert [(repr(g), _canon_raw(raw)) for g, raw in rows] == \
                [(repr(g), _canon_raw(raw)) for g, raw in oracle]


def _run_layer_script(mo, script, groupings, measures, functions):
    _read_layers(mo, groupings, measures)
    for step in script:
        _apply_layer_step(mo, step)
        _read_layers(mo, groupings, measures)
    _assert_layers_match_fresh(mo, groupings, measures, functions)


_LAYER_SETTINGS = settings(max_examples=40, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@_LAYER_SETTINGS
@given(mo=small_mos(), removals=st.booleans(), data=st.data())
def test_maintained_layers_match_fresh_build(mo, removals, data):
    """Property: after each step of a mutation script, with a read of
    every layer in between, the patched id views, layouts (with their
    lazy views) and measure columns equal a fresh build's, and every
    query equals the naive oracle.  Values with non-numeric surrogates
    poison the measure columns, which must stay poisoned alike."""
    script = data.draw(_layer_scripts(removals))
    _run_layer_script(mo, script, _layer_groupings(mo),
                      list(mo.dimension_names), [SetCount()])


@_LAYER_SETTINGS
@given(case=measured_mos(), removals=st.booleans(), data=st.data())
def test_maintained_measured_layers_match_fresh_build(case, removals, data):
    """The same property over MOs with a numeric measure dimension, so
    the gathered measure rows are carried and the kernels run."""
    mo, grouping = case
    script = data.draw(_layer_scripts(removals))
    _run_layer_script(mo, script, _layer_groupings(mo, grouping),
                      ["Measure"], [SetCount(), Sum("Measure")])
