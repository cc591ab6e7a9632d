"""Tests for the fluent query API."""

import pytest

from repro.algebra import SetCount, Sum, aggregate, characterized_by, select
from repro.casestudy import case_study_mo, diagnosis_value, patient_fact
from repro.core.errors import SchemaError, SummarizabilityWarning
from repro.core.helpers import make_result_spec
from repro.engine import PreAggregateStore, Query
from repro.engine.query import _alpha_rows
from repro.engine.sharded import ShardedBackend
from repro.obs import metrics
from repro.temporal.chronon import parse_day
from repro.temporal.timeset import TimeSet
from repro.workloads.generator import ClinicalConfig, generate_clinical


class TestQueryBasics:
    def test_rollup_counts(self, snapshot_mo):
        rows = Query(snapshot_mo).rollup("Diagnosis",
                                         "Diagnosis Group").counts()
        assert {(g["Diagnosis"].sid, v) for g, v in rows} == \
            {(11, 2), (12, 1)}

    def test_dice_then_rollup(self, snapshot_mo):
        rows = (Query(snapshot_mo)
                .dice("Diagnosis", diagnosis_value(12))
                .rollup("Diagnosis", "Diagnosis Group")
                .counts())
        assert {(g["Diagnosis"].sid, v) for g, v in rows} == \
            {(11, 1), (12, 1)}  # patient 2 has diagnoses in both groups

    def test_sum_function(self, small_retail):
        rows = Query(small_retail.mo).rollup(
            "Product", "Department").execute(Sum("Price"))
        total = sum(v for _, v in rows)
        assert total == Sum("Price").apply(small_retail.mo.facts,
                                           small_retail.mo)

    def test_immutability(self, snapshot_mo):
        base = Query(snapshot_mo)
        derived = base.rollup("Diagnosis", "Diagnosis Group")
        assert base._grouping == {}
        assert derived._grouping == {"Diagnosis": "Diagnosis Group"}

    def test_unknown_dimension_rejected(self, snapshot_mo):
        with pytest.raises(SchemaError):
            Query(snapshot_mo).dice("Nope", diagnosis_value(1))

    def test_unknown_category_rejected(self, snapshot_mo):
        with pytest.raises(SchemaError):
            Query(snapshot_mo).rollup("Diagnosis", "Nope")


class TestStoreIntegration:
    def test_exact_hit(self, strict_clinical):
        store = PreAggregateStore(strict_clinical.mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Group"})
        rows = Query(strict_clinical.mo, store=store).rollup(
            "Diagnosis", "Diagnosis Group").counts()
        direct = Query(strict_clinical.mo).rollup(
            "Diagnosis", "Diagnosis Group").counts()
        assert {(g["Diagnosis"], v) for g, v in rows} == \
            {(g["Diagnosis"], v) for g, v in direct}

    def test_rollup_hit_from_finer_level(self, strict_clinical):
        store = PreAggregateStore(strict_clinical.mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Family"})
        rows = Query(strict_clinical.mo, store=store).rollup(
            "Diagnosis", "Diagnosis Group").counts()
        direct = Query(strict_clinical.mo).rollup(
            "Diagnosis", "Diagnosis Group").counts()
        assert {(g["Diagnosis"], v) for g, v in rows} == \
            {(g["Diagnosis"], v) for g, v in direct}

    def test_unsafe_store_bypassed(self, small_clinical):
        """With a non-summarizable stored aggregate, the query falls
        back to base data and still returns correct counts."""
        store = PreAggregateStore(small_clinical.mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Family"})
        rows = Query(small_clinical.mo, store=store).rollup(
            "Diagnosis", "Diagnosis Group").counts()
        direct = Query(small_clinical.mo).rollup(
            "Diagnosis", "Diagnosis Group").counts()
        assert {(g["Diagnosis"], v) for g, v in rows} == \
            {(g["Diagnosis"], v) for g, v in direct}

    def test_diced_queries_skip_store(self, strict_clinical):
        store = PreAggregateStore(strict_clinical.mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Group"})
        group = strict_clinical.icd.groups[0]
        rows = (Query(strict_clinical.mo, store=store)
                .dice("Diagnosis", group)
                .rollup("Diagnosis", "Diagnosis Group")
                .counts())
        assert rows  # evaluated against base data, not the store


class TestMultiDimensionQueries:
    def test_two_dimension_rollup(self, strict_clinical):
        rows = (Query(strict_clinical.mo)
                .rollup("Diagnosis", "Diagnosis Group")
                .rollup("Residence", "Region")
                .counts())
        assert rows
        for group, count in rows:
            assert set(group) == {"Diagnosis", "Residence"}
            assert count >= 1

    def test_two_dimension_rollup_matches_sql_view(self, strict_clinical):
        from repro.algebra import sql_aggregation

        rows = (Query(strict_clinical.mo)
                .rollup("Diagnosis", "Diagnosis Group")
                .rollup("Residence", "Region")
                .counts())
        via_sql = sql_aggregation(
            strict_clinical.mo, SetCount(),
            {"Diagnosis": "Diagnosis Group", "Residence": "Region"},
            strict_types=False)
        a = sorted((g["Diagnosis"].sid, g["Residence"].sid, v)
                   for g, v in rows)
        b = sorted((r["Diagnosis"], r["Residence"], r["SetCount"])
                   for r in via_sql)
        assert a == b

    def test_multi_dim_store_hit(self, strict_clinical):
        store = PreAggregateStore(strict_clinical.mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Family",
                                       "Residence": "County"})
        rows = (Query(strict_clinical.mo, store=store)
                .rollup("Diagnosis", "Diagnosis Group")
                .rollup("Residence", "Region")
                .counts())
        direct = (Query(strict_clinical.mo)
                  .rollup("Diagnosis", "Diagnosis Group")
                  .rollup("Residence", "Region")
                  .counts())
        a = sorted((g["Diagnosis"].sid, g["Residence"].sid, v)
                   for g, v in rows)
        b = sorted((g["Diagnosis"].sid, g["Residence"].sid, v)
                   for g, v in direct)
        assert a == b


def _alpha_answer(mo, function, grouping, strict_types=True):
    """α's own rows for a query: the oracle of the memory path."""
    return _alpha_rows(aggregate(
        mo, function, grouping, make_result_spec(name="__query_result"),
        strict_types=strict_types), sorted(grouping))


class TestAlphaSemantics:
    """The memory path reads snapshot rows from α's groups; these are
    the α behaviours it must keep."""

    def test_temporal_group_without_common_time_sits_at_top(self):
        # two more patients in the first Area, at disjoint times: the
        # Area's group has no chronon all its members share, so α
        # places it at ⊤ (§4.2)
        mo = case_study_mo(temporal=True)
        area = min(mo.dimension("Residence").category("Area").members(),
                   key=repr)
        for pid, start, end in ((901, "01/01/1970", "31/12/1975"),
                                (902, "01/01/1980", "31/12/1985")):
            mo.relate(patient_fact(pid), "Residence", area,
                      time=TimeSet.interval(parse_day(start),
                                            parse_day(end)))
        rows = Query(mo).rollup("Residence", "Area").execute(
            check=False, cache=False)
        assert rows == _alpha_answer(mo, SetCount(), {"Residence": "Area"})
        assert any(repr(group["Residence"]) == "⊤(Residence)"
                   for group, _ in rows)

    def test_warn_mode_warns_and_answers(self, snapshot_mo):
        query = Query(snapshot_mo).rollup("Residence", "Region")
        county = min(snapshot_mo.dimension("Residence")
                     .category("County").members(), key=repr)
        diced = select(snapshot_mo, characterized_by("Residence", county))
        # undiced, then diced: a dice masks the MO, the gate is the same
        for q, mo in ((query, snapshot_mo),
                      (query.dice("Residence", county), diced)):
            with pytest.warns(SummarizabilityWarning):
                rows = q.execute(Sum("DOB"), strict_types=False,
                                 check=False, cache=False)
            with pytest.warns(SummarizabilityWarning):
                expected = _alpha_answer(mo, Sum("DOB"),
                                         {"Residence": "Region"},
                                         strict_types=False)
            assert rows == expected


def _warm_clinical():
    """A clinical MO with every dimension's rollup index built, as the
    repository benchmark's set-up leaves it."""
    workload = generate_clinical(ClinicalConfig(n_patients=60, seed=3))
    mo = workload.mo
    index = mo.rollup_index()
    for name in mo.dimension_names:
        index.group_counts(name, mo.dimension(name).dtype.top_name)
    return workload


class TestDiceMask:
    """A snapshot query's dices mask the undiced MO: no query builds a
    diced MO, nor a rollup index or columnar layout for one."""

    def test_diced_queries_build_no_mo_and_no_index(self):
        workload = _warm_clinical()
        mo = workload.mo
        region, county = workload.regions[0], workload.counties[0]
        top = mo.dimension("Residence").top_value
        dice_sets = ([region], [county], [region, county], [top])
        selects = metrics.counter("selection.path.set")
        builds = metrics.counter("rollup_index.builds")
        before = (selects.value, builds.value)
        for values in dice_sets:
            for grouping in ({}, {"Residence": "County"},
                             {"Diagnosis": "Diagnosis Group"}):
                q = Query(mo)
                for value in values:
                    q = q.dice("Residence", value)
                for name, category in grouping.items():
                    q = q.rollup(name, category)
                for function in (SetCount(), Sum("Age")):
                    assert q.execute(function, check=False, cache=False)
        sharded = Query(mo).dice("Residence", region).rollup(
            "Residence", "County")
        assert sharded.execute(Sum("Age"), check=False, cache=False,
                               backend=ShardedBackend(n_shards=2))
        assert (selects.value, builds.value) == before

    def test_second_diced_query_reuses_the_layout(self):
        workload = _warm_clinical()
        query = Query(workload.mo).rollup("Residence", "County")
        query.dice("Residence", workload.regions[0]).execute(
            check=False, cache=False)
        hits = metrics.counter("columnar.hit")
        layouts = metrics.counter("columnar.build")
        before = (hits.value, layouts.value)
        query.dice("Residence", workload.regions[1]).execute(
            check=False, cache=False)
        assert hits.value > before[0]
        assert layouts.value == before[1]
