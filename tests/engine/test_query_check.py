"""Tests for Query.check(): static analysis wired into the query API."""

import pytest

from repro.algebra import SetCount, Sum, characterized_by, select
from repro.core.errors import AggregationTypeError, StaticAnalysisError
from repro.engine.optimizer import AggregateNode, Base, SelectNode, evaluate
from repro.engine.query import Query, _alpha_rows


def _area(mo):
    return next(iter(mo.dimension("Residence").category("Area")))


class TestCheck:
    def test_clean_query_empty_report(self, snapshot_mo):
        report = Query(snapshot_mo).rollup("DOB", "Year").check()
        assert len(report) == 0

    def test_unsafe_grouping_reports_warning(self, snapshot_mo):
        report = (Query(snapshot_mo)
                  .rollup("Diagnosis", "Diagnosis Group").check())
        assert "MD030" in report.codes()
        assert not report.has_errors

    def test_strict_type_violation_is_error(self, snapshot_mo):
        report = Query(snapshot_mo).rollup("DOB", "Year").check(
            Sum("Name"), strict_types=True)
        assert report.codes() == ["MD001"]
        assert report.has_errors

    def test_holistic_function_surfaces_md070(self, snapshot_mo):
        from repro.algebra.functions import Median

        report = Query(snapshot_mo).rollup("DOB", "Year").check(
            Median("Age"))
        assert "MD070" in report.codes()
        assert not report.has_errors  # advisory, never blocks

    def test_check_report_is_sorted(self, snapshot_mo):
        report = (Query(snapshot_mo)
                  .rollup("Diagnosis", "Diagnosis Group").check())
        keys = [(d.code, d.location, d.message) for d in report]
        assert len(keys) >= 2  # MD030 plus the MD072 shard finding
        assert keys == sorted(keys)

    def test_to_plan_shape(self, snapshot_mo):
        query = (Query(snapshot_mo)
                 .dice("Residence", _area(snapshot_mo))
                 .rollup("DOB", "Year"))
        plan = query.to_plan()
        assert isinstance(plan, AggregateNode)
        assert isinstance(plan.child, SelectNode)
        assert isinstance(plan.child.child, Base)
        assert plan.grouping == (("DOB", "Year"),)

    def test_to_plan_evaluates_like_execute(self, snapshot_mo):
        query = (Query(snapshot_mo)
                 .dice("Residence", _area(snapshot_mo))
                 .rollup("DOB", "Year"))
        rows = query.execute()
        result_mo = evaluate(query.to_plan())
        groups = result_mo.facts
        assert len(groups) == len(rows)

    def test_to_plan_is_one_sigma_over_all_dices(self, two_group_clinical):
        """One σ over the conjunction of both dices keeps only the
        patients with one diagnosis below both groups, as execute()
        does; a σ per dice would keep the others too."""
        mo = two_group_clinical.mo
        g1, g2 = (two_group_clinical.icd.groups[2],
                  two_group_clinical.icd.groups[4])
        query = Query(mo).dice("Diagnosis", g1).dice("Diagnosis", g2)
        plan = query.to_plan()
        assert isinstance(plan.child, SelectNode)
        assert isinstance(plan.child.child, Base)
        rows = query.execute(check=False, cache=False)
        assert _alpha_rows(evaluate(plan), []) == rows
        chained = select(select(mo, characterized_by("Diagnosis", g1)),
                         characterized_by("Diagnosis", g2))
        assert rows[0][1] < len(chained.facts)


class TestExecuteChecked:
    def test_execute_raises_on_error_findings(self, snapshot_mo):
        query = Query(snapshot_mo).rollup("DOB", "Year")
        with pytest.raises(StaticAnalysisError) as excinfo:
            query.execute(Sum("Name"), strict_types=True)
        assert [d.code for d in excinfo.value.diagnostics] == ["MD001"]

    def test_check_false_defers_to_runtime(self, snapshot_mo):
        query = Query(snapshot_mo).rollup("DOB", "Year")
        with pytest.raises(AggregationTypeError):
            query.execute(Sum("Name"), strict_types=True, check=False)

    def test_warnings_do_not_block_execution(self, snapshot_mo):
        rows = (Query(snapshot_mo)
                .rollup("Diagnosis", "Diagnosis Group")
                .execute(SetCount()))
        assert rows  # MD030 is a warning; evaluation proceeds

    def test_default_execute_unchanged(self, snapshot_mo):
        checked = Query(snapshot_mo).rollup("DOB", "Year").execute()
        unchecked = Query(snapshot_mo).rollup("DOB", "Year").execute(
            check=False)
        assert checked == unchecked
