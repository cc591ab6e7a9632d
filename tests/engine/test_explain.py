"""Tests for the EXPLAIN ANALYZE surfaces: ``Query.explain`` and
``optimizer.explain_analyze``."""

import pytest

from repro.algebra import SetCount, Sum, characterized_by
from repro.casestudy import case_study_mo, diagnosis_value
from repro.core.errors import StaticAnalysisError
from repro.engine import (
    Base,
    PreAggregateStore,
    ProjectNode,
    Query,
    ResultCache,
    SelectNode,
    evaluate,
    explain_analyze,
)


class TestQueryExplain:
    def test_index_path(self, snapshot_mo):
        query = Query(snapshot_mo).rollup("Diagnosis", "Diagnosis Group")
        result = query.explain(cache=False)
        assert result.path == "index"
        assert result.rows == query.execute(cache=False)
        assert [step.name for step in result.steps] == \
            ["query.check", "query.index"]
        step = result.steps[-1]
        assert step.facts_in == len(snapshot_mo.facts)
        assert step.facts_out == len(result.rows)
        assert step.elapsed_seconds >= 0.0

    def test_alpha_path_with_dice(self, snapshot_mo):
        query = (Query(snapshot_mo)
                 .dice("Diagnosis", diagnosis_value(12))
                 .rollup("Diagnosis", "Diagnosis Group"))
        result = query.explain(cache=False)
        assert result.path == "alpha"
        assert result.rows == query.execute(cache=False)
        assert [step.name for step in result.steps] == \
            ["query.check", "query.dice", "query.alpha"]
        _check, dice, alpha = result.steps
        assert dice.facts_in == len(snapshot_mo.facts)
        # the dice output feeds α
        assert alpha.facts_in == dice.facts_out
        assert alpha.facts_out >= 1

    def test_alpha_path_non_count_function(self, small_retail):
        query = Query(small_retail.mo).rollup("Product", "Department")
        result = query.explain(Sum("Price"), cache=False)
        assert result.path == "alpha"
        assert result.rows == query.execute(Sum("Price"), cache=False)
        assert [step.name for step in result.steps] == \
            ["query.check", "query.alpha"]
        assert "Sum" in result.steps[-1].detail

    def test_store_path_exact_hit(self, strict_clinical):
        store = PreAggregateStore(strict_clinical.mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Group"})
        query = Query(strict_clinical.mo, store=store).rollup(
            "Diagnosis", "Diagnosis Group")
        result = query.explain(cache=False)
        assert result.path == "store"
        assert result.rows == query.execute(cache=False)
        assert [step.name for step in result.steps] == \
            ["query.check", "query.store"]
        step = result.steps[-1]
        assert step.facts_in == 0  # never touched base facts
        assert "exact hit" in step.detail

    def test_store_path_rolled_up(self, strict_clinical):
        store = PreAggregateStore(strict_clinical.mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Family"})
        query = Query(strict_clinical.mo, store=store).rollup(
            "Diagnosis", "Diagnosis Group")
        result = query.explain(cache=False)
        assert result.path == "store"
        assert result.rows == query.execute(cache=False)
        assert [step.name for step in result.steps] == \
            ["query.check", "query.store"]
        assert "rolled up from" in result.steps[-1].detail

    def test_render_mentions_path_and_steps(self):
        # a fresh MO, so the index build is part of this call's tree
        result = Query(case_study_mo(temporal=False)).rollup(
            "Diagnosis", "Diagnosis Group").explain(cache=False)
        text = result.render()
        first, *rest = text.splitlines()
        assert first.startswith("Query path=index rows=")
        # one line per span below the root, steps at the first indent
        assert len(rest) == len(result.spans) - 1
        steps = [line for line in rest if not line.startswith("   ")]
        assert [line.split()[0] for line in steps] == \
            ["query.check", "query.index"]
        assert steps[1].lstrip().startswith("query.index  facts ")
        assert any(line.startswith("    rollup_index.") for line in rest)

    def test_default_call_starts_with_check(self, snapshot_mo):
        query = Query(snapshot_mo, result_cache=ResultCache(
            admit_factor=0.0)).rollup("Diagnosis", "Diagnosis Group")
        result = query.explain()
        assert [step.name for step in result.steps] == \
            ["query.check", "query.cache", "query.index"]
        assert result.rows == query.execute()

    def test_rejected_statically_as_execute_is(self, snapshot_mo):
        query = Query(snapshot_mo).rollup("DOB", "Year")
        with pytest.raises(StaticAnalysisError) as excinfo:
            query.explain(Sum("Name"), strict_types=True)
        assert [d.code for d in excinfo.value.diagnostics] == ["MD001"]

    def test_total_is_sum_of_steps(self, snapshot_mo):
        result = (Query(snapshot_mo)
                  .dice("Diagnosis", diagnosis_value(12))
                  .rollup("Diagnosis", "Diagnosis Group")
                  .explain(cache=False))
        assert result.total_seconds == \
            sum(step.elapsed_seconds for step in result.steps)


class TestExplainAnalyze:
    def test_matches_evaluate(self, snapshot_mo):
        predicate = characterized_by("Diagnosis", diagnosis_value(11))
        plan = ProjectNode(
            SelectNode(Base(snapshot_mo), predicate),
            ("Diagnosis", "Age"))
        analyzed = explain_analyze(plan)
        plain = evaluate(plan)
        assert {f.fid for f in analyzed.mo.facts} == \
            {f.fid for f in plain.facts}
        assert analyzed.mo.dimension_names == plain.dimension_names

    def test_node_annotations(self, snapshot_mo):
        predicate = characterized_by("Diagnosis", diagnosis_value(11))
        plan = SelectNode(Base(snapshot_mo), predicate)
        analyzed = explain_analyze(plan)
        root = analyzed.root
        assert root.label.startswith("σ[")
        (base,) = root.children
        assert base.label.startswith("Base(")
        assert base.facts_out == len(snapshot_mo.facts)
        assert root.facts_in == base.facts_out
        assert root.facts_out == len(analyzed.mo.facts)
        # inclusive time covers the subtree
        assert root.elapsed_seconds >= base.elapsed_seconds
        assert analyzed.total_seconds == root.elapsed_seconds
        assert root.self_seconds >= 0.0

    def test_render_one_line_per_node(self, snapshot_mo):
        predicate = characterized_by("Diagnosis", diagnosis_value(11))
        plan = ProjectNode(
            SelectNode(Base(snapshot_mo), predicate), ("Age",))
        text = explain_analyze(plan).render()
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("π[")
        assert lines[1].lstrip().startswith("σ[")
        assert lines[2].lstrip().startswith("Base(")
        assert all("facts" in line and "ms" in line for line in lines)

    def test_base_only_plan(self, snapshot_mo):
        analyzed = explain_analyze(Base(snapshot_mo))
        assert analyzed.mo is snapshot_mo
        assert analyzed.root.children == ()
        assert analyzed.root.facts_in == analyzed.root.facts_out == \
            len(snapshot_mo.facts)
