"""Tests for the logical plan optimizer, including the equivalence
property over random plans."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import characterized_by, conjunction, sid_satisfies
from repro.algebra.predicates import Predicate
from repro.casestudy import diagnosis_value
from repro.engine import (
    Base,
    ProjectNode,
    SelectNode,
    evaluate,
    explain,
    optimize,
)
from tests.strategies import small_mos


def _facts(mo):
    return {f.fid for f in mo.facts}


class TestRewrites:
    def test_select_chain_on_one_dimension_is_not_fused(
            self, two_group_clinical):
        """Each σ of a chain picks its own witness value, while a
        conjunction shares one per dimension, so fusing this chain into
        σ[p1 ∧ p2] would drop patients."""
        mo = two_group_clinical.mo
        groups = two_group_clinical.icd.groups
        p1 = characterized_by("Diagnosis", groups[2])
        p2 = characterized_by("Diagnosis", groups[4])
        plan = SelectNode(SelectNode(Base(mo), p1), p2)
        chained = _facts(evaluate(plan))
        fused = _facts(evaluate(SelectNode(Base(mo), conjunction(p1, p2))))
        assert fused < chained
        optimized = optimize(plan)
        assert optimized == plan
        assert _facts(evaluate(optimized)) == chained

    def test_selects_over_different_dimensions_stay_stacked(
            self, snapshot_mo):
        """σ chains are never fused, over different dimensions too."""
        p1 = characterized_by("Diagnosis", diagnosis_value(11))
        p2 = sid_satisfies("Age", lambda a: a >= 40)
        plan = SelectNode(SelectNode(Base(snapshot_mo), p1), p2)
        optimized = optimize(plan)
        assert isinstance(optimized, SelectNode)
        assert isinstance(optimized.child, SelectNode)
        assert _facts(evaluate(plan)) == _facts(evaluate(optimized)) == {2}

    def test_project_fusion(self, snapshot_mo):
        plan = ProjectNode(
            ProjectNode(Base(snapshot_mo), ("Diagnosis", "Age", "Name")),
            ("Age",))
        optimized = optimize(plan)
        assert isinstance(optimized, ProjectNode)
        assert isinstance(optimized.child, Base)
        assert optimized.dimensions == ("Age",)

    def test_select_pushed_below_project(self, snapshot_mo):
        p = characterized_by("Diagnosis", diagnosis_value(11))
        plan = SelectNode(
            ProjectNode(Base(snapshot_mo), ("Diagnosis", "Age")), p)
        optimized = optimize(plan)
        assert isinstance(optimized, ProjectNode)
        assert isinstance(optimized.child, SelectNode)
        assert _facts(evaluate(plan)) == _facts(evaluate(optimized))

    def test_select_not_pushed_when_dimension_projected_away(
            self, snapshot_mo):
        p = characterized_by("Diagnosis", diagnosis_value(11))
        plan = SelectNode(ProjectNode(Base(snapshot_mo), ("Age",)), p)
        # the predicate needs Diagnosis, which π removed: the plan is
        # ill-formed and must stay untouched so evaluation reports it
        optimized = optimize(plan)
        assert isinstance(optimized, SelectNode)
        from repro.core.errors import SchemaError

        with pytest.raises(SchemaError):
            evaluate(optimized)

    def test_fixpoint_idempotent(self, snapshot_mo):
        p = characterized_by("Diagnosis", diagnosis_value(11))
        plan = SelectNode(
            ProjectNode(Base(snapshot_mo), ("Diagnosis", "Age")), p)
        once = optimize(plan)
        assert optimize(once) == once

    def test_explain(self, snapshot_mo):
        p = characterized_by("Diagnosis", diagnosis_value(11))
        text = explain(SelectNode(Base(snapshot_mo), p))
        assert text.splitlines()[0].startswith("σ[")
        assert "Base(Patient)" in text


@st.composite
def plans(draw):
    mo = draw(small_mos(n_dims=2))
    plan = Base(mo)
    names = list(mo.dimension_names)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            constrained = draw(st.sampled_from(names))
            # predicate: any non-top characterizing value exists
            plan = SelectNode(plan, Predicate(
                dims=(constrained,),
                test=lambda values, ctx, c=constrained:
                    not values[c].is_top,
                description=f"{constrained} known"))
        else:
            plan = ProjectNode(plan, tuple(names))
    return plan


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans())
def test_optimizer_preserves_semantics(plan):
    naive = evaluate(plan)
    optimized = evaluate(optimize(plan))
    assert naive.facts == optimized.facts
    assert set(naive.dimension_names) == set(optimized.dimension_names)
    for name in naive.dimension_names:
        assert set(naive.relation(name).pairs()) == \
            set(optimized.relation(name).pairs())
