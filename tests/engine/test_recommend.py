"""Tests for the materialization advisor."""

import pytest

from repro.algebra import SetCount
from repro.casestudy.icd import IcdShape
from repro.engine import PreAggregateStore
from repro.engine.recommend import (
    MaterializationRecommendation,
    apply_recommendations,
    recommend_materializations,
)
from repro.workloads.generator import ClinicalConfig, generate_clinical

FAMILY = {"Diagnosis": "Diagnosis Family"}
GROUP = {"Diagnosis": "Diagnosis Group"}
LOW = {"Diagnosis": "Low-level Diagnosis"}


class TestStrictWorkload:
    def test_finer_grouping_covers_coarser(self, strict_clinical):
        recs = recommend_materializations(
            strict_clinical.mo, [LOW, FAMILY, GROUP], budget=1)
        first = recs[0]
        assert first.grouping == tuple(sorted(LOW.items()))
        assert len(first.serves) == 3
        assert all("out of budget" not in r.reason for r in recs)

    def test_budget_zero_leaves_everything_to_base(self, strict_clinical):
        recs = recommend_materializations(
            strict_clinical.mo, [FAMILY, GROUP], budget=0)
        assert all(r.reason.startswith("requested but out of budget")
                   for r in recs)

    def test_apply_feeds_store(self, strict_clinical):
        store = PreAggregateStore(strict_clinical.mo)
        recs = recommend_materializations(
            strict_clinical.mo, [FAMILY, GROUP], budget=1)
        count = apply_recommendations(store, recs)
        assert count == 1
        assert store.get(SetCount(), FAMILY) is not None
        # the covered coarser grouping is answerable from the store
        combined = store.roll_up(SetCount(), FAMILY, GROUP)
        direct = PreAggregateStore(
            strict_clinical.mo).compute_from_base(SetCount(), GROUP)
        assert {k[0].sid: v for k, v in combined.items()} == \
            {k[0].sid: v for k, v in direct.items()}


class TestAgreesWithStore:
    def test_covering_recommendations_are_rollups_the_store_accepts(self):
        """A strict ICD where some diagnoses are recorded at family
        level: Low-level cells lose those patients, so the store refuses
        to roll them up — a "covers" recommendation must never serve a
        grouping the store would answer from base data instead."""
        mo = generate_clinical(ClinicalConfig(
            n_patients=60,
            diagnoses_per_patient=(1, 1),
            family_granularity_prob=0.1,
            icd=IcdShape(n_groups=3, families_per_group=(2, 4),
                         lowlevels_per_family=(2, 4),
                         extra_parent_prob=0.0),
            seed=99,
        )).mo
        recs = recommend_materializations(mo, [LOW, FAMILY, GROUP],
                                          budget=3)
        covering = [r for r in recs if r.reason.startswith("covers")]
        assert covering
        store = PreAggregateStore(mo)
        for rec in covering:
            stored = store.materialize(SetCount(), rec.grouping_dict())
            for served in rec.serves:
                assert store.can_roll_up(stored, SetCount(), dict(served))


class TestNonStrictWorkload:
    def test_non_summarizable_groupings_are_mandatory(self,
                                                      small_clinical):
        recs = recommend_materializations(
            small_clinical.mo, [FAMILY, GROUP], budget=0)
        reasons = {r.grouping: r.reason for r in recs}
        assert reasons[tuple(sorted(FAMILY.items()))].startswith(
            "mandatory")
        assert reasons[tuple(sorted(GROUP.items()))].startswith(
            "mandatory")

    def test_mandatory_do_not_consume_budget(self, small_clinical,
                                             strict_clinical):
        # mix: non-strict diagnosis groupings are mandatory; a strict
        # residence grouping can still win the budget
        recs = recommend_materializations(
            small_clinical.mo,
            [GROUP, {"Residence": "County"}, {"Residence": "Region"}],
            budget=1)
        by_reason = {}
        for r in recs:
            by_reason.setdefault(r.reason.split(":")[0], []).append(r)
        assert len(by_reason.get("mandatory", [])) == 1
        assert any("covers" in r.reason for r in recs)


class TestShapes:
    def test_recommendation_is_hashable_and_dict_convertible(self):
        rec = MaterializationRecommendation(
            grouping=(("Diagnosis", "Diagnosis Family"),),
            serves=((("Diagnosis", "Diagnosis Family"),),),
            reason="x")
        assert rec.grouping_dict() == FAMILY
        assert hash(rec)

    def test_multi_dimension_groupings(self, strict_clinical):
        fine = {"Diagnosis": "Diagnosis Family", "Residence": "County"}
        coarse = {"Diagnosis": "Diagnosis Group", "Residence": "Region"}
        recs = recommend_materializations(
            strict_clinical.mo, [fine, coarse], budget=1)
        first = recs[0]
        assert first.grouping == tuple(sorted(fine.items()))
        assert len(first.serves) == 2

    def test_disjoint_dimension_sets_not_covered(self, strict_clinical):
        recs = recommend_materializations(
            strict_clinical.mo,
            [{"Diagnosis": "Diagnosis Family"}, {"Residence": "County"}],
            budget=2)
        served = [r for r in recs if "covers" in r.reason]
        assert all(len(r.serves) == 1 for r in served)
