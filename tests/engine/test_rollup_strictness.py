"""Tests for the rollup index's cached hierarchy-property answers and
its summarizability verdicts, against the naive property checkers."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.properties import (
    check_summarizability,
    hierarchy_is_partitioning,
    hierarchy_is_strict,
    mapping_is_strict,
)
from repro.obs import metrics
from tests.strategies import small_mos


def _assert_verdict_matches_oracle(mo, grouping):
    verdict = mo.rollup_index().summarizability(grouping,
                                                distributive=True)
    assert verdict == check_summarizability(mo, grouping,
                                            function_distributive=True)
    return verdict


class TestIndexedEqualsNaive:
    def test_case_study_dimensions(self, snapshot_mo):
        index = snapshot_mo.rollup_index()
        for name in snapshot_mo.dimension_names:
            dimension = snapshot_mo.dimension(name)
            assert index.hierarchy_strict(name) == \
                hierarchy_is_strict(dimension), name
            assert index.hierarchy_partitioning(name) == \
                hierarchy_is_partitioning(dimension), name

    def test_mapping_level(self, snapshot_mo):
        index = snapshot_mo.rollup_index()
        diag = snapshot_mo.dimension("Diagnosis")
        for lower, upper in [("Low-level Diagnosis", "Diagnosis Family"),
                             ("Diagnosis Family", "Diagnosis Group")]:
            assert index.mapping_strict("Diagnosis", lower, upper) == \
                mapping_is_strict(diag, lower, upper)

    @given(mo=small_mos())
    @settings(max_examples=40, deadline=None)
    def test_random_mos(self, mo):
        index = mo.rollup_index()
        for name in mo.dimension_names:
            dimension = mo.dimension(name)
            assert index.hierarchy_strict(name) == \
                hierarchy_is_strict(dimension)
            assert index.hierarchy_partitioning(name) == \
                hierarchy_is_partitioning(dimension)

    def test_properties_route_through_index(self, snapshot_mo):
        """The paper-level property functions answer from the index
        when handed one, without changing the answer."""
        index = snapshot_mo.rollup_index()
        for name in snapshot_mo.dimension_names:
            dimension = snapshot_mo.dimension(name)
            assert hierarchy_is_strict(dimension, index=index) == \
                hierarchy_is_strict(dimension)
            assert hierarchy_is_partitioning(dimension, index=index) == \
                hierarchy_is_partitioning(dimension)

    def test_cache_hit_counter(self, snapshot_mo):
        index = snapshot_mo.rollup_index()
        index.hierarchy_strict("Residence")
        before = metrics.counter("rollup_index.strictness.hit").value
        index.hierarchy_strict("Residence")
        after = metrics.counter("rollup_index.strictness.hit").value
        assert after == before + 1

    def test_paths_count_only_facts_of_the_mo(self):
        """A relation may mention a fact outside ``F`` (added to the
        relation directly); like the naive check, the strict-path
        verdict only counts facts of ``F``."""
        from repro.core.values import Fact
        from repro.workloads import generate_retail

        mo = generate_retail().mo
        product = mo.dimension("Product")
        stray = Fact(fid="stray", ftype=mo.schema.fact_type)
        for department in sorted(
                product.category("Department").members(), key=repr)[:2]:
            bottom = sorted(product.descendants(department)
                            & product.bottom_category.members(), key=repr)
            mo.relation("Product").add(stray, bottom[0])
        verdict = _assert_verdict_matches_oracle(
            mo, {"Product": "Department"})
        assert verdict.paths_strict


class TestStaticFastPath:
    """Declared, undeclared, restricted-Pred and non-strict-path
    groupings: each asserts the index's verdict against
    :func:`check_summarizability`."""

    def test_fast_path_taken_for_declared_dimensions(self):
        """Retail's linear hierarchies are declared strict+partitioning
        and their extensions agree."""
        from repro.workloads import generate_retail

        mo = generate_retail().mo
        verdict = _assert_verdict_matches_oracle(
            mo, {"Product": "Department"})
        assert verdict.summarizable

    def test_fast_path_declined_for_parallel_paths(self, snapshot_mo):
        """DOB is declared strict+partitioning, but Day's predecessors
        include Week, which is not below Year — the partitioning test
        up to Year must use the restricted Pred sets ({Month} for Day),
        not the full hierarchy's."""
        verdict = _assert_verdict_matches_oracle(snapshot_mo,
                                                 {"DOB": "Year"})
        assert verdict.summarizable

    def test_fast_path_skipped_for_undeclared(self):
        """Undeclared dimensions get the same cached verdict as
        declared ones; clinical Diagnosis paths are multi-valued."""
        from repro.workloads import ClinicalConfig, generate_clinical

        mo = generate_clinical(ClinicalConfig(n_patients=20,
                                              seed=7)).mo
        verdict = _assert_verdict_matches_oracle(
            mo, {"Diagnosis": "Diagnosis Group"})
        assert not verdict.summarizable

    def test_fast_path_skipped_when_paths_not_strict(self, snapshot_mo):
        """Residence's hierarchy is declared (and is) strict, but the
        untimed fact paths are not."""
        verdict = _assert_verdict_matches_oracle(snapshot_mo,
                                                 {"Residence": "County"})
        assert not verdict.paths_strict
        assert not verdict.summarizable
