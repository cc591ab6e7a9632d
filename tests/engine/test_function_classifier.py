"""One function classifier: a function whose ``combine`` the analyzer
refutes (MD076) counts as not distributive wherever a summarizability
verdict is read, so neither the pre-aggregate store nor the cube's
shared scan combines its cells, and α's aggtype rule does not trust it.
"""

from __future__ import annotations

import warnings

import pytest

from repro.algebra import aggregate
from repro.algebra.functions import (Avg, Max, Median, Min, SetCount, Sum,
                                     is_distributive)
from repro.core.helpers import make_result_spec
from repro.engine import CubeBuilder, PreAggregateStore, Query
from repro.engine.query import _alpha_rows
from repro.obs import metrics
from repro.workloads import ClinicalConfig, generate_clinical


class LyingCount(SetCount):
    """Set-count with a max ``combine`` that still declares itself
    distributive: merged partials undercount every merged group."""

    distributive = True

    def combine(self, partials):
        return max(int(p) for p in partials)


@pytest.fixture(scope="module")
def clinical_mo():
    return generate_clinical(ClinicalConfig(n_patients=200, seed=3)).mo


def _oracle(mo, function, grouping):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _alpha_rows(aggregate(
            mo, function, grouping, make_result_spec(name="__query_result"),
            use_index=False), sorted(grouping))


@pytest.mark.parametrize("function, declared", [
    (SetCount(), True), (Sum("Age"), True), (Min("Age"), True),
    (Max("Age"), True), (Avg("Age"), False), (Median("Age"), False)])
def test_builtins_classify_as_they_declare(function, declared):
    assert function.distributive is declared
    assert is_distributive(function) is declared


def test_a_refuted_declaration_is_not_distributive(clinical_mo):
    query = Query(clinical_mo).rollup("Residence", "Region")
    assert "MD076" in {d.code for d in query.check(LyingCount())}
    assert LyingCount.distributive is True
    assert is_distributive(LyingCount()) is False


def test_the_store_answers_a_liar_through_alpha(clinical_mo):
    """A stored County aggregate must not be combined up to Region: the
    query answers through α and equals the oracle."""
    store = PreAggregateStore(clinical_mo)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        store.materialize(LyingCount(), {"Residence": "County"})
        query = Query(clinical_mo, store=store).rollup("Residence", "Region")
        assert query.explain(LyingCount(), cache=False).path == "alpha"
        rows = query.execute(LyingCount(), cache=False)
    assert not store.can_roll_up(
        store.get(LyingCount(), {"Residence": "County"}), LyingCount(),
        {"Residence": "Region"})
    assert rows == _oracle(clinical_mo, LyingCount(), {"Residence": "Region"})


def test_the_cube_never_rolls_a_liar_up_from_its_parent(clinical_mo):
    """The shared scan base-scans every cuboid of a liar, so its cells
    equal the base path's; SetCount on the same MO does roll up."""
    rolled = metrics.counter("cube.rollup_from_parent")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        before = rolled.value
        shared = CubeBuilder(clinical_mo, function=LyingCount(),
                             shared_scan=True)
        shared.materialize_all()
        assert rolled.value == before
        base = CubeBuilder(clinical_mo, function=LyingCount(),
                           shared_scan=False)
        base.materialize_all()
        honest = CubeBuilder(clinical_mo, function=SetCount(),
                             shared_scan=True)
        honest.materialize_all()
    assert rolled.value > before
    for grouping, _name, stored in shared.store.entries():
        assert stored.via == "base"
        assert stored.results == base.store.get(
            LyingCount(), grouping).results
