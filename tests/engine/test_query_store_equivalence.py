"""Property: a query answered through a pre-aggregate store returns
exactly what the store-less path returns — including after arbitrary MO
mutations in between (the store must never serve stale or unsafe
combinations)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import SetCount
from repro.core.aggtypes import AggregationType
from repro.core.category import CategoryType
from repro.core.dimension import Dimension, DimensionType
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.engine import PreAggregateStore, Query
from tests.strategies import small_mos

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _draw_grouping(data, mo):
    """A random grouping: for each dimension, maybe group at one of its
    categories (any level, ⊤ included — the trivial grouping)."""
    grouping = {}
    for name in mo.dimension_names:
        categories = [
            ctype.name
            for ctype in mo.dimension(name).dtype.category_types()
        ]
        choice = data.draw(
            st.sampled_from([None] + categories),
            label=f"grouping[{name}]",
        )
        if choice is not None:
            grouping[name] = choice
    return grouping


def _query(mo, store, grouping):
    query = Query(mo, store=store)
    for name, category in grouping.items():
        query = query.rollup(name, category)
    return query


def _rows(mo, store, grouping):
    return _query(mo, store, grouping).execute(SetCount(), cache=False)


def _mutate(data, mo, next_fid):
    """One random mutation: a new fact related to a random value in
    each dimension (⊤ when the dimension has no other values)."""
    fact = Fact(fid=next_fid, ftype=mo.schema.fact_type)
    mo.add_fact(fact)
    for name in mo.dimension_names:
        dimension = mo.dimension(name)
        candidates = [
            value
            for ctype in dimension.dtype.category_types()
            for value in dimension.category(ctype.name).members()
        ] or [dimension.top_value]
        value = data.draw(st.sampled_from(candidates),
                          label=f"mutate[{name}]")
        mo.relate(fact, name, value)


class TestStoreEquivalence:
    @_SETTINGS
    @given(data=st.data())
    def test_store_matches_direct(self, data):
        mo = data.draw(small_mos())
        store = PreAggregateStore(mo)
        # materialize a few random groupings the store may answer from
        for _ in range(data.draw(st.integers(0, 2), label="n_mat")):
            store.materialize(SetCount(), _draw_grouping(data, mo))
        grouping = _draw_grouping(data, mo)
        assert _rows(mo, store, grouping) == _rows(mo, None, grouping)

    @_SETTINGS
    @given(data=st.data())
    def test_store_matches_direct_across_mutations(self, data):
        """Materialize, query, mutate, query again — the stored results
        must never leak into post-mutation answers."""
        mo = data.draw(small_mos())
        store = PreAggregateStore(mo)
        grouping = _draw_grouping(data, mo)
        store.materialize(SetCount(), grouping)
        assert _rows(mo, store, grouping) == _rows(mo, None, grouping)
        n_mutations = data.draw(st.integers(1, 3), label="n_mutations")
        for i in range(n_mutations):
            _mutate(data, mo, next_fid=10_000 + i)
            assert _rows(mo, store, grouping) == _rows(mo, None, grouping)


def _imprecise_merge_mo():
    """The minimal MO where α's set-fact merge shows in the rows: fact 0
    is imprecise at Dim0's upper level (its bottom value has two
    parents) and multi-valued on Dim1, so three of its four group
    combinations share the member set {f0} and merge into one set-fact;
    fact 1 shares the fourth combination precisely."""
    d0 = Dimension(DimensionType("Dim0", [
        CategoryType("Dim0L0", AggregationType.SUM, is_bottom=True),
        CategoryType("Dim0L1", AggregationType.CONSTANT),
    ], [("Dim0L0", "Dim0L1")]))
    a = DimensionValue(sid="a")
    b0, b1 = DimensionValue(sid="b0"), DimensionValue(sid="b1")
    d0.add_value("Dim0L0", a)
    d0.add_value("Dim0L1", b0)
    d0.add_value("Dim0L1", b1)
    d0.add_edge(a, b0)
    d0.add_edge(a, b1)
    d1 = Dimension(DimensionType("Dim1", [
        CategoryType("Dim1L0", AggregationType.SUM, is_bottom=True),
    ], []))
    c0, c1 = DimensionValue(sid="c0"), DimensionValue(sid="c1")
    d1.add_value("Dim1L0", c0)
    d1.add_value("Dim1L0", c1)
    dims = {"Dim0": d0, "Dim1": d1}
    mo = MultidimensionalObject(
        schema=FactSchema("T", [d.dtype for d in dims.values()]),
        dimensions=dims, kind=TimeKind.SNAPSHOT)
    f0, f1 = Fact(fid=0, ftype="T"), Fact(fid=1, ftype="T")
    mo.add_fact(f0)
    mo.add_fact(f1)
    mo.relate(f0, "Dim0", a)   # ancestors at L1: both b0 and b1
    mo.relate(f0, "Dim1", c0)
    mo.relate(f0, "Dim1", c1)  # multi-valued
    mo.relate(f1, "Dim0", b0)  # characterized directly at L1
    mo.relate(f1, "Dim1", c0)
    return mo, (b0, c0)


class TestImpreciseMergeRegression:
    """Regression for the store path serving exact per-combination
    cells where the α path merges combinations selecting the same facts
    and re-expands their cross product (found by the property above)."""

    GROUPING = {"Dim0": "Dim0L1", "Dim1": "Dim1L0"}

    def test_store_matches_direct_on_merged_groups(self):
        mo, _ = _imprecise_merge_mo()
        store = PreAggregateStore(mo)
        store.materialize(SetCount(), self.GROUPING)
        assert _rows(mo, store, self.GROUPING) == \
            _rows(mo, None, self.GROUPING)

    def test_merged_expansion_duplicates_the_shared_combination(self):
        """Both paths present (b0, c0) twice — once as the precise
        group {f0, f1} and once re-expanded from the merged {f0} —
        with the value repr as the deterministic tiebreak.  The SQL
        backend answers the merged set-fact itself (no fallback) with
        the same rows, byte for byte."""
        mo, (b0, c0) = _imprecise_merge_mo()
        direct = _rows(mo, None, self.GROUPING)
        assert len(direct) == 5
        shared = [n for g, n in direct
                  if (g["Dim0"], g["Dim1"]) == (b0, c0)]
        assert shared == [1, 2]
        sql = _query(mo, None, self.GROUPING).explain(
            SetCount(), backend="sql", cache=False)
        assert sql.path == "sql"
        assert repr(sql.rows) == repr(direct)
