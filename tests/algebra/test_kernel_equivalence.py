"""Satellite: the 3-way α equivalence ladder.

``aggregate(use_kernel=True)`` (columnar batch kernels) ≡
``aggregate(use_kernel=False)`` (interned object path) ≡
``aggregate(use_index=False)`` (the naive oracle), across random MOs,
groupings, imprecise multi-valued characterizations, and post-mutation
replays — plus unit coverage for the columnar layer's fallback rules
and the new bulk accessors.

Identity caveat, documented in docs/PERFORMANCE.md: all measures here
are integers, for which the kernels' fact-id-order accumulation is
exactly equal to the object path's set-iteration-order accumulation.
The single representation difference the ladder tolerates is SUM of a
measureless group — ``int 0`` on the object path vs ``float 0.0`` from
the kernel — which the numeric canonicalization below equates (they
compare ``==`` everywhere in the engine).
"""

import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import (
    Avg,
    CountDim,
    Max,
    Median,
    Min,
    SetCount,
    Sum,
    aggregate,
)
from repro.core.aggtypes import AggregationType
from repro.core.category import CategoryType
from repro.core.dimension import Dimension, DimensionType
from repro.core.errors import AlgebraError
from repro.core.helpers import make_result_spec
from repro.core.interning import InternTable
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.engine import columnar as columnar_module
from repro.engine.rollup_index import MULTI_VALUED, UNCHARACTERIZED
from repro.obs import metrics

from tests.strategies import small_dimensions

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MEASURE_VALUES = [DimensionValue(sid=j, label=str(j)) for j in range(5)]


def _measure_dimension():
    ctype = CategoryType("MeasureL0", AggregationType.SUM, is_bottom=True)
    dimension = Dimension(DimensionType("Measure", [ctype], []))
    for value in _MEASURE_VALUES:
        dimension.add_value("MeasureL0", value)
    return dimension


@st.composite
def measured_mos(draw, n_dims=None):
    """A small MO with 1-2 random grouping dimensions plus an integer
    ``Measure`` dimension (sids 0-4), so every measure function is
    exactly representable and the ladder can demand equality."""
    if n_dims is None:
        n_dims = draw(st.integers(min_value=1, max_value=2))
    dimensions, inventories = {}, {}
    for i in range(n_dims):
        name = f"Dim{i}"
        dimension, values = draw(small_dimensions(name=name))
        dimensions[name] = dimension
        inventories[name] = [v for level in values for v in level]
    dimensions["Measure"] = _measure_dimension()
    schema = FactSchema("T", [d.dtype for d in dimensions.values()])
    mo = MultidimensionalObject(schema=schema, dimensions=dimensions,
                                kind=TimeKind.SNAPSHOT)
    n_facts = draw(st.integers(min_value=0, max_value=6))
    for fid in range(n_facts):
        fact = Fact(fid=fid, ftype="T")
        mo.add_fact(fact)
        for name in dimensions:
            if name == "Measure":
                chosen = draw(st.lists(st.sampled_from(_MEASURE_VALUES),
                                       min_size=0, max_size=2, unique=True))
                if not chosen:
                    mo.relate(fact, name, dimensions[name].top_value)
                for value in chosen:
                    mo.relate(fact, name, value)
                continue
            n_links = draw(st.integers(min_value=1, max_value=2))
            for _ in range(n_links):
                use_top = draw(st.booleans()) and n_links == 1
                if use_top or not inventories[name]:
                    value = dimensions[name].top_value
                else:
                    value = draw(st.sampled_from(inventories[name]))
                mo.relate(fact, name, value)
    grouping = {}
    for i in range(n_dims):
        name = f"Dim{i}"
        if draw(st.booleans()):
            categories = [c.name for c in
                          dimensions[name].dtype.category_types()]
            grouping[name] = draw(st.sampled_from(categories))
    return mo, grouping


_FUNCTIONS = [
    SetCount(),
    CountDim("Measure"),
    Sum("Measure"),
    Min("Measure"),
    Max("Measure"),
    Avg("Measure"),
]


def _canon_raw(sid):
    """Result surrogates, numerically canonicalized: NaN is one token
    (NaN != NaN would make equal results look distinct) and int/float
    zero collapse (SUM of a measureless group)."""
    if isinstance(sid, bool) or not isinstance(sid, (int, float)):
        return repr(sid)
    if isinstance(sid, float) and math.isnan(sid):
        return "nan"
    return repr(float(sid))


def _rows(agg, grouping_names):
    """Canonical output rows: (grouping values, member fids, results).
    Member fids are the true group identity; everything else is repr'd
    through sorted lists because frozenset iteration order is not
    canonical across construction orders."""
    rows = []
    for fact in agg.facts:
        combo = tuple(
            sorted(repr(v) for v in agg.relation(name).values_of(fact))
            for name in grouping_names
        )
        members = tuple(sorted(m.fid for m in fact.members))
        results = tuple(sorted(
            _canon_raw(v.sid)
            for v in agg.relation("Result").values_of(fact)
        ))
        rows.append((combo, members, results))
    return sorted(rows)


def _three_way(mo, function, grouping):
    names = sorted(grouping)
    ladder = []
    for kwargs in ({"use_kernel": True}, {"use_kernel": False},
                   {"use_index": False}):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            agg = aggregate(mo, function, dict(grouping), make_result_spec(),
                            strict_types=False, **kwargs)
        ladder.append(_rows(agg, names))
    kernel, object_path, naive = ladder
    assert kernel == naive, (
        f"kernel α disagrees with the naive oracle for {function.name} "
        f"grouped by {grouping}")
    assert object_path == naive, (
        f"object-path α disagrees with the naive oracle for "
        f"{function.name} grouped by {grouping}")


@_settings
@given(measured_mos())
def test_three_way_equivalence(case):
    mo, grouping = case
    for function in _FUNCTIONS:
        _three_way(mo, function, grouping)


@_settings
@given(measured_mos(), st.data())
def test_equivalence_survives_mutation(case, data):
    """Mutating the MO after a kernel α (new fact, plus an extra —
    possibly imprecision-introducing — characterization of an existing
    fact) must refresh the columnar cache, not poison it: the layout is
    patched or rebuilt, and the ladder holds again on the replay."""
    mo, grouping = case
    _three_way(mo, SetCount(), grouping)
    builds = metrics.counter("columnar.build")
    patches = metrics.counter("columnar.patch")
    before = builds.value + patches.value

    fact = Fact(fid=len(mo.facts) + 100, ftype="T")
    mo.add_fact(fact)
    for name in mo.dimension_names:
        dimension = mo.dimension(name)
        bottom = dimension.bottom_category.members()
        value = (data.draw(st.sampled_from(sorted(bottom, key=repr)))
                 if bottom else dimension.top_value)
        mo.relate(fact, name, value)
    if mo.facts and grouping:
        name = sorted(grouping)[0]
        bottom = mo.dimension(name).bottom_category.members()
        if bottom:
            target = data.draw(st.sampled_from(sorted(mo.facts,
                                                      key=lambda f: f.fid)))
            extra = data.draw(st.sampled_from(sorted(bottom, key=repr)))
            mo.relate(target, name, extra)

    for function in (SetCount(), Sum("Measure")):
        _three_way(mo, function, grouping)
    assert builds.value + patches.value > before, \
        "mutation must force a columnar patch or rebuild"


@_settings
@given(measured_mos())
def test_columnar_cache_reuses_fresh_layouts(case):
    mo, grouping = case
    spec = make_result_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        aggregate(mo, SetCount(), dict(grouping), spec, strict_types=False)
        hits = metrics.counter("columnar.hit")
        before = hits.value
        aggregate(mo, SetCount(), dict(grouping), spec, strict_types=False)
    assert hits.value > before, "an unmutated replay must hit the cache"


# -- fallback rules ---------------------------------------------------------


def _tiny_mo():
    """Two facts over one 2-value grouping dimension and the integer
    measure dimension; one fact is imprecise (both grouping values)."""
    ctype = CategoryType("GL0", AggregationType.SUM, is_bottom=True)
    gdim = Dimension(DimensionType("G", [ctype], []))
    a = DimensionValue(sid=("G", 0), label="a")
    b = DimensionValue(sid=("G", 1), label="b")
    gdim.add_value("GL0", a)
    gdim.add_value("GL0", b)
    dimensions = {"G": gdim, "Measure": _measure_dimension()}
    schema = FactSchema("T", [d.dtype for d in dimensions.values()])
    mo = MultidimensionalObject(schema=schema, dimensions=dimensions,
                                kind=TimeKind.SNAPSHOT)
    f0, f1 = Fact(fid=0, ftype="T"), Fact(fid=1, ftype="T")
    for fact in (f0, f1):
        mo.add_fact(fact)
    mo.relate(f0, "G", a)
    mo.relate(f1, "G", a)
    mo.relate(f1, "G", b)  # imprecise: two bottom values
    mo.relate(f0, "Measure", _MEASURE_VALUES[2])
    mo.relate(f1, "Measure", _MEASURE_VALUES[3])
    return mo


def test_radix_overflow_falls_back_to_object_path(monkeypatch):
    mo = _tiny_mo()
    monkeypatch.setattr(columnar_module, "MAX_COMPOSED_KEY", 1)
    fallbacks = metrics.counter("columnar.fallback.radix")
    indexed = metrics.counter("aggregate.path.indexed")
    f0, i0 = fallbacks.value, indexed.value
    _three_way(mo, Sum("Measure"), {"G": "GL0"})
    assert fallbacks.value > f0
    assert indexed.value > i0


def test_kernelless_function_counts_a_fallback():
    """Median has no batch kernel: α still forms columnar groups but
    evaluates per group, counting aggregate.kernel.fallback."""
    mo = _tiny_mo()
    fallbacks = metrics.counter("aggregate.kernel.fallback")
    before = fallbacks.value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        aggregate(mo, Median("Measure"), {"G": "GL0"}, make_result_spec(),
                  strict_types=False)
    assert fallbacks.value > before
    _three_way(mo, Median("Measure"), {"G": "GL0"})


def test_poisoned_measure_column_matches_object_path():
    """A non-numeric surrogate poisons the measure column: the kernel
    path must fall back and raise the same AlgebraError the object and
    naive paths raise."""
    mo = _tiny_mo()
    bad = DimensionValue(sid=("not", "numeric"), label="bad")
    mo.dimension("Measure").add_value("MeasureL0", bad)
    mo.relate(next(iter(mo.facts)), "Measure", bad)
    fallbacks = metrics.counter("aggregate.kernel.fallback")
    before = fallbacks.value
    for kwargs in ({"use_kernel": True}, {"use_kernel": False},
                   {"use_index": False}):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(AlgebraError):
                aggregate(mo, Sum("Measure"), {"G": "GL0"},
                          make_result_spec(), strict_types=False, **kwargs)
    assert fallbacks.value > before


# -- bulk accessors ---------------------------------------------------------


def test_intern_table_ids_of():
    table = InternTable()
    x = table.intern("x")
    y = table.intern("y")
    assert table.ids_of(["y", "missing", "x", "y"]) == [y, None, x, y]
    assert table.ids_of([]) == []


def test_grouping_value_id_array_sentinels():
    mo = _tiny_mo()
    index = mo.rollup_index()
    column, multi = index.grouping_value_id_array("G", "GL0")
    fid0 = index.fact_id(next(f for f in mo.facts if f.fid == 0))
    fid1 = index.fact_id(next(f for f in mo.facts if f.fid == 1))
    assert column[fid0] >= 0  # precise: one value id
    assert column[fid1] == MULTI_VALUED
    assert len(multi[fid1]) == 2
    # the measureless grouping column of the other dimension: a fact
    # related only to ⊤ is uncharacterized at the bottom level
    mcolumn, mmulti = index.grouping_value_id_array("Measure", "MeasureL0")
    assert mmulti == {}
    assert all(vid != MULTI_VALUED for vid in mcolumn)
    assert UNCHARACTERIZED == -1 and MULTI_VALUED == -2


def test_grouping_value_id_array_evicts_on_mutation():
    mo = _tiny_mo()
    index = mo.rollup_index()
    column, _ = index.grouping_value_id_array("G", "GL0")
    again, _ = index.grouping_value_id_array("G", "GL0")
    assert again is column  # cached while fresh
    extra = Fact(fid=7, ftype="T")
    mo.add_fact(extra)
    mo.relate(extra, "G", next(iter(
        mo.dimension("G").bottom_category.members())))
    rebuilt, _ = index.grouping_value_id_array("G", "GL0")
    assert rebuilt is not column
    assert len(rebuilt) >= len(column)


def test_peek_never_builds():
    mo = _tiny_mo()
    store = mo.rollup_index().columnar()
    builds = metrics.counter("columnar.build")
    before = builds.value
    assert store.peek({"G": "GL0"}) is None
    assert builds.value == before
    built = store.grouping({"G": "GL0"})
    assert built is not None
    assert builds.value == before + 1
    assert store.peek({"G": "GL0"}) is built
