"""Property: the sharded process-pool backend is invisible to
correctness and honest about its admission gate.

Across random mutation scripts, shard counts (1, 2, 7, and the
machine's cpu count), and every function class the executor admits,
``backend="sharded"`` rows are byte-identical to ``backend="memory"``
and to the naive no-index α oracle.  Plans the static analyzer does not
prove SHARDABLE never reach the pool: they raise
:class:`~repro.engine.backends.BackendRefused` carrying *exactly* the
MD07x diagnostic :func:`repro.analyze.shardability.shardability_of`
predicts, with the ``sharded.shards_run`` counter unmoved."""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import (
    SetCount,
    aggregate,
    characterized_by,
    conjunction,
    select,
)
from repro.algebra.functions import Avg, Max, Median, Min, Sum
from repro.analyze import ShardVerdict, shardability_of
from repro.core.helpers import make_result_spec
from repro.core.values import DimensionValue, Fact
from repro.engine import Query
from repro.engine.backends import BackendRefused
from repro.engine.sharded import ShardedBackend
from repro.obs import metrics
from repro.workloads.generator import ClinicalConfig, generate_clinical

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHARD_COUNTS = (1, 2, 7, os.cpu_count() or 2)

#: one admitted function per class: distributive without args,
#: distributive with a measure, algebraic, and the min/max pair whose
#: per-shard nan placeholders exercise the measured-flag merge.
FUNCTIONS = (SetCount(), Sum("Age"), Avg("Age"), Min("Age"), Max("Age"))


def _canon(rows):
    return [
        (tuple(sorted((k, repr(v)) for k, v in group.items())),
         repr(raw), type(raw).__name__)
        for group, raw in rows
    ]


def _naive_rows(mo, function, grouping, dices):
    """The oracle: dice via one σ, aggregate with ``use_index=False``
    and ``use_kernel=False``, then Query's merge-and-re-expand row
    extraction."""
    if dices:
        mo = select(mo, conjunction(*[characterized_by(d, v)
                                      for d, v in dices]))
    aggregated = aggregate(mo, function, grouping,
                           make_result_spec(name="__query_result"),
                           use_index=False)
    names = sorted(grouping)
    rows = []
    for fact in aggregated.facts:
        raw = next(iter(
            aggregated.relation("__query_result").values_of(fact))).sid
        combos = [{}]
        for name in names:
            values = sorted(aggregated.relation(name).values_of(fact),
                            key=repr)
            combos = [{**combo, name: value}
                      for combo in combos for value in values]
        rows.extend((group, raw) for group in combos)
    rows.sort(key=lambda row: (
        tuple(repr(row[0][name]) for name in names), repr(row[1])))
    return rows


def _mutate(data, workload, next_fid):
    """Add a patient: one residence area, one age — the shapes the
    declared-strict Residence hierarchy stays SAFE under."""
    mo = workload.mo
    fact = Fact(fid=next_fid, ftype=mo.schema.fact_type)
    mo.add_fact(fact)
    area = data.draw(st.sampled_from(workload.areas), label="area")
    mo.relate(fact, "Residence", area)
    age_values = [
        v for v in mo.dimension("Age").category("Age").members()
    ]
    mo.relate(fact, "Age",
              data.draw(st.sampled_from(sorted(age_values, key=repr)),
                        label="age"))


def _fresh_query(workload, grouping, dices):
    q = Query(workload.mo)
    for name, category in sorted(grouping.items()):
        q = q.rollup(name, category)
    for name, value in dices:
        q = q.dice(name, value)
    return q


@_SETTINGS
@given(data=st.data())
def test_sharded_equals_memory_equals_naive(data):
    workload = generate_clinical(ClinicalConfig(
        n_patients=data.draw(st.integers(5, 60), label="n_patients"),
        seed=data.draw(st.integers(0, 10_000), label="seed")))
    function = data.draw(st.sampled_from(FUNCTIONS), label="function")
    category = data.draw(
        st.sampled_from(["Area", "County", "Region"]), label="category")
    grouping = {"Residence": category}
    dices = []
    if data.draw(st.booleans(), label="dice?"):
        dices = [("Residence",
                  data.draw(st.sampled_from(workload.regions),
                            label="dice_region"))]
    n_rounds = data.draw(st.integers(1, 3), label="n_rounds")
    for i in range(n_rounds):
        q = _fresh_query(workload, grouping, dices)
        memory = q.execute(function, check=False, cache=False)
        naive = _naive_rows(workload.mo, function, grouping, dices)
        assert _canon(memory) == _canon(naive)
        for n_shards in SHARD_COUNTS:
            sharded = q.execute(
                function, check=False, cache=False,
                backend=ShardedBackend(n_shards=n_shards))
            assert _canon(sharded) == _canon(memory), (
                f"shards={n_shards} diverged for {function.name} "
                f"over {grouping}")
        if i + 1 < n_rounds:
            _mutate(data, workload, next_fid=50_000 + i)


@_SETTINGS
@given(data=st.data())
def test_refusal_quotes_the_analyzers_diagnostic(data):
    """Any plan the analyzer does not prove SHARDABLE raises
    BackendRefused with the exact predicted MD07x diagnostic — and the
    pool never runs a shard for it."""
    workload = generate_clinical(ClinicalConfig(
        n_patients=data.draw(st.integers(5, 25), label="n_patients"),
        seed=data.draw(st.integers(0, 1_000), label="seed")))
    function = data.draw(
        st.sampled_from((Median("Age"), SetCount(), Avg("Age"))),
        label="function")
    # Diagnosis rollups are undeclared (and multi-valued): not SAFE
    dim, cat = data.draw(st.sampled_from(
        [("Residence", "Region"), ("Diagnosis", "Diagnosis Group")]),
        label="rollup")
    q = Query(workload.mo).rollup(dim, cat)
    plan = q.to_plan(function, False)
    verdict, report = shardability_of(plan)
    before = metrics.counter("sharded.shards_run").value
    if verdict is ShardVerdict.SHARDABLE:
        rows = q.execute(function, check=False, cache=False,
                         backend=ShardedBackend(n_shards=2))
        assert _canon(rows) == _canon(
            q.execute(function, check=False, cache=False))
        return
    predicted = [d for d in report.diagnostics
                 if d.code.startswith("MD07")]
    assert predicted, f"non-SHARDABLE verdict without MD07x: {report}"
    with pytest.raises(BackendRefused) as excinfo:
        q.execute(function, check=False, cache=False,
                  backend=ShardedBackend(n_shards=2))
    assert excinfo.value.diagnostic == predicted[0]
    assert metrics.counter("sharded.shards_run").value == before, (
        "a refused plan reached the worker pool")


def test_holistic_never_reaches_the_pool():
    """The ISSUE's named case, pinned without hypothesis so it always
    runs: a HOLISTIC function (Median) refuses with MD070."""
    workload = generate_clinical(ClinicalConfig(n_patients=12, seed=3))
    q = Query(workload.mo).rollup("Residence", "Region")
    before = metrics.counter("sharded.shards_run").value
    with pytest.raises(BackendRefused) as excinfo:
        q.execute(Median("Age"), check=False, cache=False,
                  backend="sharded")
    assert excinfo.value.diagnostic.code == "MD070"
    assert metrics.counter("sharded.shards_run").value == before


def test_sharded_explain_path_and_steps():
    workload = generate_clinical(ClinicalConfig(n_patients=20, seed=5))
    undiced = Query(workload.mo).rollup("Residence", "County")
    diced = undiced.dice("Residence", workload.regions[0])
    for q, dice in ((undiced, []), (diced, ["query.dice"])):
        report = q.explain(Sum("Age"), backend="sharded", cache=False)
        assert report.path == "sharded"
        names = [step.name for step in report.steps]
        assert names == ["query.check", *dice, "sharded.plan",
                         "sharded.map", "sharded.merge"]
        assert _canon(report.rows) == _canon(
            q.execute(Sum("Age"), check=False, cache=False))
        if dice:
            steps = {step.name: step for step in report.steps}
            assert steps["sharded.plan"].facts_in == \
                steps["query.dice"].facts_out


def test_dice_excluding_a_poisoned_measure_still_shards():
    """A non-numeric Age outside the dice leaves the diced query
    shardable, as σ's own MO would; without the dice it refuses."""
    workload = generate_clinical(ClinicalConfig(n_patients=30, seed=6))
    mo = workload.mo
    region = workload.regions[0]
    outside = next(f for f in workload.patients
                   if region not in mo.dimension("Residence").ancestors(
                       next(iter(mo.relation("Residence").values_of(f)))))
    bad = DimensionValue(sid=("not", "numeric"), label="bad")
    mo.dimension("Age").add_value("Age", bad)
    mo.relate(outside, "Age", bad)
    q = Query(mo).rollup("Residence", "County")
    backend = ShardedBackend(n_shards=2)
    diced = q.dice("Residence", region)
    assert _canon(diced.execute(Sum("Age"), check=False, cache=False,
                                backend=backend)) == \
        _canon(diced.execute(Sum("Age"), check=False, cache=False))
    with pytest.raises(BackendRefused) as excinfo:
        q.execute(Sum("Age"), check=False, cache=False, backend=backend)
    assert excinfo.value.diagnostic.code == "MD077"


def test_payload_cache_hits_until_mutation():
    workload = generate_clinical(ClinicalConfig(n_patients=15, seed=8))
    backend = ShardedBackend(n_shards=2)
    q = Query(workload.mo).rollup("Residence", "Region")
    hits = metrics.counter("sharded.payload.cache_hit")
    builds = metrics.counter("sharded.payload.build")
    h0, b0 = hits.value, builds.value
    q.execute(Sum("Age"), check=False, cache=False, backend=backend)
    q.execute(Sum("Age"), check=False, cache=False, backend=backend)
    assert builds.value == b0 + 1 and hits.value == h0 + 1
    # a mutation moves the version vector: the cache must miss
    mo = workload.mo
    fact = Fact(fid=77_777, ftype=mo.schema.fact_type)
    mo.add_fact(fact)
    mo.relate(fact, "Residence", workload.areas[0])
    age = sorted(mo.dimension("Age").category("Age").members(),
                 key=repr)[0]
    mo.relate(fact, "Age", age)
    rows = Query(mo).rollup("Residence", "Region").execute(
        Sum("Age"), check=False, cache=False, backend=backend)
    assert builds.value == b0 + 2
    assert rows == Query(mo).rollup("Residence", "Region").execute(
        Sum("Age"), check=False, cache=False)
