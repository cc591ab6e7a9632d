#!/usr/bin/env python
"""Benchmark the rollup-index hot paths against the naive traversals.

Runs the grouping/aggregation benchmarks at three workload scales and
writes a machine-readable ``BENCH_aggregate.json`` next to the repo
root (see ``docs/PERFORMANCE.md`` for how to read it):

* ``rollup`` — group counts for one category: per-value descendant
  walks (naive) versus the index's cached closure map (indexed);
* ``aggregate`` — the full α operator over two grouped dimensions with
  ``use_index=False`` versus ``use_index=True`` (warm index);
* ``aggregate_grouping`` — the grouping + aggregation *core* of α
  (group formation plus function evaluation, no output-MO
  construction), at three rungs: naive per-value traversals, the
  interned object path, and the columnar batch kernel
  (``object_ops_per_sec`` vs ``kernel_ops_per_sec``;
  ``indexed_ops_per_sec`` aliases the kernel rung);
* ``cube_build`` — sizing every cuboid of a two-dimensional lattice
  from naive characterization maps versus the index's;
* ``cube_materialize_all`` — computing every cuboid of the lattice
  per-cuboid with the α operator and no index (the paper's direct
  aggregate formation, repeated once per cuboid) versus the shared-scan
  engine (base cells scanned once from the index's cached maps, coarser
  cuboids combined from their smallest stored parent wherever the
  per-dimension coverage gate allows); the extra
  ``unshared_indexed_ops_per_sec`` column records the middle rung —
  indexed maps, but every cuboid scanned independently;
* ``mutation_maintenance`` — a fixed interleaved sequence of fact
  relinks and group-count queries with delta maintenance disabled
  (every query after a mutation pays a full closure rebuild) versus
  enabled (the mutation applies as a closure delta);
* ``sql_pushdown`` — the two-dimensional roll-up query answered by the
  SQL backend (star export loaded into sqlite once, then queried warm)
  versus the in-memory engine; ``load_seconds`` records the one-time
  export+load cost, ``relative`` is sql/memory ops (no ``speedup``
  key: the memory side answers this query from the rollup index's
  cached maps, so the ratio measures the relational round trip, not a
  race).  The load indexes every probed column and builds each
  dimension's category membership, so a warm query's cost grows
  linearly with the facts; CI runs this cell alone at 1000 and 10000
  patients (``--only sql_pushdown``) and gates the ops/sec ratio
  between them.  The cell refuses to report if the two paths' rows
  differ or if any query fell back.
* ``query_result_cache`` — the same roll-up answered hot from the
  versioned result cache (canonical plan fingerprint + mutation-counter
  version vector) versus cold with ``cache=False`` (the uncached
  kernel path); ``speedup`` is hot/cold ops.  The cell refuses to
  report unless cached ≡ uncached byte-identically, including after
  mutations on a private clone (zero stale serves), and at least one
  hit was observed during the hot timing pass.
* ``shardability_analysis`` — plans analyzed per second by the MD07x
  static shard-safety fold (``plans_per_sec``; classification memoized,
  so this is the steady-state per-plan analysis cost).
* ``sharded_aggregate`` — the single-dimension integer-SUM roll-up
  (``Sum(Age)`` by Region — statically SHARDABLE) answered by the
  process-pool sharded backend at shard counts {1, 2, 4, 8} versus the
  in-memory engine (``shards["8"]`` etc. are ops/sec;
  ``shard_scaling`` is ops at 8 shards / ops at 1;
  ``relative_to_memory`` is ops at 8 shards / memory ops).  The cell
  refuses to report if any shard count's rows differ from the memory
  backend's (the agreement gate).  Shard scaling only materializes
  with real cores — ``environment.cpu_count`` records what was
  available.  Use ``--only sharded_aggregate`` to run this cell alone
  (skipping the full-lattice agreement oracle, which is what makes
  ``--scale 10000`` tractable); ``--only sql_pushdown`` does the same
  for the SQL cell.

Each cell reports steady-state ops/sec (the index is built once, then
reused — the intended usage pattern); ``build`` records the one-time
per-scale index construction cost.  Each cell also carries a
``metrics`` snapshot from ``repro.obs`` (cache hits/misses, answer-path
counters — see ``docs/OBSERVABILITY.md``) taken over one instrumented
pass of the indexed operations.  Run with::

    PYTHONPATH=src python tools/run_benchmarks.py [--quick] [--scale N]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algebra import SetCount, Sum, aggregate
from repro.algebra.aggregate import _form_groups, _form_groups_interned
from repro.algebra.functions import Avg, Median
from repro.analyze import analyze_shardability
from repro.casestudy.icd import IcdShape
from repro.core.helpers import make_result_spec
from repro.engine.cube import CubeBuilder
from repro.engine.query import Query
from repro.engine.sharded import ShardedBackend
from repro.obs import metrics
from repro.relational.backend import sql_backend_for
from repro.workloads import ClinicalConfig, generate_clinical

SCALES = (100, 300, 1000)
AGG_GROUPING = {"Diagnosis": "Diagnosis Group", "Residence": "Region"}
ROLLUP_DIMENSION = "Diagnosis"
ROLLUP_CATEGORY = "Diagnosis Group"
CUBE_DIMENSIONS = ("Diagnosis", "Residence")
#: the materialization lattice — same as ``cube_build``'s.  Cuboids
#: coarsening Residence (one value per fact, strict hierarchy) roll up
#: from their stored parent; cuboids coarsening Diagnosis (many-to-many
#: and mixed-granularity) fail the per-dimension coverage check and
#: base-scan the index's cached maps instead
MATERIALIZE_DIMENSIONS = CUBE_DIMENSIONS
#: mutations interleaved with queries per mutation-maintenance op
MUTATION_BATCH = 24


def workload(n_patients: int):
    return generate_clinical(ClinicalConfig(
        n_patients=n_patients,
        icd=IcdShape(n_groups=5, families_per_group=(3, 6),
                     lowlevels_per_family=(3, 6), extra_parent_prob=0.1),
        seed=42,
    ))


def timed(op, min_seconds: float = 0.2, min_repeats: int = 3) -> float:
    """Steady-state ops/sec: repeat ``op`` until ``min_seconds`` of
    wall time has accumulated (at least ``min_repeats`` runs)."""
    op()  # warm caches exactly as a steady-state caller would
    repeats = 0
    elapsed = 0.0
    while elapsed < min_seconds or repeats < min_repeats:
        t0 = time.perf_counter()
        op()
        elapsed += time.perf_counter() - t0
        repeats += 1
    return repeats / elapsed


# -- the benchmarked operations ---------------------------------------------


def naive_group_counts(mo):
    dimension = mo.dimension(ROLLUP_DIMENSION)
    relation = mo.relation(ROLLUP_DIMENSION)
    return {
        value: len(relation.facts_characterized_by(value, dimension))
        for value in dimension.category(ROLLUP_CATEGORY).members()
    }


def indexed_group_counts(mo):
    return mo.rollup_index().group_counts(ROLLUP_DIMENSION, ROLLUP_CATEGORY)


def run_aggregate(mo, use_index: bool):
    return aggregate(mo, SetCount(), AGG_GROUPING, make_result_spec(),
                     strict_types=False, use_index=use_index)


def _full_grouping(mo):
    return {
        name: AGG_GROUPING.get(name, mo.dimension(name).dtype.top_name)
        for name in mo.dimension_names
    }


def grouping_core_op(mo, rung: str, function=None):
    """The grouping + aggregation core of α — group formation plus
    function evaluation, without the output-MO construction that
    dominates small full-α runs.  ``rung`` picks the path: ``kernel``
    (columnar layout + batch kernel), ``object`` (interned object
    groups + per-group apply) or ``naive`` (per-value traversals +
    per-group apply)."""
    function = function or SetCount()
    full = _full_grouping(mo)
    dim_order = list(mo.dimension_names)

    def kernel():
        layout = mo.rollup_index().columnar().grouping(full)
        return layout.groups(), layout.evaluate(function)

    def object_path():
        groups = _form_groups_interned(mo, full, dim_order)
        return groups, {combo: function.apply(members, mo)
                        for combo, members in groups.items()}

    def naive():
        groups = _form_groups(mo, full, dim_order, None, False)
        return groups, {combo: function.apply(members, mo)
                        for combo, members in groups.items()}

    return {"kernel": kernel, "object": object_path, "naive": naive}[rung]


def _cuboid_keys(mo):
    from itertools import product
    per_dim = [
        [c.name for c in mo.dimension(d).dtype.category_types()]
        for d in CUBE_DIMENSIONS
    ]
    return [tuple(combo) for combo in product(*per_dim)]


def _count_groups(maps) -> int:
    def rec(i, facts):
        if i == len(maps):
            return 1
        total = 0
        for value_facts in maps[i]:
            joined = value_facts if facts is None else facts & value_facts
            if joined:
                total += rec(i + 1, joined)
        return total

    return rec(0, None)


def _size_lattice(mo, char_map) -> list:
    """Size every cuboid of the two-dimensional lattice with the given
    ``char_map(dimension_name, category_name)`` provider."""
    sizes = []
    for key in _cuboid_keys(mo):
        nontrivial = [
            (name, cat) for name, cat in zip(CUBE_DIMENSIONS, key)
            if cat != mo.dimension(name).dtype.top_name
        ]
        if not nontrivial:
            sizes.append(1)
            continue
        maps = [
            [facts for facts in char_map(name, cat).values() if facts]
            for name, cat in nontrivial
        ]
        sizes.append(_count_groups(maps))
    return sizes


def naive_cube_sizes(mo):
    def char_map(name, cat):
        dimension = mo.dimension(name)
        relation = mo.relation(name)
        return {
            value: relation.facts_characterized_by(value, dimension)
            for value in dimension.category(cat).members()
        }

    return _size_lattice(mo, char_map)


def indexed_cube_sizes(mo):
    """Size the lattice the way :meth:`CubeBuilder.size_of` does — from
    the index's memoized non-empty fact-set lists, filtered once per
    category instead of once per candidate cuboid."""
    index = mo.rollup_index()
    sizes = []
    for key in _cuboid_keys(mo):
        maps = [
            index.nonempty_fact_sets(name, cat)
            for name, cat in zip(CUBE_DIMENSIONS, key)
            if cat != mo.dimension(name).dtype.top_name
        ]
        sizes.append(_count_groups(maps) if maps else 1)
    return sizes


def _materialize_lattice_keys(mo):
    from itertools import product
    per_dim = [
        [c.name for c in mo.dimension(d).dtype.category_types()]
        for d in MATERIALIZE_DIMENSIONS
    ]
    return [tuple(combo) for combo in product(*per_dim)]


def naive_materialize_all(mo):
    """The agreement oracle: every cuboid's groups and cell values
    computed from per-value descendant walks (no index, no parent
    reuse).  ``check_agreement`` asserts the shared-scan engine's
    stored cells are byte-identical to these."""
    function = SetCount()
    out = {}
    for key in _materialize_lattice_keys(mo):
        nontrivial = sorted(
            (name, cat) for name, cat in zip(MATERIALIZE_DIMENSIONS, key)
            if cat != mo.dimension(name).dtype.top_name
        )
        maps = []
        for name, cat in nontrivial:
            dimension = mo.dimension(name)
            relation = mo.relation(name)
            maps.append({
                value: relation.facts_characterized_by(value, dimension)
                for value in dimension.category(cat).members()
            })
        groups = {}

        def rec(i, prefix, facts):
            if i == len(maps):
                groups[prefix] = facts
                return
            for value, value_facts in maps[i].items():
                joined = (set(value_facts) if facts is None
                          else facts & value_facts)
                if joined:
                    rec(i + 1, prefix + (value,), joined)

        if maps:
            rec(0, (), None)
        elif mo.facts:
            groups[()] = set(mo.facts)
        out[tuple(nontrivial)] = (
            groups,
            {combo: function.apply(facts, mo)
             for combo, facts in groups.items()},
        )
    return out


def naive_cube_aggregate(mo):
    """Compute every cuboid of the lattice the pre-engine way: one full
    α aggregate formation per cuboid, naive per-value traversals
    (``use_index=False``), nothing shared between cuboids.  This is the
    paper's direct evaluation strategy and the baseline the shared-scan
    engine replaces."""
    spec = make_result_spec()
    out = []
    for key in _materialize_lattice_keys(mo):
        grouping = dict(zip(MATERIALIZE_DIMENSIONS, key))
        out.append(aggregate(mo, SetCount(), grouping, spec,
                             strict_types=False, use_index=False))
    return out


def materialize_all_op(mo, shared_scan: bool):
    """A zero-arg op materializing the full cuboid lattice in a fresh
    builder (fresh pre-aggregate store) — per-cuboid base scans over
    the index's maps when ``shared_scan`` is off, parent rollups when
    on."""

    def op():
        return CubeBuilder(mo, dimensions=MATERIALIZE_DIMENSIONS,
                           shared_scan=shared_scan).materialize_all()

    return op


def mutation_maintenance_op(mo, workload, delta_enabled: bool):
    """A zero-arg op running ``MUTATION_BATCH`` interleaved
    relate-then-query steps against a private clone of the MO.  The
    step sequence is a fixed function of how many steps ran before, so
    both variants apply the same mutations in the same order."""
    clone = mo.copy()
    index = clone.rollup_index()
    index.delta_enabled = delta_enabled
    index.group_counts(ROLLUP_DIMENSION, ROLLUP_CATEGORY)  # warm
    patients = workload.patients
    low_levels = workload.icd.low_levels
    state = {"step": 0}

    def op():
        step = state["step"]
        for k in range(MUTATION_BATCH):
            patient = patients[(step + k) % len(patients)]
            value = low_levels[(step * 7 + k * 3) % len(low_levels)]
            clone.relate(patient, ROLLUP_DIMENSION, value)
            index.group_counts(ROLLUP_DIMENSION, ROLLUP_CATEGORY)
        state["step"] = step + MUTATION_BATCH

    return op


def _pushdown_query(mo):
    q = Query(mo)
    for name, category in sorted(AGG_GROUPING.items()):
        q = q.rollup(name, category)
    return q


def sql_pushdown_cell(mo, min_seconds: float) -> dict:
    """The ``sql_pushdown`` cell: the standard two-dimensional roll-up
    answered via the sqlite star (warm, loaded once) versus the
    in-memory engine, with the load cost and an agreement gate."""
    q = _pushdown_query(mo)
    backend = sql_backend_for(mo)
    t0 = time.perf_counter()
    backend.ensure_loaded()
    load_seconds = time.perf_counter() - t0
    fallback = metrics.counter("sql.pushdown.fallback")
    before = fallback.value
    # cache=False throughout: this cell measures the SQL and in-memory
    # execution paths themselves, not result-cache hits
    sql_rows = q.execute(check=False, backend="sql", cache=False)
    memory_rows = q.execute(check=False, cache=False)
    assert sql_rows == memory_rows, "sql backend disagrees with engine"
    assert fallback.value == before, "sql backend fell back on clinical"
    sql = timed(lambda: q.execute(check=False, backend="sql", cache=False),
                min_seconds)
    memory = timed(lambda: q.execute(check=False, cache=False), min_seconds)
    return {
        "load_seconds": round(load_seconds, 6),
        "sql_ops_per_sec": round(sql, 3),
        "memory_ops_per_sec": round(memory, 3),
        "relative": round(sql / memory, 2),
    }


def shardability_analysis_cell(mo, min_seconds: float) -> dict:
    """The ``shardability_analysis`` cell: plans analyzed per second by
    the MD07x static shard-safety fold.  Function classification is
    memoized process-wide, so after the first pass this measures the
    steady-state per-plan cost — the purity walk over σ predicates plus
    the verdict fold — which is what ``Query.check()`` pays."""
    q = _pushdown_query(mo)
    plans = [
        q.to_plan(SetCount()),
        q.to_plan(Avg(ROLLUP_DIMENSION)),
        q.to_plan(Median(ROLLUP_DIMENSION)),
        Query(mo).rollup(ROLLUP_DIMENSION, ROLLUP_CATEGORY).to_plan(),
    ]
    for plan in plans:                   # warm the classification cache
        analyze_shardability(plan)
    batches = timed(
        lambda: [analyze_shardability(plan) for plan in plans],
        min_seconds)
    return {"plans_per_sec": round(batches * len(plans), 3)}


#: shard counts the ``sharded_aggregate`` cell sweeps.
SHARD_COUNTS = (1, 2, 4, 8)


def _sharded_query(mo):
    return Query(mo).rollup("Residence", "Region")


def sharded_aggregate_cell(mo, min_seconds: float) -> dict:
    """The ``sharded_aggregate`` cell: a SHARDABLE integer-SUM roll-up
    on the process-pool backend across shard counts versus the memory
    engine, gated on byte-identical rows at every count."""
    from repro.algebra.functions import Sum as SumFn

    function = SumFn("Age")
    q = _sharded_query(mo)
    memory_rows = q.execute(function, check=False, cache=False)
    shards = {}
    for n_shards in SHARD_COUNTS:
        backend = ShardedBackend(n_shards=n_shards)
        rows = q.execute(function, check=False, cache=False,
                         backend=backend)
        assert rows == memory_rows, (
            f"sharded backend at {n_shards} shard(s) disagrees with "
            f"the memory engine")
        shards[str(n_shards)] = round(timed(
            lambda: q.execute(function, check=False, cache=False,
                              backend=backend),
            min_seconds), 3)
    memory = timed(
        lambda: q.execute(function, check=False, cache=False),
        min_seconds)
    return {
        "memory_ops_per_sec": round(memory, 3),
        "shards": shards,
        "shard_scaling": round(shards["8"] / shards["1"], 2),
        "relative_to_memory": round(shards["8"] / memory, 2),
    }


def query_result_cache_cell(mo, generated, min_seconds: float) -> dict:
    """The ``query_result_cache`` cell: the standard two-dimensional
    roll-up answered hot (versioned result cache, fingerprint hit)
    versus cold (``cache=False``, the uncached kernel path), with a
    three-part agreement gate the cell refuses to report without:
    cached ≡ uncached before mutations, after mutations on a private
    clone (zero stale serves), and a hit actually observed during the
    hot timing pass."""
    q = _pushdown_query(mo)
    cold_rows = q.execute(check=False, cache=False)
    assert q.execute(check=False) == cold_rows   # miss: computes, stores
    assert q.execute(check=False) == cold_rows   # hit: served from cache
    clone = mo.copy()
    cq = _pushdown_query(clone)
    assert cq.execute(check=False) == cq.execute(check=False, cache=False)
    clone.relate(generated.patients[0], ROLLUP_DIMENSION,
                 generated.icd.low_levels[0])
    cached = cq.execute(check=False)
    uncached = cq.execute(check=False, cache=False)
    assert cached == uncached, "cache served stale rows after a mutation"
    hits = metrics.counter("query.cache.hit")
    before = hits.value
    hot = timed(lambda: q.execute(check=False), min_seconds)
    assert hits.value > before, "hot timing pass never hit the cache"
    cold = timed(lambda: q.execute(check=False, cache=False), min_seconds)
    return {
        "cold_ops_per_sec": round(cold, 3),
        "hot_ops_per_sec": round(hot, 3),
        "speedup": round(hot / cold, 2),
    }


# -- the sweep ---------------------------------------------------------------


def _canonical_rows(agg, names):
    rows = []
    for fact in agg.facts:
        rows.append((
            tuple(frozenset(agg.relation(n).values_of(fact)) for n in names),
            len(getattr(fact, "members", ())),
        ))
    return sorted(rows, key=repr)


def _canonical_core(groups, results):
    """Groups+results of one grouping-core rung in a path-independent
    form: combos keyed by their values' reprs (same dim_order on every
    rung), members by fact id."""
    return {
        tuple(repr(v) for v in combo): (
            sorted(f.fid for f in members),
            results[combo],
        )
        for combo, members in groups.items()
    }


def check_agreement(mo) -> None:
    """The benchmark refuses to report numbers for paths that disagree."""
    assert naive_group_counts(mo) == dict(indexed_group_counts(mo))
    assert naive_cube_sizes(mo) == indexed_cube_sizes(mo)
    names = sorted(AGG_GROUPING)
    indexed = _canonical_rows(run_aggregate(mo, use_index=True), names)
    naive = _canonical_rows(run_aggregate(mo, use_index=False), names)
    assert indexed == naive
    # the 3-way grouping-core ladder: kernel ≡ object ≡ naive, for the
    # count kernel and an integer-measure SUM (exact float sums)
    for function in (SetCount(), Sum("Age")):
        kernel, object_path, naive_core = (
            _canonical_core(*grouping_core_op(mo, rung, function)())
            for rung in ("kernel", "object", "naive")
        )
        assert kernel == naive_core, f"kernel != naive for {function.name}"
        assert object_path == naive_core, (
            f"object path != naive for {function.name}")
    function = SetCount()
    shared = CubeBuilder(mo, dimensions=MATERIALIZE_DIMENSIONS,
                         function=function, shared_scan=True)
    base = CubeBuilder(mo, dimensions=MATERIALIZE_DIMENSIONS,
                       function=function, shared_scan=False)
    shared.materialize_all()
    base.materialize_all()
    naive_cube = naive_materialize_all(mo)
    compared = 0
    for grouping, _function_name, stored in shared.store.entries():
        other = base.store.get(function, grouping)
        assert other is not None
        assert stored.results == other.results
        assert stored.groups == other.groups
        naive_groups, naive_results = naive_cube[
            tuple(sorted(grouping.items()))]
        assert stored.results == naive_results
        assert stored.groups == naive_groups
        compared += 1
    assert compared > 0


#: cells ``--only`` can run alone, each gated on its own agreement check
ONLY_CELLS = {"sharded_aggregate": sharded_aggregate_cell,
              "sql_pushdown": sql_pushdown_cell}


def bench_scale(n_patients: int, min_seconds: float,
                only: str = None) -> dict:
    generated = workload(n_patients)
    mo = generated.mo
    t0 = time.perf_counter()
    for name in mo.dimension_names:
        mo.rollup_index().group_counts(
            name, mo.dimension(name).dtype.top_name)
    build_seconds = time.perf_counter() - t0
    cell = {"n_patients": n_patients, "n_facts": len(mo.facts),
            "index_build_seconds": round(build_seconds, 6)}
    if only is not None:
        # each --only cell carries its own agreement gate; the
        # full-lattice oracle in check_agreement is what makes large
        # scales slow
        cell[only] = ONLY_CELLS[only](mo, min_seconds)
        return cell
    check_agreement(mo)
    for bench, naive_op, indexed_op in (
        ("rollup", lambda: naive_group_counts(mo),
         lambda: indexed_group_counts(mo)),
        ("aggregate", lambda: run_aggregate(mo, False),
         lambda: run_aggregate(mo, True)),
        ("aggregate_grouping", grouping_core_op(mo, "naive"),
         grouping_core_op(mo, "kernel")),
        ("cube_build", lambda: naive_cube_sizes(mo),
         lambda: indexed_cube_sizes(mo)),
        ("cube_materialize_all", lambda: naive_cube_aggregate(mo),
         materialize_all_op(mo, True)),
        ("mutation_maintenance",
         mutation_maintenance_op(mo, generated, False),
         mutation_maintenance_op(mo, generated, True)),
    ):
        naive = timed(naive_op, min_seconds)
        indexed = timed(indexed_op, min_seconds)
        cell[bench] = {
            "naive_ops_per_sec": round(naive, 3),
            "indexed_ops_per_sec": round(indexed, 3),
            "speedup": round(indexed / naive, 2),
        }
    # the middle ground between the two cube_materialize_all variants:
    # indexed characterization maps, but every cuboid base-scanned
    cell["cube_materialize_all"]["unshared_indexed_ops_per_sec"] = round(
        timed(materialize_all_op(mo, False), min_seconds), 3)
    # the kernel vs object-path split of the grouping core (the kernel
    # rung is what indexed_ops_per_sec timed above)
    core = cell["aggregate_grouping"]
    core["kernel_ops_per_sec"] = core["indexed_ops_per_sec"]
    core["object_ops_per_sec"] = round(
        timed(grouping_core_op(mo, "object"), min_seconds), 3)
    core["kernel_vs_object_speedup"] = round(
        core["kernel_ops_per_sec"] / core["object_ops_per_sec"], 2)
    cell["sql_pushdown"] = sql_pushdown_cell(mo, min_seconds)
    cell["query_result_cache"] = query_result_cache_cell(
        mo, generated, min_seconds)
    cell["shardability_analysis"] = shardability_analysis_cell(
        mo, min_seconds)
    cell["sharded_aggregate"] = sharded_aggregate_cell(mo, min_seconds)
    cell["metrics"] = _metrics_snapshot(mo, generated)
    return cell


BENCH_NAMES = ("rollup", "aggregate", "aggregate_grouping", "cube_build",
               "cube_materialize_all", "mutation_maintenance",
               "query_result_cache")


def _metrics_snapshot(mo, generated) -> dict:
    """One instrumented pass of the indexed operations, observed via
    the obs counters: reset, run, snapshot.  Timing is done above with
    warm caches; this pass shows *why* the indexed paths are fast
    (hit/miss ratios, answer paths, parent rollups, closure deltas,
    layout patches)."""
    metrics.reset()
    indexed_group_counts(mo)
    run_aggregate(mo, use_index=True)
    # one pushed-down query (backend already warm from the timing pass),
    # so the snapshot shows sql.pushdown.compiled > 0 with zero
    # fallbacks; cache=False so it exercises the SQL path, not a hit
    _pushdown_query(mo).execute(check=False, backend="sql", cache=False)
    # two cached executions so the snapshot shows query.cache.hit > 0
    # (the first may hit too — the timing pass warmed the cache)
    _pushdown_query(mo).execute(check=False)
    _pushdown_query(mo).execute(check=False)
    # one sharded execution (pool and payloads warm from the timing
    # pass) so the snapshot shows sharded.shards_run > 0
    from repro.algebra.functions import Sum as SumFn
    _sharded_query(mo).execute(SumFn("Age"), check=False, cache=False,
                               backend=ShardedBackend(n_shards=2))
    indexed_cube_sizes(mo)
    CubeBuilder(mo, dimensions=MATERIALIZE_DIMENSIONS,
                shared_scan=True).materialize_all()
    clone = mo.copy()
    index = clone.rollup_index()
    index.group_counts(ROLLUP_DIMENSION, ROLLUP_CATEGORY)
    _pushdown_query(clone).execute(check=False, cache=False)
    clone.relate(generated.patients[0], ROLLUP_DIMENSION,
                 generated.icd.low_levels[0])
    index.group_counts(ROLLUP_DIMENSION, ROLLUP_CATEGORY)
    # the read after the write patches the clone's columnar layout, so
    # the snapshot shows columnar.patch > 0
    _pushdown_query(clone).execute(check=False, cache=False)
    return metrics.snapshot()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter timing windows (noisier numbers)")
    parser.add_argument("--scale", type=int, action="append",
                        metavar="N_PATIENTS",
                        help="benchmark only this workload scale "
                             "(repeatable; default: all of "
                             f"{', '.join(map(str, SCALES))})")
    parser.add_argument("--only", metavar="CELL",
                        choices=tuple(ONLY_CELLS),
                        help="run a single cell per scale (one of: "
                             f"{', '.join(ONLY_CELLS)}), skipping the "
                             "full-lattice agreement oracle — intended "
                             "for large --scale runs")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_aggregate.json")
    args = parser.parse_args(argv)
    min_seconds = 0.05 if args.quick else 0.3
    scales = tuple(args.scale) if args.scale else SCALES

    cells = []
    for n in scales:
        print(f"benchmarking n_patients={n} ...", flush=True)
        cells.append(bench_scale(n, min_seconds, only=args.only))
    largest = cells[-1]
    payload = {
        "generated_by": "tools/run_benchmarks.py",
        # environment provenance, so trajectories across runs compare
        # like with like
        "environment": {
            "python_version": sys.version.split()[0],
            "python_implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "workload": "clinical",
        "scales": list(scales),
        "aggregate_grouping": AGG_GROUPING,
        "rollup": {"dimension": ROLLUP_DIMENSION,
                   "category": ROLLUP_CATEGORY},
        "cube_dimensions": list(CUBE_DIMENSIONS),
        "results": cells,
        "materialize_dimensions": list(MATERIALIZE_DIMENSIONS),
        "largest_scale_speedups": {
            bench: largest[bench]["speedup"]
            for bench in BENCH_NAMES
            if bench in largest
        },
        # the largest scale's instrumented pass, surfaced at top level
        # so dashboards need not dig into cells (absent under --only)
        "metrics": largest.get("metrics", {}),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    summary = payload["largest_scale_speedups"] or \
        largest.get(args.only, {})
    print(json.dumps(summary, indent=2))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
