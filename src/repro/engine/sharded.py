"""Parallel sharded execution of α over a process pool.

:func:`repro.algebra.aggregate.aggregate_sharded` is the trusted
single-process statement of partition-and-merge semantics; this module
is its executor: partition the fact set by interned-id range, build the
per-shard columnar grouping *in worker processes*, and merge per-key
partials with ``function.combine`` (ALGEBRAIC functions — AVG — merge
``(sum, count)`` accumulator states instead, never finished results).

Admission is gated by the static shard-safety analyzer: the backend
:meth:`~ShardedBackend.supports` a plan only when
:func:`repro.analyze.shardability.shardability_of` returns SHARDABLE,
refusing otherwise with the exact MD07x diagnostic the analyzer
predicts.  Plans the analyzer vouches for but the columnar payload
cannot express (temporal MOs, kernel-less distributive functions,
multi-argument algebraic functions, poisoned measure columns, composed-
key radix overflow) refuse with ``MD077``.

Worker payloads are **pickling-safe by construction**: contiguous
slices of the rollup index's interned arrays (value-id columns, multi-
value side maps, measure summaries) plus the function instance — never
a live MO, dimension, or index.  The parent keeps the decode tables
(value id → :class:`~repro.core.values.DimensionValue`), so workers
move only machine integers and floats.  A payload round-trips through
``pickle`` under the ``spawn`` start method, which the regression test
pins even though Linux CI forks.

Payloads are cached per MO keyed by its
:func:`~repro.engine.result_cache.version_vector` (plus dices,
grouping, measure args, and shard count) — the pool itself is
stateless, so the version-vector key on the payload cache is the whole
lifecycle story: a mutation misses the cache and rebuilds the slices,
and no worker can ever hold a stale view.

Float caveat: SUM/AVG partials add measure subtotals in fact-id order
within a shard and in shard order across the merge — exact for
integral measures, potentially an ULP apart from the single-scan
kernel for arbitrary floats (the same caveat docs/PERFORMANCE.md
records for kernel vs object path).
"""

from __future__ import annotations

import math
import os
import threading
import time
import warnings
from array import array
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.algebra.functions import AggregationFunction, has_batch_kernel
from repro.core.errors import SummarizabilityWarning
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.values import DimensionValue
from repro.engine.backends import (
    BackendRefused,
    ExecutionBackend,
    register_backend,
)
from repro.engine.columnar import MAX_COMPOSED_KEY
from repro.engine.result_cache import version_vector
from repro.engine.rollup_index import MULTI_VALUED, UNCHARACTERIZED
from repro.obs import metrics, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.diagnostics import Diagnostic
    from repro.engine.query import ExplainStep, Query, QueryResultRow

__all__ = [
    "ShardDimension",
    "ShardMeasures",
    "ShardPayload",
    "ShardResult",
    "ShardedBackend",
    "build_payloads",
    "shutdown_pool",
]

_EXECUTES = metrics.counter("sharded.execute")
_SHARDS_RUN = metrics.counter("sharded.shards_run")
_REFUSED = metrics.counter("sharded.refused")
_PAYLOAD_HITS = metrics.counter("sharded.payload.cache_hit")
_PAYLOAD_BUILDS = metrics.counter("sharded.payload.build")
_POOLS = metrics.counter("sharded.pool.created")
_SHARD_ROWS = metrics.histogram("sharded.shard_rows")
_MERGE_KEYS = metrics.histogram("sharded.merge.keys")

#: payload-cache entries kept per MO (grouping × function × shard-count
#: variants); least recently used beyond this are dropped.
MAX_CACHED_PAYLOADS = 8

#: per-dimension decode spec the parent keeps: (name, radix, code →
#: value table) in sorted-grouping order — the same shape
#: :class:`~repro.engine.columnar.ColumnarGrouping` uses.
Spec = Tuple[str, int, List[DimensionValue]]


# ---------------------------------------------------------------------------
# worker payloads (picklable: interned arrays, never live MOs)


@dataclass(frozen=True)
class ShardDimension:
    """One grouped dimension's slice of a shard payload.

    ``column[fid - base]`` is the fact's single grouping-value id,
    :data:`~repro.engine.rollup_index.UNCHARACTERIZED`, or
    :data:`~repro.engine.rollup_index.MULTI_VALUED` with the id tuple in
    ``multi[fid]``; ``code`` maps value ids to mixed-radix digits."""

    name: str
    radix: int
    column: array
    multi: Dict[int, Tuple[int, ...]]
    code: Dict[int, int]


@dataclass(frozen=True)
class ShardMeasures:
    """One argument dimension's measure summaries, sliced to the shard's
    fact-id range (``counts[fid - base]`` etc.)."""

    name: str
    counts: array
    sums: array
    mins: array
    maxs: array


@dataclass(frozen=True)
class ShardPayload:
    """Everything one worker needs, self-contained and picklable."""

    shard: int
    base: int
    fact_ids: array
    dims: Tuple[ShardDimension, ...]
    measures: Tuple[ShardMeasures, ...]
    function: AggregationFunction
    #: ``"distributive"`` evaluates the function's batch kernel per
    #: shard; ``"algebraic"`` returns ``(sum, count)`` accumulators.
    mode: str


@dataclass
class ShardResult:
    """One worker's answer: per-key partials plus the group membership
    needed for α's merged-group presentation."""

    shard: int
    n_rows: int
    partials: Dict[int, object]
    fact_lists: Dict[int, array]
    #: keys with at least one measured row in this shard, or ``None``
    #: when the function takes no measure argument.  The merge drops
    #: placeholder partials (MIN/MAX's ``nan``) from unmeasured shards.
    measured: Optional[frozenset]


class _RowMeasures:
    """A :class:`ShardMeasures` slice gathered row-aligned with the
    worker's key column — duck-typed to
    :class:`~repro.engine.columnar.MeasureRows` for ``batch_apply``."""

    __slots__ = ("counts", "sums", "mins", "maxs")

    def __init__(self, measures: ShardMeasures, row_facts: array,
                 base: int) -> None:
        idxs = [fid - base for fid in row_facts]
        self.counts = array("q", map(measures.counts.__getitem__, idxs))
        self.sums = array("d", map(measures.sums.__getitem__, idxs))
        self.mins = array("d", map(measures.mins.__getitem__, idxs))
        self.maxs = array("d", map(measures.maxs.__getitem__, idxs))


def _run_shard(payload: ShardPayload) -> ShardResult:
    """The worker: compose mixed-radix group keys for the shard's fact
    range (mirroring ``ColumnarStore._fill_rows`` — imprecise facts
    product-expand, uncharacterized facts drop), evaluate the function,
    and return per-key partials plus group membership.  Module-level so
    the ``spawn`` start method can import it by reference."""
    keys = array("q")
    row_facts = array("q")
    append_key = keys.append
    append_fact = row_facts.append
    base = payload.base
    dims = payload.dims
    if not dims:
        # every grouped dimension is trivial: the single apex cell
        for fid in payload.fact_ids:
            append_key(0)
            append_fact(fid)
    else:
        for fid in payload.fact_ids:
            composed = 0
            expansions = None
            for dim in dims:
                idx = fid - base
                column = dim.column
                vid = (column[idx] if 0 <= idx < len(column)
                       else UNCHARACTERIZED)
                if vid >= 0:
                    digit = dim.code[vid]
                    if expansions is None:
                        composed = composed * dim.radix + digit
                    else:
                        expansions = [k * dim.radix + digit
                                      for k in expansions]
                elif vid == MULTI_VALUED:
                    digits = [dim.code[v] for v in dim.multi[fid]]
                    if expansions is None:
                        expansions = [composed * dim.radix + d
                                      for d in digits]
                    else:
                        expansions = [k * dim.radix + d
                                      for k in expansions for d in digits]
                else:  # UNCHARACTERIZED: the fact drops out entirely
                    expansions = ()
                    break
            if expansions is None:
                append_key(composed)
                append_fact(fid)
            else:
                for key in expansions:
                    append_key(key)
                    append_fact(fid)

    function = payload.function
    measures = {m.name: _RowMeasures(m, row_facts, base)
                for m in payload.measures}
    measured: Optional[frozenset] = None
    if payload.mode == "algebraic":
        rows = measures[function.args[0]]
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        sget, cget = sums.get, counts.get
        for key, count, subtotal in zip(keys, rows.counts, rows.sums):
            counts[key] = cget(key, 0) + count
            sums[key] = sget(key, 0.0) + subtotal
        partials: Dict[int, object] = {
            key: (sums[key], counts[key]) for key in counts
        }
    else:
        partials = function.batch_apply(keys, measures)
        if function.args:
            rows = measures[function.args[0]]
            measured = frozenset(
                key for key, count in zip(keys, rows.counts) if count)

    fact_lists: Dict[int, array] = {}
    get = fact_lists.get
    for key, fid in zip(keys, row_facts):
        bucket = get(key)
        if bucket is None:
            fact_lists[key] = array("q", (fid,))
        else:
            bucket.append(fid)
    return ShardResult(shard=payload.shard, n_rows=len(keys),
                       partials=partials, fact_lists=fact_lists,
                       measured=measured)


# ---------------------------------------------------------------------------
# parent side: payload building, the pool, and the merge


def _refusal(message: str, location: str) -> "Diagnostic":
    from repro.analyze.diagnostics import CATALOG, Diagnostic
    severity, _meaning = CATALOG["MD077"]
    return Diagnostic(code="MD077", severity=severity, message=message,
                      location=location,
                      hint="evaluate on the memory or sql backend")


def build_payloads(
    mo: MultidimensionalObject,
    grouping: Dict[str, str],
    function: AggregationFunction,
    mode: str,
    n_shards: int,
) -> Tuple[List[ShardPayload], List[Spec]]:
    """Slice ``mo``'s interned columns into ``n_shards`` contiguous
    fact-id ranges plus the parent-side decode specs (sorted-grouping
    order, so decoded combos align with the row names).  Raises
    :class:`~repro.engine.backends.BackendRefused` (``MD077``) on a
    composed-key radix overflow or a poisoned measure column."""
    index = mo.rollup_index()
    names = sorted(grouping)
    location = f"α grouping {names}"
    specs: List[Spec] = []
    nontrivial = []  # (name, column, multi, code, radix)
    empty = False
    max_key = 1
    for name in names:
        category = grouping[name]
        dimension = mo.dimension(name)
        if category == dimension.dtype.top_name:
            # ⊤ groups every fact into one cell: radix 1, no column
            specs.append((name, 1, [dimension.top_value]))
            continue
        column, multi = index.grouping_value_id_array(name, category)
        vids = {vid for vid in column if vid >= 0}
        for vid_tuple in multi.values():
            vids.update(vid_tuple)
        if not vids:
            # no fact characterized in this dimension: no groups at all
            specs.append((name, 1, [dimension.top_value]))
            empty = True
            continue
        ordered = sorted(vids)
        code = {vid: i for i, vid in enumerate(ordered)}
        decode = [index.value_of(name, vid) for vid in ordered]
        radix = len(ordered)
        max_key *= radix
        if max_key > MAX_COMPOSED_KEY:
            raise BackendRefused(_refusal(
                f"composed group-key space of {names} overflows "
                f"{MAX_COMPOSED_KEY} (signed 64-bit keys)", location))
        specs.append((name, radix, decode))
        nontrivial.append((name, column, multi, code, radix))

    fact_ids = sorted(index.mo_fact_ids())
    if empty or not fact_ids:
        return [], specs

    measure_columns = []
    if function.args:
        store = index.columnar()
        for arg in dict.fromkeys(function.args):
            measure = store.measure_column(arg)
            if measure.error is not None:
                raise BackendRefused(_refusal(
                    f"measure column {arg!r} is poisoned "
                    f"({measure.error}); workers cannot evaluate it "
                    f"from columnar payloads", location))
            measure_columns.append((arg, measure))

    payloads: List[ShardPayload] = []
    size, extra = divmod(len(fact_ids), n_shards)
    start = 0
    for shard in range(n_shards):
        stop = start + size + (1 if shard < extra else 0)
        shard_ids = fact_ids[start:stop]
        start = stop
        if not shard_ids:
            continue
        lo, hi = shard_ids[0], shard_ids[-1]
        dims = tuple(
            ShardDimension(
                name=name, radix=radix,
                column=column[lo:hi + 1],
                multi={fid: vids for fid, vids in multi.items()
                       if lo <= fid <= hi},
                code=code)
            for name, column, multi, code, radix in nontrivial)
        measures = tuple(
            ShardMeasures(name=arg,
                          counts=measure.counts[lo:hi + 1],
                          sums=measure.sums[lo:hi + 1],
                          mins=measure.mins[lo:hi + 1],
                          maxs=measure.maxs[lo:hi + 1])
            for arg, measure in measure_columns)
        payloads.append(ShardPayload(
            shard=shard, base=lo, fact_ids=array("q", shard_ids),
            dims=dims, measures=measures, function=function, mode=mode))
    return payloads, specs


_POOL_LOCK = threading.Lock()
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _pool(n_workers: int) -> ProcessPoolExecutor:
    """The shared process pool, grown (never shrunk) to ``n_workers``.
    Workers are stateless — every task ships a version-stamped payload
    — so one pool serves every MO and every shard count."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < n_workers:
            if _POOL is not None:
                _POOL.shutdown(wait=True)
            _POOL = ProcessPoolExecutor(max_workers=n_workers)
            _POOL_WORKERS = n_workers
            _POOLS.inc()
        return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests, atexit hygiene); the
    next sharded execution lazily recreates it."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


def _row_sort_key(names):
    from repro.engine.query import _row_sort_key as key
    return key(names)


def _decode(key: int, specs: List[Spec]) -> Tuple[DimensionValue, ...]:
    values: List[DimensionValue] = []
    for _name, radix, decode in reversed(specs):
        key, digit = divmod(key, radix)
        values.append(decode[digit])
    values.reverse()
    return tuple(values)


def _merge_rows(
    results: List[ShardResult],
    specs: List[Spec],
    names: List[str],
    function: AggregationFunction,
    mode: str,
) -> List["QueryResultRow"]:
    """Merge per-shard partials into α's row presentation.

    Partials are combined in shard (= fact-id) order; a key seen in one
    shard keeps its partial unmerged, the way
    :func:`~repro.algebra.aggregate.aggregate_sharded` skips the
    combine for singleton cells.  MIN/MAX placeholder partials from
    shards where a key has rows but no measures are dropped (unless no
    shard measured the key, where all-placeholder partials combine to
    the kernel's ``nan``).  Value combinations selecting the same fact
    set then merge into one group and re-expand as the cross product of
    the per-dimension value sets — byte-identical to
    ``Query._run_alpha``'s presentation of α's set-fact identity."""
    partials: Dict[int, List[object]] = {}
    flags: Dict[int, List[bool]] = {}
    members: Dict[int, List[int]] = {}
    filtered = False
    for result in sorted(results, key=lambda r: r.shard):
        shard_measured = result.measured
        if shard_measured is not None:
            filtered = True
        for key, partial in result.partials.items():
            partials.setdefault(key, []).append(partial)
            if shard_measured is not None:
                flags.setdefault(key, []).append(key in shard_measured)
            members.setdefault(key, []).extend(result.fact_lists[key])
    _MERGE_KEYS.observe(len(partials))

    raws: Dict[int, object] = {}
    for key, parts in partials.items():
        if mode == "algebraic":
            total = 0.0
            count = 0
            for part_sum, part_count in parts:
                total += part_sum
                count += part_count
            raws[key] = (total / count) if count else math.nan
            continue
        kept = parts
        if filtered:
            key_flags = flags[key]
            if any(key_flags):
                kept = [part for part, measured
                        in zip(parts, key_flags) if measured]
        raws[key] = kept[0] if len(kept) == 1 else function.combine(kept)

    # α identifies a set-fact by its members: combinations selecting
    # the same fact set collapse into one group, re-expanded below
    merged: Dict[frozenset, Tuple[List[int], object]] = {}
    for key in sorted(raws):
        group_members = frozenset(members[key])
        entry = merged.get(group_members)
        if entry is None:
            merged[group_members] = ([key], raws[key])
        else:
            entry[0].append(key)

    rows: List["QueryResultRow"] = []
    for keys, raw in merged.values():
        value_sets: List[set] = [set() for _ in names]
        for key in keys:
            for value_set, value in zip(value_sets, _decode(key, specs)):
                value_set.add(value)
        combos: List[Dict[str, DimensionValue]] = [{}]
        for name, value_set in zip(names, value_sets):
            combos = [
                {**combo, name: value}
                for combo in combos
                for value in sorted(value_set, key=repr)
            ]
        rows.extend((combo, raw) for combo in combos)
    rows.sort(key=_row_sort_key(names))
    return rows


class ShardedBackend(ExecutionBackend):
    """Parallel partition-and-merge execution of one α.

    Admitted only for plans the static analyzer proves SHARDABLE;
    refuses with the predicted MD07x diagnostic otherwise (and with
    ``MD077`` when the columnar worker payload cannot express an
    otherwise shard-safe plan).  No fallback: a refusal raises
    :class:`~repro.engine.backends.BackendRefused`, so a caller that
    wants transparency gates on :meth:`Query.check` first.
    """

    name = "sharded"
    fallback = None

    def __init__(self, n_shards: Optional[int] = None) -> None:
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self._n_shards = n_shards
        # MO → (versions, dices, grouping, args, mode, n_shards) →
        # (payloads, specs); version-keyed, so mutation misses
        cache: "WeakKeyDictionary[MultidimensionalObject, OrderedDict]"
        cache = WeakKeyDictionary()
        self._payload_cache = cache
        self._cache_lock = threading.Lock()

    @property
    def n_shards(self) -> int:
        return self._n_shards or os.cpu_count() or 2

    def plan_for(self, query: "Query", function: AggregationFunction,
                 strict_types: bool):
        # the plan Query.check() analyzes, so a refusal here quotes
        # exactly the diagnostic the user already saw from check()
        return query.to_plan(function, strict_types)

    def supports(self, query: "Query", plan) -> Optional["Diagnostic"]:
        from repro.analyze import ShardVerdict, shardability_of
        verdict, report = shardability_of(plan)
        if verdict is not ShardVerdict.SHARDABLE:
            _REFUSED.inc()
            for diagnostic in report.diagnostics:
                if diagnostic.code.startswith("MD07"):
                    return diagnostic
            return _refusal(  # pragma: no cover - every non-SHARDABLE
                # verdict carries an MD07x finding today; belt for
                # future analyzer extensions
                f"verdict {verdict.value} without a specific finding",
                "plan")
        diagnostic = self._payload_refusal(query, plan.function)
        if diagnostic is not None:
            _REFUSED.inc()
        return diagnostic

    def _payload_refusal(self, query: "Query",
                         function: AggregationFunction,
                         ) -> Optional["Diagnostic"]:
        """MD077: statically shard-safe, but not expressible as a
        columnar worker payload."""
        from repro.analyze import FunctionClass, classify_function
        location = f"α[{function.name}]"
        if query._mo.kind is not TimeKind.SNAPSHOT:
            return _refusal(
                "temporal MO: per-shard columnar payloads carry no "
                "validity intervals", location)
        classification = classify_function(function)
        if classification.function_class is FunctionClass.ALGEBRAIC:
            if len(function.args) != 1:
                return _refusal(
                    f"{function.name} is algebraic with "
                    f"{len(function.args)} argument dimensions; only "
                    f"single-argument (sum, count) accumulators are "
                    f"implemented", location)
        elif not has_batch_kernel(function):
            return _refusal(
                f"{function.name} has no columnar batch kernel "
                f"(MD040): workers evaluate kernels only, never "
                f"object-path apply()", location)
        return None

    def _mode(self, function: AggregationFunction) -> str:
        from repro.analyze import FunctionClass, classify_function
        classification = classify_function(function)
        if classification.function_class is FunctionClass.ALGEBRAIC:
            return "algebraic"
        return "distributive"

    def _payloads(
        self, query: "Query", mo: MultidimensionalObject,
        function: AggregationFunction, mode: str,
    ) -> Tuple[List[ShardPayload], List[Spec], bool]:
        """Version-keyed payload cache around :func:`build_payloads`;
        returns ``(payloads, specs, was_cache_hit)``.  Keyed on the
        *original* MO (the diced MO is a fresh derivation per call) —
        ``select`` is deterministic, so original versions + dices
        determine the diced columns."""
        key = (
            version_vector(query._mo),
            tuple(query._dices),
            tuple(sorted(query._grouping.items())),
            tuple(function.args), type(function).__name__,
            mode, self.n_shards,
        )
        with self._cache_lock:
            per_mo = self._payload_cache.get(query._mo)
            if per_mo is not None:
                cached = per_mo.get(key)
                if cached is not None:
                    per_mo.move_to_end(key)
                    _PAYLOAD_HITS.inc()
                    return cached[0], cached[1], True
        payloads, specs = build_payloads(
            mo, dict(query._grouping), function, mode, self.n_shards)
        _PAYLOAD_BUILDS.inc()
        with self._cache_lock:
            per_mo = self._payload_cache.get(query._mo)
            if per_mo is None:
                per_mo = self._payload_cache.setdefault(
                    query._mo, OrderedDict())
            per_mo[key] = (payloads, specs)
            per_mo.move_to_end(key)
            while len(per_mo) > MAX_CACHED_PAYLOADS:
                per_mo.popitem(last=False)
        return payloads, specs, False

    def run(self, query: "Query", plan,
            function: AggregationFunction, strict_types: bool,
            steps: Optional[List["ExplainStep"]],
            ) -> Tuple[List["QueryResultRow"], str]:
        from repro.engine.query import ExplainStep
        # α's applicability gate, replicated so strict mode raises (and
        # warn mode warns) exactly as the memory path would
        applicable = function.check_applicable(query._mo,
                                               strict=strict_types)
        if not applicable:
            warnings.warn(
                f"{function.name} applied to data whose aggregation "
                f"type does not permit it; the result may be "
                f"meaningless",
                SummarizabilityWarning, stacklevel=2)
        _EXECUTES.inc()
        mode = self._mode(function)
        names = sorted(query._grouping)
        t0 = time.perf_counter()
        mo = query._diced_mo()
        if steps is not None and query._dices:
            steps.append(ExplainStep(
                name="dice",
                detail=", ".join(f"{d}={v!r}" for d, v in query._dices),
                elapsed_seconds=time.perf_counter() - t0,
                facts_in=len(query._mo.facts), facts_out=len(mo.facts)))
        with trace.span("query.execute",
                        grouping=tuple(sorted(query._grouping)),
                        n_dices=len(query._dices),
                        function=function.name, backend="sharded"):
            t0 = time.perf_counter()
            payloads, specs, hit = self._payloads(query, mo, function,
                                                  mode)
            if steps is not None:
                steps.append(ExplainStep(
                    name="shard-plan",
                    detail=f"{len(payloads)} shard(s), {mode} merge, "
                           f"payloads {'cached' if hit else 'built'}",
                    elapsed_seconds=time.perf_counter() - t0,
                    facts_in=len(mo.facts),
                    facts_out=sum(len(p.fact_ids) for p in payloads)))
            t0 = time.perf_counter()
            results: List[ShardResult] = []
            if payloads:
                pool = _pool(min(self.n_shards, os.cpu_count() or 2))
                for result in pool.map(_run_shard, payloads):
                    _SHARDS_RUN.inc()
                    _SHARD_ROWS.observe(result.n_rows)
                    results.append(result)
            if steps is not None:
                steps.append(ExplainStep(
                    name="shard-map",
                    detail=f"pool of {_POOL_WORKERS} worker(s)",
                    elapsed_seconds=time.perf_counter() - t0,
                    facts_in=sum(len(p.fact_ids) for p in payloads),
                    facts_out=sum(r.n_rows for r in results)))
            t0 = time.perf_counter()
            rows = _merge_rows(results, specs, names, function, mode)
            if steps is not None:
                steps.append(ExplainStep(
                    name="shard-merge",
                    detail=f"{function.name} over "
                           f"{dict(sorted(query._grouping.items()))}",
                    elapsed_seconds=time.perf_counter() - t0,
                    facts_in=sum(r.n_rows for r in results),
                    facts_out=len(rows)))
            return rows, "sharded"


register_backend(ShardedBackend())
