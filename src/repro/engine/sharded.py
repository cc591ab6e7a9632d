"""Parallel sharded execution of α over a process pool.

:func:`repro.algebra.aggregate.aggregate_sharded` is the trusted
single-process statement of partition-and-merge semantics; this module
is its executor: partition the fact set by interned-id range, compose
each shard's group keys *in worker processes* with the columnar
layout's own functions (:mod:`repro.engine.columnar`), and merge per-key
partials with ``function.combine`` (ALGEBRAIC functions — AVG — merge
``(sum, count)`` accumulator states instead, never finished results).
The merged groups become rows through the engine's one row finalizer.

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
(digit → :class:`~repro.core.values.DimensionValue`), so workers
move only machine integers and floats.  A payload round-trips through
``pickle`` under the ``spawn`` start method, which the regression test
pins even though Linux CI forks.

A dice masks the MO's own columns: payloads carry σ's surviving facts.
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
from array import array
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)
from weakref import WeakKeyDictionary

from repro.algebra.aggregate import _applicability_gate
from repro.algebra.functions import AggregationFunction, has_batch_kernel
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.values import DimensionValue, Fact
from repro.engine.backends import (
    BackendRefused,
    ExecutionBackend,
    register_backend,
)
from repro.engine.columnar import (
    MAX_COMPOSED_KEY,
    KeyDigit,
    MeasureRows,
    _compose_keys,
    _decode_key,
    _key_layout,
    _members_by_key,
)
from repro.engine.query import QueryResultRow, _finalize_rows
from repro.engine.result_cache import version_vector
from repro.obs import metrics, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.diagnostics import Diagnostic
    from repro.engine.query import Query

__all__ = [
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


# ---------------------------------------------------------------------------
# worker payloads (picklable: interned arrays, never live MOs)


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
    #: the composing key digits, their columns sliced to the shard
    dims: Tuple[KeyDigit, ...]
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
    fact_lists: Dict[int, List[int]]
    #: keys with at least one measured row in this shard, or ``None``
    #: when the function takes no measure argument.  The merge drops
    #: placeholder partials (MIN/MAX's ``nan``) from unmeasured shards.
    measured: Optional[frozenset]


def _run_shard(payload: ShardPayload) -> ShardResult:
    """The worker: compose the group keys of the shard's fact range with
    the columnar layout's functions (imprecise facts product-expand,
    uncharacterized facts drop), evaluate the function, and return
    per-key partials plus group membership.  Module-level so the
    ``spawn`` start method can import it by reference."""
    base = payload.base
    keys, row_facts = _compose_keys(payload.dims, payload.fact_ids, base)
    function = payload.function
    measures = {m.name: MeasureRows(m, [fid - base for fid in row_facts])
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

    return ShardResult(shard=payload.shard, n_rows=len(keys),
                       partials=partials,
                       fact_lists=_members_by_key(keys, row_facts),
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
    fact_ids: Optional[Iterable[int]] = None,
) -> Tuple[List[ShardPayload], List[Sequence[DimensionValue]]]:
    """Slice ``mo``'s interned columns into ``n_shards`` contiguous
    fact-id ranges, plus the parent-side decode tables in
    sorted-grouping order (so decoded combos align with the row
    names).  A dice's mask, the ``fact_ids`` of some of ``mo``'s
    facts, shards only those.  Raises
    :class:`~repro.engine.backends.BackendRefused` (``MD077``) on a
    composed-key radix overflow or a measure poisoned at a shard fact."""
    index = mo.rollup_index()
    names = sorted(grouping)
    location = f"α grouping {names}"
    digits = _key_layout(index, [(name, grouping[name]) for name in names])
    if digits is None:
        raise BackendRefused(_refusal(
            f"composed group-key space of {names} overflows "
            f"{MAX_COMPOSED_KEY} (signed 64-bit keys)", location))
    decodes = [digit.decode for digit in digits]
    fact_ids = sorted(index.mo_fact_ids() if fact_ids is None else fact_ids)
    if not fact_ids:
        return [], decodes

    measure_columns = []
    if function.args:
        store = index.columnar()
        for arg in dict.fromkeys(function.args):
            measure = store.measure_column(arg)
            if not measure.poisoned.isdisjoint(fact_ids):
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
            digit._replace(
                column=digit.column[lo:hi + 1],
                multi={fid: vids for fid, vids in digit.multi.items()
                       if lo <= fid <= hi},
                decode=())
            for digit in digits if digit.column is not None)
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
    return payloads, decodes


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


def _merge_rows(
    results: List[ShardResult],
    decodes: List[Sequence[DimensionValue]],
    names: List[str],
    function: AggregationFunction,
    mode: str,
) -> List[QueryResultRow]:
    """Merge per-shard partials into each key's raw value, then hand
    every key's ``(members, combo, raw)`` to the engine's row finalizer
    (α's merged-group presentation).

    Partials are combined in shard (= fact-id) order; a key seen in one
    shard keeps its partial unmerged, the way
    :func:`~repro.algebra.aggregate.aggregate_sharded` skips the
    combine for singleton cells.  MIN/MAX placeholder partials from
    shards where a key has rows but no measures are dropped (unless no
    shard measured the key, where all-placeholder partials combine to
    the kernel's ``nan``)."""
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

    return _finalize_rows(names, (
        (frozenset(members[key]), _decode_key(decodes, key), raws[key])
        for key in sorted(raws)))


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
        # (payloads, decodes); version-keyed, so mutation misses
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
        self, query: "Query", mask: Optional[Set[Fact]],
        function: AggregationFunction, mode: str,
    ) -> Tuple[List[ShardPayload], List[Sequence[DimensionValue]], bool]:
        """Version-keyed payload cache around :func:`build_payloads`
        over the query's MO and its dice ``mask``; returns ``(payloads,
        decodes, was_cache_hit)``.  σ is deterministic, so the MO's
        versions and the dices determine the mask."""
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
        index = query._mo.rollup_index()
        payloads, decodes = build_payloads(
            query._mo, dict(query._grouping), function, mode, self.n_shards,
            None if mask is None else map(index.fact_id, mask))
        _PAYLOAD_BUILDS.inc()
        with self._cache_lock:
            per_mo = self._payload_cache.get(query._mo)
            if per_mo is None:
                per_mo = self._payload_cache.setdefault(
                    query._mo, OrderedDict())
            per_mo[key] = (payloads, decodes)
            per_mo.move_to_end(key)
            while len(per_mo) > MAX_CACHED_PAYLOADS:
                per_mo.popitem(last=False)
        return payloads, decodes, False

    def run(self, query: "Query", plan,
            function: AggregationFunction, strict_types: bool,
            ) -> Tuple[List[QueryResultRow], str]:
        # α's applicability gate: strict mode raises (and warn mode
        # warns) exactly as the memory path does
        _applicability_gate(function, query._mo, strict_types)
        _EXECUTES.inc()
        mode = self._mode(function)
        names = sorted(query._grouping)
        mask = query._dice_mask()
        with trace.span("sharded.plan") as span:
            payloads, decodes, hit = self._payloads(query, mask, function,
                                                    mode)
            if span:
                span.set(detail=f"{len(payloads)} shard(s), {mode} merge, "
                                f"payloads {'cached' if hit else 'built'}",
                         facts_in=len(query._mo if mask is None else mask),
                         facts_out=sum(len(p.fact_ids) for p in payloads))
        with trace.span("sharded.map") as span:
            results: List[ShardResult] = []
            if payloads:
                pool = _pool(min(self.n_shards, os.cpu_count() or 2))
                for result in pool.map(_run_shard, payloads):
                    _SHARDS_RUN.inc()
                    _SHARD_ROWS.observe(result.n_rows)
                    results.append(result)
            if span:
                span.set(detail=f"pool of {_POOL_WORKERS} worker(s)",
                         facts_in=sum(len(p.fact_ids) for p in payloads),
                         facts_out=sum(r.n_rows for r in results))
        with trace.span("sharded.merge") as span:
            rows = _merge_rows(results, decodes, names, function, mode)
            if span:
                span.set(detail=f"{function.name} over "
                                f"{dict(sorted(query._grouping.items()))}",
                         facts_in=sum(r.n_rows for r in results),
                         facts_out=len(rows))
        return rows, "sharded"


register_backend(ShardedBackend())
