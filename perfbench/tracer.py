"""Span tracing of the program's layers, from outside the program.

:class:`SpanRecorder` replaces the public entry point of each layer
with a wrapper that records a span -- name, start, end and the index of
the enclosing span -- in flat in-memory arrays.  A layer's self time is
its spans' durations minus the durations of their direct children.
Wrappers are installed only around the traced window and removed
afterwards, so set-up, the oracle and untraced runs execute the
program's own functions.

Where a module binds a name at import (``repro.engine.query`` imports
``fingerprint``, ``aggregate``, ``select``, ``dispatch`` and
``version_vector``), the name is patched where it is looked up.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span name).  A dotted attribute path names
#: a method on a class of that module.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # engine.query: the builder, the public call, and the memory
    # ladder (row finalization and sort are its self time)
    ("repro.engine.query", "Query.__init__", "query"),
    ("repro.engine.query", "Query.dice", "query"),
    ("repro.engine.query", "Query.rollup", "query"),
    ("repro.engine.query", "Query.check", "query"),
    ("repro.engine.query", "Query.execute", "query"),
    ("repro.engine.query", "Query._run", "query"),
    # analyze (looked up on the package at call time by Query.check)
    ("repro.analyze", "analyze_plan", "analyze.plan"),
    ("repro.analyze", "analyze_shardability", "analyze.shardability"),
    ("repro.engine.query", "fingerprint", "plan_fingerprint"),
    ("repro.engine.result_cache", "ResultCache.get", "result_cache.get"),
    ("repro.engine.result_cache", "ResultCache.put", "result_cache.put"),
    ("repro.engine.query", "version_vector", "result_cache.version_vector"),
    ("repro.engine.query", "dispatch", "backends.dispatch"),
    ("repro.engine.backends", "dispatch", "backends.dispatch"),
    ("repro.engine.query", "select", "selection.select"),
    ("repro.engine.rollup_index", "_build_dimension_index",
     "rollup_index.refresh"),
    ("repro.engine.rollup_index", "RollupIndex._apply_delta",
     "rollup_index.refresh"),
    ("repro.engine.rollup_index", "RollupIndex.summarizability",
     "rollup_index.summarizability"),
    ("repro.engine.rollup_index", "RollupIndex.grouping_value_id_array",
     "rollup_index.views"),
    ("repro.engine.rollup_index", "RollupIndex.characterization_map",
     "rollup_index.views"),
    ("repro.engine.rollup_index", "RollupIndex.mo_fact_ids",
     "rollup_index.views"),
    ("repro.engine.columnar", "ColumnarStore.grouping", "columnar.grouping"),
    ("repro.engine.columnar", "ColumnarGrouping.groups", "columnar.grouping"),
    ("repro.engine.columnar", "ColumnarStore.measure_column",
     "columnar.measure_column"),
    ("repro.engine.columnar", "ColumnarGrouping.evaluate",
     "functions.kernel"),
    ("repro.algebra.functions", "Median.apply", "functions.apply"),
    ("repro.engine.query", "aggregate", "aggregate"),
    ("repro.core.mo", "MultidimensionalObject.add_fact", "core.write"),
    ("repro.core.mo", "MultidimensionalObject.relate", "core.write"),
    ("repro.core.factdim", "FactDimensionRelation.remove_fact",
     "core.write"),
    ("repro.relational.backend", "SqlBackend.compile", "relational.compile"),
    ("repro.relational.backend", "SqlBackend.run_rows",
     "relational.run_rows"),
    ("repro.engine.sharded", "ShardedBackend.supports", "sharded.supports"),
    ("repro.engine.sharded", "ShardedBackend._payloads", "sharded.payload"),
    ("repro.engine.sharded", "ShardedBackend.run", "sharded.map_merge"),
)

#: span name -> the per-layer metric its self time is reported as
SELF_TIME_METRICS: Dict[str, str] = {
    "query": "query.self_ms_per_op",
    "analyze.plan": "analyze.plan_ms_per_op",
    "analyze.shardability": "analyze.shardability_ms_per_op",
    "plan_fingerprint": "plan_fingerprint.ms_per_op",
    "result_cache.get": "result_cache.get_ms_per_op",
    "result_cache.put": "result_cache.put_ms_per_op",
    "result_cache.version_vector": "result_cache.version_vector_ms_per_op",
    "backends.dispatch": "backends.dispatch_ms_per_op",
    "selection.select": "selection.select_ms_per_op",
    "rollup_index.refresh": "rollup_index.refresh_ms_per_op",
    "rollup_index.views": "rollup_index.views_ms_per_op",
    "rollup_index.summarizability":
        "rollup_index.summarizability_ms_per_op",
    "columnar.grouping": "columnar.grouping_ms_per_op",
    "columnar.measure_column": "columnar.measure_column_ms_per_op",
    "functions.kernel": "functions.kernel_ms_per_op",
    "functions.apply": "functions.apply_ms_per_op",
    "aggregate": "aggregate.self_ms_per_op",
    "core.write": "core.write_ms_per_op",
    "relational.compile": "relational.compile_ms_per_op",
    "relational.run_rows": "relational.run_rows_ms_per_op",
    "sharded.supports": "sharded.supports_ms_per_op",
    "sharded.payload": "sharded.payload_ms_per_op",
    "sharded.map_merge": "sharded.map_merge_ms_per_op",
}


class SpanRecorder:
    """Flat, append-only span storage plus the wrappers that feed it.

    Use as a context manager: entering installs every wrapper in
    :data:`ENTRY_POINTS`, leaving restores the originals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._current = -1
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable) -> Callable:
        names, starts, ends, parents = (self.names, self.starts,
                                        self.ends, self.parents)
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            parent = recorder._current
            names.append(span)
            parents.append(parent)
            ends.append(0.0)
            recorder._current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                recorder._current = parent

        return traced

    def __enter__(self) -> "SpanRecorder":
        for module_name, path, span in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            # read the raw attribute, so a method is wrapped as the
            # plain function the class holds
            original = (vars(owner)[attribute] if owners
                        else getattr(owner, attribute))
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(span, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """``(self seconds per span name, span count per name, total
        seconds of root spans)``.  Root spans partition the traced time
        that any wrapper saw, so the self times sum to the root total."""
        n = len(self.names)
        child_seconds = [0.0] * n
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        roots = 0.0
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_seconds[parent] += durations[i]
            else:
                roots += durations[i]
        seconds: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            seconds[name] += durations[i] - child_seconds[i]
            counts[name] += 1
        return dict(seconds), dict(counts), roots
