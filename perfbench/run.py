#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adhoc --seed 7 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing instrumented; ``--trace 1`` wraps each layer's
entry points (:mod:`perfbench.tracer`), measures the per-layer
breakdown over half the window, replays the same ops untraced over
the other half to get the tracing overhead, and fails unless the
breakdown covers the traced time and the workload stressed the layers
it is meant to.  Answers are checked against an oracle outside the
timed window either way.  Reported times are scaled to a reference
machine speed (:mod:`perfbench.speed`).

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``perfbench/METRICS.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.speed import Speed  # noqa: E402  (needs the path above)

#: an untraced run sets up this many times, the first for the timed
#: window and the rest after it; ``setup_s`` is the median
SETUP_REPEATS = 7
#: calibrations (:mod:`perfbench.speed`) taken right before a set-up
SETUP_CALIBRATIONS = 3
#: coverage the traced breakdown must reach, as (low, high)
COVERAGE_BOUNDS = (0.9, 1.1)


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """The checked-out commit; ``unknown`` outside a git checkout (git
    is not allowed to find a repository above the checkout)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def set_up(workload, speed: Speed) -> Tuple[float, float]:
    """Set the workload up; returns its wall seconds and its seconds at
    reference speed, scaled by calibrations taken just before.  The
    set-up's garbage is collected and its survivors frozen, so
    collections in the window do not traverse the MO over and over."""
    for _ in range(SETUP_CALIBRATIONS):
        index = speed.sample()
    t0 = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - t0
    gc.collect()
    gc.freeze()
    return elapsed, elapsed * speed.factor_at(index)


def tear_down(workload) -> None:
    workload.teardown()
    gc.unfreeze()
    gc.collect()


def run_window(workload, seconds: float, speed: Speed,
               max_ops: Optional[int] = None):
    """Issue ops until ``seconds`` of wall op time accumulate (or
    ``max_ops`` ran); returns the records and the wall op seconds.
    Only the op itself is timed; fingerprinting its answer and
    calibrating ``speed`` happen between ops.  Each record's
    ``seconds`` is scaled to reference speed after the window."""
    from perfbench.workloads import Record, digest

    records: List[Record] = []
    calibrations: List[int] = []
    stream = workload.stream()
    timed = 0.0
    clock = time.perf_counter
    gc.collect()
    while timed < seconds and (max_ops is None or len(records) < max_ops):
        spec = next(stream)
        calibrations.append(speed.due())
        error = None
        rows = None
        kind = "read"
        t0 = clock()
        try:
            kind, rows = workload.run_op(spec)
        except Exception:  # an op failure is counted, not fatal
            error = traceback.format_exc()
        elapsed = clock() - t0
        timed += elapsed
        record = Record(kind=kind, spec=spec, seconds=elapsed,
                        wall_seconds=elapsed, error=error)
        if rows is not None:
            record.n_rows = len(rows)
            record.rows_digest = digest(rows)
        records.append(record)
    for record, index in zip(records, calibrations):
        record.seconds *= speed.factor_at(index)
    return records, timed


def count_failures(workload, records) -> int:
    errors = [r.error for r in records if r.error is not None]
    for error in errors[:3]:
        print(error, file=sys.stderr)
    return len(errors) + workload.verify(records)


def latency_ms(records, kind: str) -> List[float]:
    return [r.seconds * 1e3 for r in records
            if r.kind == kind and r.error is None]


def untraced(name: str, seed: int, seconds: float):
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    speed = Speed()
    setups = [set_up(workload, speed)]
    try:
        records, timed = run_window(workload, seconds, speed)
        rss = peak_rss_mb()
        failed = count_failures(workload, records)
    finally:
        tear_down(workload)
    # the other set-ups come after the window, so they cannot change it
    for _ in range(SETUP_REPEATS - 1):
        setups.append(set_up(workload, speed))
        tear_down(workload)
    reads = latency_ms(records, "read")
    writes = latency_ms(records, "write")
    wall_reads = [r.wall_seconds * 1e3 for r in records
                  if r.kind == "read" and r.error is None]
    metrics = {
        "query_p50_ms": (percentile(reads, 50), "ms"),
        "query_p95_ms": (percentile(reads, 95), "ms"),
        "ops_per_s": (len(records) / sum(r.seconds for r in records), "1/s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "reads": (len(reads), "count"),
        "writes": (len(writes), "count"),
        "error_rate": (failed / len(records), "ratio"),
        "speed_factor": (speed.factor(), "ratio"),
        "wall_query_p50_ms": (percentile(wall_reads, 50), "ms"),
        "wall_query_p95_ms": (percentile(wall_reads, 95), "ms"),
        "wall_ops_per_s": (len(records) / timed, "1/s"),
        "wall_setup_s": (statistics.median(s for s, _ in setups), "s"),
    }
    if writes:
        extra["write_p50_ms"] = (percentile(writes, 50), "ms")
        extra["write_p95_ms"] = (percentile(writes, 95), "ms")
    return records, failed, metrics, extra


def counter_values() -> Dict[str, float]:
    from repro.obs import metrics
    return dict(metrics.snapshot()["counters"])


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced(name: str, seed: int, seconds: float):
    from perfbench.tracer import SELF_TIME_METRICS, SpanRecorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    speed = Speed()
    set_up(workload, speed)
    try:
        before = counter_values()
        with SpanRecorder() as recorder:
            records, timed = run_window(workload, seconds / 2, speed)
        after = counter_values()
        failed = count_failures(workload, records)
        routed = dict(getattr(workload, "routed", {}))
        load_seconds = workload.load_seconds
    finally:
        tear_down(workload)
    # span times are wall times: scale them like the window's ops
    scale = speed.factor()

    # the same ops again, untraced, from a fresh set-up
    replay = WORKLOADS[name](seed)
    set_up(replay, speed)
    try:
        replayed, _ = run_window(replay, math.inf, speed,
                                 max_ops=len(records))
    finally:
        tear_down(replay)

    def delta(counter: str) -> float:
        return after.get(counter, 0.0) - before.get(counter, 0.0)

    ops = len(records)
    self_seconds, span_counts, root_seconds = recorder.self_times()
    reads = [r for r in records if r.kind == "read" and r.error is None]
    writes = latency_ms(replayed, "write")
    metrics: Dict[str, Tuple[float, str]] = {}
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] = (
            self_seconds.get(span, 0.0) * scale * 1e3 / ops, "ms")
    overhead = (sum(r.seconds for r in records)
                / sum(r.seconds for r in replayed) - 1.0)
    hits, misses = delta("query.cache.hit"), delta("query.cache.miss")
    builds, deltas = delta("rollup_index.builds"), \
        delta("rollup_index.delta_applied")
    sql_fallbacks = delta("sql.pushdown.fallback")
    metrics.update({
        "query.rows_per_op": (
            _ratio(sum(r.n_rows for r in reads), len(reads)), "rows/op"),
        "analyze.calls_per_op": (
            span_counts.get("analyze.plan", 0) / ops, "1/op"),
        "result_cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "result_cache.evictions": (delta("query.cache.evicted") / ops,
                                   "1/op"),
        "result_cache.stale_evictions": (
            delta("query.cache.stale_evicted") / ops, "1/op"),
        "result_cache.admit_refused": (
            delta("query.cache.admit_refused") / ops, "1/op"),
        "backends.fallbacks": (
            (sql_fallbacks + delta("query.backend.fallback")) / ops, "1/op"),
        "rollup_index.builds": (builds / ops, "1/op"),
        "rollup_index.delta_ratio": (_ratio(deltas, deltas + builds),
                                     "ratio"),
        "columnar.hit_ratio": (
            _ratio(delta("columnar.hit"),
                   delta("columnar.hit") + delta("columnar.build")), "ratio"),
        "functions.kernel_fallbacks": (
            delta("aggregate.kernel.fallback") / ops, "1/op"),
        "relational.load_s": (load_seconds * scale, "s"),
        "relational.fallback_ratio": (
            _ratio(sql_fallbacks, routed.get("sql", 0)), "ratio"),
        "sharded.payload_hit_ratio": (
            _ratio(delta("sharded.payload.cache_hit"),
                   delta("sharded.payload.cache_hit")
                   + delta("sharded.payload.build")), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage_ratio": (root_seconds / timed, "ratio"),
        "write_p50_ms": (percentile(writes, 50) if writes else 0.0, "ms"),
        "write_p95_ms": (percentile(writes, 95) if writes else 0.0, "ms"),
        "error_rate": (failed / ops, "ratio"),
    })
    problems = self_check(name, metrics, routed, builds + deltas)
    extra = {"ops": (ops, "count"), "replayed_ops": (len(replayed), "count"),
             "speed_factor": (scale, "ratio")}
    return records, failed, metrics, extra, problems


def self_check(name: str, metrics, routed, index_refreshes) -> List[str]:
    """Why the traced run does not count: a breakdown that misses part
    of the traced time, or a workload that did not stress its layers."""
    problems = []
    coverage = metrics["trace.coverage_ratio"][0]
    if not COVERAGE_BOUNDS[0] <= coverage <= COVERAGE_BOUNDS[1]:
        problems.append(f"trace.coverage_ratio {coverage:.3f} outside "
                        f"{COVERAGE_BOUNDS}")
    hit_ratio = metrics["result_cache.hit_ratio"][0]
    if name == "dashboard" and hit_ratio < 0.99:
        problems.append(f"dashboard hit ratio {hit_ratio:.4f} < 0.99")
    if name == "adhoc" and hit_ratio != 0.0:
        problems.append(f"adhoc hit ratio {hit_ratio:.4f} != 0")
    if name == "ingest" and index_refreshes <= 0:
        problems.append("ingest never refreshed the rollup index")
    if name == "offload":
        if not (routed.get("sql") and routed.get("sharded")):
            problems.append(f"offload did not use both backends: {routed}")
        if metrics["backends.fallbacks"][0] != 0.0:
            problems.append("offload fell back from its backend")
    return problems


def provenance(args) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dashboard", "adhoc", "ingest", "offload"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # measure this checkout's source, never an installed copy
        print(f"no src/repro under {ROOT}: run from a repository checkout",
              file=sys.stderr)
        return 2

    problems: List[str] = []
    if args.trace:
        records, failed, metrics, extra, problems = traced(
            args.workload, args.seed, args.seconds)
    else:
        records, failed, metrics, extra = untraced(
            args.workload, args.seed, args.seconds)
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
