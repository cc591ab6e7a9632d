"""Checks of the benchmark itself: seeded streams and isolation.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools

from perfbench import run, streams  # run puts src/ on sys.path
from perfbench.workloads import WORKLOADS, generate, inventory_of

STREAMS = {
    "adhoc": streams.adhoc_stream,
    "offload": streams.offload_stream,
    "ingest": streams.ingest_stream,
}


def _prefix(name: str, seed: int, n: int = 400):
    inventory = inventory_of(generate(seed))
    if name == "dashboard":
        return (streams.dashboard_queries(seed, inventory),
                list(itertools.islice(streams.dashboard_stream(seed), n)))
    return list(itertools.islice(STREAMS[name](seed, inventory), n))


def test_same_seed_same_stream():
    for name in ("dashboard", *STREAMS):
        assert _prefix(name, 3) == _prefix(name, 3), name


def test_different_seed_different_stream():
    for name in ("dashboard", *STREAMS):
        assert _prefix(name, 3) != _prefix(name, 4), name


def test_distinct_streams_have_no_canonical_duplicates():
    for name in ("adhoc", "offload"):
        specs = _prefix(name, 5, n=1000)
        assert len(set(specs)) == len(specs), name


def test_dashboard_set():
    queries = streams.dashboard_queries(6, inventory_of(generate(6)))
    assert len(set(queries)) == 24
    for grouping, dices, function in queries:
        assert len(grouping) in (1, 2) and len(dices) <= 1
        if function == streams.SET_COUNT:  # never the index fast path
            assert len(grouping) == 2 or dices


def _outcome(name: str, seed: int, n_ops: int):
    """A short count-bounded run: the answers and how the result cache
    treated each call."""
    workload = WORKLOADS[name](seed)
    workload.setup()
    try:
        before = run.counter_values()
        records, _ = run.run_window(workload, float("inf"), run.Speed(),
                                    max_ops=n_ops)
        after = run.counter_values()
        assert workload.verify(records) == 0
    finally:
        workload.teardown()
    counters = ("query.cache.hit", "query.cache.miss",
                "query.cache.stale_evicted")
    return ([(r.kind, r.rows_digest, r.error) for r in records],
            {c: after.get(c, 0.0) - before.get(c, 0.0) for c in counters})


def test_workload_order_does_not_change_outcomes():
    plan = {"dashboard": 40, "ingest": 15, "adhoc": 6, "offload": 6}
    forward = {name: _outcome(name, 2, n) for name, n in plan.items()}
    backward = {name: _outcome(name, 2, n)
                for name, n in reversed(list(plan.items()))}
    assert forward == backward
    assert forward["dashboard"][1]["query.cache.miss"] == 0
    assert forward["adhoc"][1]["query.cache.hit"] == 0
