"""``ChangeLog.since``: the span ``(version, current]`` is the newest
``current - version`` entries, and the log still refuses spans it
cannot replay (aged-out entries, barriers)."""

from repro.core.changelog import ChangeLog


def _log(n_entries, capacity=8, barriers=()):
    log = ChangeLog(capacity=capacity)
    for version in range(1, n_entries + 1):
        log.record(version, None if version in barriers else ("add", version))
    return log


def test_empty_span():
    log = _log(5)
    assert log.since(5, 5) == []
    assert ChangeLog().since(0, 0) == []


def test_exact_span_oldest_first():
    log = _log(5)
    assert log.since(2, 5) == [("add", 3), ("add", 4), ("add", 5)]
    assert log.since(0, 5) == [("add", v) for v in range(1, 6)]
    assert log.since(4, 5) == [("add", 5)]


def test_aged_out_entry_is_a_gap():
    log = _log(12, capacity=8)  # versions 1-4 aged out
    assert log.since(4, 12) == [("add", v) for v in range(5, 13)]
    assert log.since(3, 12) is None
    assert log.since(0, 12) is None


def test_span_past_the_newest_entry_is_a_gap():
    log = _log(5)
    assert log.since(3, 6) is None


def test_barrier_inside_the_span():
    log = _log(6, barriers={4})
    assert log.since(2, 6) is None  # in the middle
    assert log.since(3, 6) is None  # the span's oldest entry
    assert _log(4, barriers={4}).since(2, 4) is None  # its newest


def test_barrier_just_outside_the_span():
    log = _log(6, barriers={4})
    assert log.since(4, 6) == [("add", 5), ("add", 6)]
