"""``ChangeLog.since``: the span ``(version, current]`` is the newest
``current - version`` entries, removals included, and the log still
refuses spans it cannot prove it covers (aged-out entries)."""

from repro.core.changelog import ChangeLog


def _log(n_entries, capacity=8):
    log = ChangeLog(capacity=capacity)
    for version in range(1, n_entries + 1):
        log.record(version, ("add", version))
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


def test_span_holding_a_removal_returns_it():
    log = _log(4)
    log.record(5, ("remove", "fact", {"a", "b"}))
    assert log.since(4, 5) == [("remove", "fact", {"a", "b"})]
    log.record(6, ("add", "fact", "c"))
    assert log.since(3, 6) == [("add", 4), ("remove", "fact", {"a", "b"}),
                               ("add", "fact", "c")]
