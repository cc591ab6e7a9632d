"""Tests for trace spans and the ring buffer."""

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts disabled with an empty buffer and the default
    buffer size, and leaves tracing off for the rest of the suite."""
    trace.disable()
    trace.set_buffer_size(trace.DEFAULT_BUFFER_SIZE)
    trace.clear()
    yield
    trace.disable()
    trace.set_buffer_size(trace.DEFAULT_BUFFER_SIZE)
    trace.clear()


class TestDisabled:
    def test_disabled_span_records_nothing(self):
        with trace.span("a", k=1):
            pass
        assert trace.spans() == []

    def test_disabled_span_is_shared_noop(self):
        assert trace.span("a") is trace.span("b")


class TestEnabled:
    def test_span_records_name_attrs_elapsed(self):
        trace.enable()
        with trace.span("aggregate.alpha", grouping=("Diagnosis",)):
            pass
        (record,) = trace.spans()
        assert record.name == "aggregate.alpha"
        assert record.attributes == {"grouping": ("Diagnosis",)}
        assert record.elapsed_seconds >= 0.0
        assert record.depth == 0
        assert record.parent is None

    def test_nesting_depth_and_parent(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        inner, outer = trace.spans()  # children finish first
        assert inner.name == "inner"
        assert inner.depth == 1
        assert inner.parent == "outer"
        assert outer.depth == 0
        assert outer.elapsed_seconds >= inner.elapsed_seconds

    def test_exception_still_records_and_unwinds(self):
        trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("outer"):
                with trace.span("failing"):
                    raise RuntimeError("boom")
        assert [r.name for r in trace.spans()] == ["failing", "outer"]
        with trace.span("after"):
            pass
        assert trace.spans()[-1].depth == 0

    def test_ring_buffer_caps_retention(self):
        trace.enable(buffer_size=3)
        for i in range(10):
            with trace.span(f"s{i}"):
                pass
        assert [r.name for r in trace.spans()] == ["s7", "s8", "s9"]

    def test_spans_filter_by_name(self):
        trace.enable()
        for name in ("a", "b", "a"):
            with trace.span(name):
                pass
        assert len(trace.spans("a")) == 2

    def test_clear_keeps_enabled_state(self):
        trace.enable()
        with trace.span("a"):
            pass
        trace.clear()
        assert trace.spans() == []
        assert trace.is_enabled()

    def test_disable_keeps_recorded_spans(self):
        trace.enable()
        with trace.span("a"):
            pass
        trace.disable()
        assert [r.name for r in trace.spans()] == ["a"]

    def test_bad_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            trace.set_buffer_size(0)


class TestCollect:
    def test_records_while_disabled_and_skips_buffer(self):
        with trace.collect() as records:
            with trace.span("a", k=1):
                pass
        assert [r.name for r in records] == ["a"]
        assert records[0].attributes == {"k": 1}
        assert trace.spans() == []

    def test_start_order_and_parent_index(self):
        with trace.collect() as records:
            with trace.span("root"):
                with trace.span("first"):
                    with trace.span("grandchild"):
                        pass
                with trace.span("second"):
                    pass
        assert [(r.name, r.parent_index, r.depth) for r in records] == [
            ("root", None, 0), ("first", 0, 1), ("grandchild", 1, 2),
            ("second", 0, 1)]
        assert records[0].elapsed_seconds >= records[1].elapsed_seconds

    def test_set_before_close(self):
        with trace.collect() as records:
            with trace.span("a", k=1) as span:
                assert span
                span.set(k=2, extra="x")
        assert records[0].attributes == {"k": 2, "extra": "x"}

    def test_set_on_null_span_does_nothing(self):
        span = trace.span("a")
        assert not span
        with span:
            span.set(k=1)
        assert trace.spans() == []

    def test_records_to_both_sinks(self):
        trace.enable()
        with trace.collect() as records:
            with trace.span("a"):
                pass
        assert trace.spans() == records

    def test_nested_collect_gets_its_own_list(self):
        with trace.collect() as outer:
            with trace.span("outer"):
                with trace.collect() as inner:
                    with trace.span("inner"):
                        pass
                with trace.span("after"):
                    pass
        assert [r.name for r in outer] == ["outer", "after"]
        assert [(r.name, r.parent_index) for r in inner] == [
            ("inner", None)]
        assert trace.span("a") is trace.span("b")  # all closed again

    def test_other_thread_not_collected(self):
        import threading

        seen = []

        def work():
            with trace.span("elsewhere") as span:
                seen.append(bool(span))

        with trace.collect() as records:
            with trace.span("here"):
                thread = threading.Thread(target=work)
                thread.start()
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [False]
        assert [r.name for r in records] == ["here"]


class TestThreadSafety:
    def test_concurrent_spans_all_recorded(self):
        import threading

        trace.enable(buffer_size=100_000)
        n_threads, n_spans = 8, 500

        def work():
            for _ in range(n_spans):
                with trace.span("concurrent"):
                    pass

        threads = [threading.Thread(target=work)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(trace.spans("concurrent")) == n_threads * n_spans

    def test_resize_under_concurrent_appends_never_corrupts(self):
        """Buffer management (enable/clear/resize) must stay coherent
        while spans finish on other threads; a span finishing during a
        resize may land in the dropped buffer — documented, not a
        crash."""
        import threading

        trace.enable(buffer_size=64)
        stop = []

        def churn():
            while not stop:
                with trace.span("churn"):
                    pass

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for size in (32, 128, 64, 16) * 25:
                trace.set_buffer_size(size)
                records = trace.spans()
                assert len(records) <= size
                assert all(r.name == "churn" for r in records)
        finally:
            stop.append(True)
            writer.join()


class TestEngineIntegration:
    def test_aggregate_emits_alpha_span(self, snapshot_mo):
        from repro.algebra import SetCount, aggregate
        from repro.core.helpers import make_result_spec

        trace.enable()
        aggregate(snapshot_mo, SetCount(),
                  {"Diagnosis": "Diagnosis Group"}, make_result_spec(),
                  strict_types=False)
        trace.disable()
        names = [r.name for r in trace.spans()]
        assert "aggregate.alpha" in names

    def test_cache_hit_records_one_execute_span(self, snapshot_mo):
        from repro.engine import Query, ResultCache

        query = Query(snapshot_mo, result_cache=ResultCache(
            admit_factor=0.0)).rollup("Diagnosis", "Diagnosis Group")
        query.execute()
        trace.enable()
        query.execute()
        (root,) = trace.spans("query.execute")
        assert root.attributes["path"] == "cache"
