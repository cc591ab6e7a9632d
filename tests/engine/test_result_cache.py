"""Tests for the versioned query-result cache: keying, invalidation,
LRU/byte eviction, cost-aware admission, isolation of returned rows,
and the ``Query.execute`` wiring."""

import pytest

from repro.algebra import SetCount
from repro.casestudy import case_study_mo, diagnosis_value
from repro.core.values import DimensionValue, Fact
from repro.engine import Query, ResultCache, version_vector
from repro.obs import metrics

#: generous compute time — passes any admission check
EXPENSIVE = 1.0


def _rows(n=3, names=("D",)):
    return [({name: DimensionValue(sid=(name, i)) for name in names}, i)
            for i in range(n)]


class TestVersionVector:
    def test_stable_without_mutation(self):
        mo = case_study_mo(temporal=False)
        assert version_vector(mo) == version_vector(mo)

    def test_every_counter_moves_it(self):
        mo = case_study_mo(temporal=False)
        v0 = version_vector(mo)
        fact = Fact(fid=999, ftype="Patient")
        mo.add_fact(fact)
        v1 = version_vector(mo)
        assert v1 != v0
        mo.relate(fact, "Diagnosis", diagnosis_value(4))
        v2 = version_vector(mo)
        assert v2 != v1
        dim = mo.dimension("Diagnosis")
        fresh = DimensionValue(sid=777777)
        dim.add_value(dim.dtype.bottom_name, fresh)
        assert version_vector(mo) != v2


class TestGetPut:
    def test_roundtrip(self):
        cache = ResultCache()
        rows = _rows()
        assert cache.put("fp", ("v",), ("D",), rows, EXPENSIVE)
        assert cache.get("fp", ("v",)) == rows
        assert len(cache) == 1

    def test_miss_on_unknown_digest(self):
        cache = ResultCache()
        assert cache.get("nope", ("v",)) is None

    def test_version_mismatch_evicts_stale(self):
        cache = ResultCache()
        cache.put("fp", ("v1",), ("D",), _rows(), EXPENSIVE)
        stale = metrics.counter("query.cache.stale_evicted")
        before = stale.value
        assert cache.get("fp", ("v2",)) is None
        assert stale.value == before + 1
        assert len(cache) == 0
        # the entry is gone even for the original version
        assert cache.get("fp", ("v1",)) is None

    def test_put_replaces_existing_entry(self):
        cache = ResultCache()
        cache.put("fp", ("v1",), ("D",), _rows(2), EXPENSIVE)
        cache.put("fp", ("v2",), ("D",), _rows(5), EXPENSIVE)
        assert len(cache) == 1
        assert cache.get("fp", ("v1",)) is None  # replaced, now stale
        assert len(cache) == 0

    def test_hits_return_isolated_rows(self):
        """A caller mutating its result must not poison later hits."""
        cache = ResultCache()
        cache.put("fp", ("v",), ("D",), _rows(), EXPENSIVE)
        first = cache.get("fp", ("v",))
        first[0][0]["D"] = "poisoned"
        second = cache.get("fp", ("v",))
        assert second == _rows()

    def test_empty_result_is_cacheable(self):
        cache = ResultCache()
        assert cache.put("fp", ("v",), (), [], EXPENSIVE)
        assert cache.get("fp", ("v",)) == []

    def test_clear_drops_everything(self):
        cache = ResultCache()
        cache.put("fp", ("v",), ("D",), _rows(), EXPENSIVE)
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        assert cache.get("fp", ("v",)) is None


class TestEviction:
    def test_lru_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", ("v",), ("D",), _rows(), EXPENSIVE)
        cache.put("b", ("v",), ("D",), _rows(), EXPENSIVE)
        cache.get("a", ("v",))  # refresh a: b is now the LRU victim
        evicted = metrics.counter("query.cache.evicted")
        before = evicted.value
        cache.put("c", ("v",), ("D",), _rows(), EXPENSIVE)
        assert evicted.value == before + 1
        assert cache.get("a", ("v",)) is not None
        assert cache.get("b", ("v",)) is None
        assert cache.get("c", ("v",)) is not None

    def test_byte_bound_evicts(self):
        cache = ResultCache(max_entries=100, max_bytes=1)
        cache.put("a", ("v",), ("D",), _rows(), EXPENSIVE)
        cache.put("b", ("v",), ("D",), _rows(), EXPENSIVE)
        # over budget: only the newest entry survives
        assert len(cache) == 1
        assert cache.get("b", ("v",)) is not None

    def test_byte_accounting_tracks_drops(self):
        cache = ResultCache()
        cache.put("a", ("v",), ("D",), _rows(50), EXPENSIVE)
        nbytes = cache.nbytes
        assert nbytes > 0
        cache.put("b", ("v",), ("D",), _rows(50), EXPENSIVE)
        assert cache.nbytes > nbytes
        assert cache.get("a", ("wrong",)) is None  # stale drop
        assert cache.nbytes == cache.nbytes  # coherent
        cache.clear()
        assert cache.nbytes == 0


class TestAdmission:
    def test_cheap_results_are_refused(self):
        cache = ResultCache()
        refused = metrics.counter("query.cache.admit_refused")
        before = refused.value
        assert not cache.put("fp", ("v",), ("D",), _rows(),
                             compute_seconds=0.0)
        assert refused.value == before + 1
        assert len(cache) == 0

    def test_expensive_results_are_admitted(self):
        cache = ResultCache()
        assert cache.put("fp", ("v",), ("D",), _rows(),
                         compute_seconds=EXPENSIVE)

    def test_admit_factor_scales_the_bar(self):
        tight = ResultCache(admit_factor=1e9)
        assert not tight.put("fp", ("v",), ("D",), _rows(),
                             compute_seconds=0.01)
        loose = ResultCache(admit_factor=0.0)
        assert loose.put("fp", ("v",), ("D",), _rows(),
                         compute_seconds=0.0)

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestQueryWiring:
    """The ``Query.execute`` integration: per-query caches, hit paths,
    exact invalidation, and the explain surface."""

    def _query(self, mo, cache):
        return (Query(mo, result_cache=cache)
                .rollup("Diagnosis", "Diagnosis Group"))

    def test_second_execute_hits(self):
        mo = case_study_mo(temporal=False)
        cache = ResultCache(admit_factor=0.0)
        q = self._query(mo, cache)
        hits = metrics.counter("query.cache.hit")
        cold = q.execute()
        before = hits.value
        assert q.execute() == cold
        assert hits.value == before + 1

    def test_explain_names_hit_miss_and_fingerprint(self):
        mo = case_study_mo(temporal=False)
        cache = ResultCache(admit_factor=0.0)
        q = self._query(mo, cache)
        miss = q.explain()
        assert [s.name for s in miss.steps] == \
            ["query.check", "query.cache", "query.index"]
        assert miss.steps[1].detail.startswith("miss: fingerprint=")
        hit = q.explain()
        assert hit.path == "cache"
        assert [s.name for s in hit.steps] == ["query.check", "query.cache"]
        assert hit.steps[1].detail.startswith("hit: fingerprint=")
        assert hit.rows == miss.rows

    def test_mutation_invalidates_exactly(self):
        mo = case_study_mo(temporal=False)
        cache = ResultCache(admit_factor=0.0)
        q = self._query(mo, cache)
        before = q.execute()
        fact = Fact(fid=888, ftype="Patient")
        mo.add_fact(fact)
        mo.relate(fact, "Diagnosis", diagnosis_value(4))
        after = q.execute()
        assert after == q.execute(cache=False)
        assert after != before

    def test_equivalent_queries_share_an_entry(self):
        """Builder order is surface syntax: two dices applied in either
        order canonicalize to one fingerprint, one entry."""
        mo = case_study_mo(temporal=False)
        cache = ResultCache(admit_factor=0.0)
        v4, v5 = diagnosis_value(4), diagnosis_value(5)
        base = Query(mo, result_cache=cache).rollup(
            "Diagnosis", "Diagnosis Group")
        ab = base.dice("Diagnosis", v4).dice("Diagnosis", v5)
        ba = base.dice("Diagnosis", v5).dice("Diagnosis", v4)
        ab.execute(check=False)
        hits = metrics.counter("query.cache.hit")
        before = hits.value
        assert ba.execute(check=False) == ab.execute(check=False)
        assert hits.value == before + 2
        assert len(cache) == 1

    def test_memory_and_sql_paths_share_an_entry(self):
        mo = case_study_mo(temporal=False)
        cache = ResultCache(admit_factor=0.0)
        q = self._query(mo, cache)
        rows = q.execute()
        assert q.explain(backend="sql").path == "cache"
        assert q.execute(backend="sql") == rows
        assert len(cache) == 1

    def test_cache_false_bypasses(self):
        mo = case_study_mo(temporal=False)
        cache = ResultCache(admit_factor=0.0)
        q = self._query(mo, cache)
        bypass = metrics.counter("query.cache.bypass")
        before = bypass.value
        q.execute(cache=False)
        assert bypass.value == before + 1
        assert len(cache) == 0

    def test_unfingerprintable_function_bypasses(self):
        from repro.algebra.functions import AggregationFunction

        class Custom(AggregationFunction):
            name = "custom"

            def apply(self, facts, mo):
                return len(facts)

        mo = case_study_mo(temporal=False)
        cache = ResultCache(admit_factor=0.0)
        q = self._query(mo, cache)
        bypass = metrics.counter("query.cache.bypass")
        before = bypass.value
        report = q.explain(Custom())
        assert bypass.value == before + 1
        assert [s.name for s in report.steps] == \
            ["query.check", "query.cache", "query.alpha"]
        cache_step = report.steps[1]
        assert cache_step.detail.startswith("bypass: ")
        assert "custom" in cache_step.detail
        assert len(cache) == 0

    def test_store_answers_are_cached_too(self, strict_clinical):
        from repro.engine import PreAggregateStore

        mo = strict_clinical.mo
        store = PreAggregateStore(mo)
        store.materialize(SetCount(), {"Diagnosis": "Diagnosis Group"})
        cache = ResultCache(admit_factor=0.0)
        q = Query(mo, store=store, result_cache=cache).rollup(
            "Diagnosis", "Diagnosis Group")
        assert q.explain().path == "store"
        assert q.explain().path == "cache"
        assert q.execute() == q.execute(cache=False)
