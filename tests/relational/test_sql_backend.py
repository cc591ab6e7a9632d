"""Tests for the SQL pushdown backend: plan compilation, execution
equivalence with the in-memory engine, fallback behavior, staleness,
and the analyzer/observability integration."""

from itertools import product

import pytest

from repro.algebra import characterized_by, rename, value_in_category
from repro.algebra.functions import (
    Avg,
    CountDim,
    Max,
    Median,
    Min,
    SetCount,
    Sum,
)
from repro.analyze import analyze_pushdown
from repro.casestudy import case_study_mo, diagnosis_value, patient_fact
from repro.core.values import DimensionValue
from repro.engine.optimizer import (
    Base,
    DifferenceNode,
    JoinNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    UnionNode,
    evaluate,
)
from repro.engine.query import Query
from repro.obs import metrics
from repro.relational.backend import (
    PushdownUnsupported,
    SqlBackend,
    SqlBackendUnavailable,
    connect,
    sql_backend_for,
)


@pytest.fixture()
def mo():
    return case_study_mo(temporal=False)


@pytest.fixture()
def backend(mo):
    b = SqlBackend(mo)
    yield b
    b.close()


def _diag_select(mo, sid=4):
    return SelectNode(child=Base(mo),
                      predicate=characterized_by(
                          "Diagnosis", diagnosis_value(sid)))


class TestFactSetPushdown:
    def test_select(self, mo, backend):
        plan = _diag_select(mo)
        assert backend.execute_facts(plan) == evaluate(plan).facts

    def test_select_top_target(self, mo, backend):
        top = mo.dimension("Diagnosis").top_value
        plan = SelectNode(child=Base(mo),
                          predicate=characterized_by("Diagnosis", top))
        assert backend.execute_facts(plan) == evaluate(plan).facts

    def test_union_and_difference(self, mo, backend):
        left = _diag_select(mo, 4)
        right = _diag_select(mo, 5)
        for node in (UnionNode(left=left, right=right),
                     DifferenceNode(left=left, right=right)):
            assert backend.execute_facts(node) == evaluate(node).facts

    def test_project_keeps_fact_set(self, mo, backend):
        plan = ProjectNode(child=_diag_select(mo),
                           dimensions=("Diagnosis", "Age"))
        assert backend.execute_facts(plan) == evaluate(plan).facts

    def test_select_after_rename(self, mo, backend):
        renamed = RenameNode(child=Base(mo),
                             dimension_map=(("Diagnosis", "Dx"),),
                             new_fact_type=None)
        plan = SelectNode(child=renamed,
                          predicate=characterized_by(
                              "Dx", diagnosis_value(4)))
        assert backend.execute_facts(plan) == evaluate(plan).facts

    def test_base_only(self, mo, backend):
        assert backend.execute_facts(Base(mo)) == mo.facts


class TestQueryEquivalence:
    FUNCTIONS = [SetCount(), CountDim("Age"), Sum("Age"), Avg("Age"),
                 Min("Age"), Max("Age")]

    @pytest.mark.parametrize("function", FUNCTIONS,
                             ids=lambda f: f.name)
    def test_case_study_rollup(self, mo, function):
        q = Query(mo).rollup("Diagnosis", "Diagnosis Family")
        assert q.execute(function, check=False, cache=False) == \
            q.execute(function, check=False, backend="sql", cache=False)

    def test_result_name_collision(self):
        # a dimension named like the query's result dimension: α's
        # result MO would collide with it, the query's rows do not
        mo = rename(case_study_mo(temporal=False),
                    dimension_map={"Name": "__query_result"})
        q = Query(mo).rollup("Diagnosis", "Diagnosis Group")
        rows = q.execute(Sum("Age"), check=False, cache=False)
        assert len(rows) == 2
        assert rows == q.execute(Sum("Age"), check=False, backend="sql",
                                 cache=False)

    def test_diced_rollup(self, mo):
        q = (Query(mo).rollup("Diagnosis", "Diagnosis Group")
             .dice("Diagnosis", diagnosis_value(4)))
        assert q.execute(cache=False) == \
            q.execute(backend="sql", cache=False)

    def test_two_dimensional_grouping(self, mo):
        q = (Query(mo).rollup("Diagnosis", "Diagnosis Group")
             .rollup("Age", "Ten-year group"))
        assert q.execute(cache=False) == \
            q.execute(backend="sql", cache=False)

    def test_no_grouping(self, mo):
        q = Query(mo)
        assert q.execute(cache=False) == \
            q.execute(backend="sql", cache=False)

    def test_clinical_workload(self, small_clinical):
        mo = small_clinical.mo
        for dim, category in [("Diagnosis", "Diagnosis Family"),
                              ("Diagnosis", "Diagnosis Group"),
                              ("Residence", "Region")]:
            q = Query(mo).rollup(dim, category)
            assert q.execute(check=False, cache=False) == \
                q.execute(check=False, backend="sql",
                          cache=False), (dim, category)

    def test_unknown_backend_rejected(self, mo):
        with pytest.raises(ValueError):
            Query(mo).execute(backend="oracle")
        with pytest.raises(ValueError):
            Query(mo).explain(backend="oracle")


class TestFallback:
    def _fallback_code(self, plan):
        report = analyze_pushdown(plan)
        assert len(report) == 1
        return report.codes()[0]

    def test_median_falls_back_with_md052(self, mo):
        q = Query(mo).rollup("Diagnosis", "Diagnosis Family")
        plan = q.to_plan(Median("Age"))
        assert self._fallback_code(plan) == "MD052"
        assert q.execute(Median("Age"), check=False, cache=False) == \
            q.execute(Median("Age"), check=False, backend="sql",
                      cache=False)

    def test_strict_types_fall_back_with_md052(self, mo):
        plan = Query(mo).rollup("Diagnosis", "Diagnosis Family") \
            .to_plan(Sum("Age"), strict_types=True)
        assert self._fallback_code(plan) == "MD052"

    def test_top_grouping_falls_back_with_md052(self, mo):
        plan = Query(mo).rollup("Diagnosis", "⊤Diagnosis").to_plan()
        assert self._fallback_code(plan) == "MD052"

    def test_temporal_mo_falls_back_with_md050(self):
        tm = case_study_mo(temporal=True)
        q = Query(tm).rollup("Diagnosis", "Diagnosis Family")
        assert self._fallback_code(q.to_plan()) == "MD050"
        assert q.execute(check=False, cache=False) == \
            q.execute(check=False, backend="sql", cache=False)

    def test_join_falls_back_with_md050(self, mo, backend):
        renamed = RenameNode(
            child=Base(mo),
            dimension_map=tuple((d, f"{d}_r") for d in mo.dimension_names),
            new_fact_type=None)
        join = JoinNode(left=Base(mo), right=renamed)
        with pytest.raises(PushdownUnsupported) as exc:
            backend.compile(join)
        assert exc.value.code == "MD050"

    def test_opaque_predicate_falls_back_with_md051(self, mo, backend):
        plan = SelectNode(
            child=Base(mo),
            predicate=value_in_category("Age", "Age", lambda v: True))
        with pytest.raises(PushdownUnsupported) as exc:
            backend.compile(plan)
        assert exc.value.code == "MD051"

    def test_fallback_increments_counter(self, mo):
        counter = metrics.counter("sql.pushdown.fallback")
        before = counter.value
        q = Query(mo).rollup("Diagnosis", "Diagnosis Family")
        q.execute(Median("Age"), check=False, backend="sql", cache=False)
        assert counter.value == before + 1


class TestExplain:
    def test_sql_path_shows_emitted_sql(self, mo):
        report = (Query(mo).rollup("Diagnosis", "Diagnosis Family")
                  .dice("Diagnosis", diagnosis_value(4))
                  .explain(backend="sql", cache=False))
        assert report.path == "sql"
        assert report.rows == (Query(mo)
                               .rollup("Diagnosis", "Diagnosis Family")
                               .dice("Diagnosis", diagnosis_value(4))
                               .execute(cache=False))
        assert [step.name for step in report.steps] == \
            ["query.check", "sql.load", "sql.compile", "sql.execute"]
        compiled_sql = report.steps[2].detail
        assert "SELECT fact_id FROM fact" in compiled_sql
        assert "closure_" in compiled_sql
        assert compiled_sql == sql_backend_for(mo).explain_sql(
            Query(mo).rollup("Diagnosis", "Diagnosis Family")
            .dice("Diagnosis", diagnosis_value(4)).to_plan())

    def test_fallback_path_names_the_reason(self, mo):
        report = (Query(mo).rollup("Diagnosis", "Diagnosis Family")
                  .explain(Median("Age"), backend="sql", cache=False))
        assert report.path == "alpha"
        assert [step.name for step in report.steps] == \
            ["query.check", "sql.load", "sql.compile", "backends.fallback",
             "query.alpha"]
        assert "MD052" in report.steps[3].detail

    def test_explain_sql_renders_per_node(self, mo, backend):
        text = backend.explain_sql(
            Query(mo).rollup("Diagnosis", "Diagnosis Family").to_plan())
        assert "-- Base(Patient)" in text
        assert "-- α[" in text


def _link_new_diagnosis(mo):
    new = DimensionValue(sid=12345)
    mo.dimension("Diagnosis").add_value("Low-level Diagnosis", new)
    mo.relate(patient_fact(1), "Diagnosis", new)


def _relink_age(mo):
    """Move patient 2 (the one with low-level diagnoses) to another
    existing Age: the grouping rows stay, only the per-fact measure
    stats change."""
    patient = patient_fact(2)
    (old,) = mo.relation("Age").values_of(patient)
    new = next(v for v in sorted(mo.dimension("Age").category("Age")
                                 .members(), key=lambda v: v.sid)
               if v != old)
    mo.relation("Age").remove_fact(patient)
    mo.relate(patient, "Age", new)


class TestStaleness:
    def test_mutation_triggers_reload(self):
        """A mutation reloads the star, and the per-load measure stats
        leave with the stale star (the ``Sum`` input)."""
        for function, mutate in ((SetCount(), _link_new_diagnosis),
                                 (Sum("Age"), _relink_age)):
            mo = case_study_mo(temporal=False)
            backend = sql_backend_for(mo)
            q = Query(mo).rollup("Diagnosis", "Low-level Diagnosis")
            fallback = metrics.counter("sql.pushdown.fallback")
            fell_back = fallback.value
            before = q.execute(function, check=False, backend="sql",
                               cache=False)
            assert not backend.stale

            loads = metrics.counter("sql.backend.loads")
            loaded_count = loads.value
            mutate(mo)
            assert backend.stale

            after_sql = q.execute(function, check=False, backend="sql",
                                  cache=False)
            after_mem = q.execute(function, check=False, cache=False)
            assert after_sql == after_mem, function.name
            assert after_sql != before, function.name
            assert loads.value == loaded_count + 1, function.name
            assert fallback.value == fell_back, function.name

    def test_backend_cache_is_per_mo(self, mo):
        other = case_study_mo(temporal=False)
        assert sql_backend_for(mo) is sql_backend_for(mo)
        assert sql_backend_for(mo) is not sql_backend_for(other)

    def test_backend_cache_is_bounded(self):
        """Each backend owns a connection, so the per-MO registry must
        evict least-recently-used backends beyond its bound."""
        from repro.relational.backend import MAX_CACHED_BACKENDS, _RECENT

        evicted = metrics.counter("sql.backend.evicted")
        before = evicted.value
        mos = [case_study_mo(temporal=False)
               for _ in range(MAX_CACHED_BACKENDS + 2)]
        backends = [sql_backend_for(m) for m in mos]
        assert len(_RECENT) <= MAX_CACHED_BACKENDS
        assert evicted.value >= before + 2
        # the most recent backend survived; the oldest was closed and
        # dropped, so asking again builds a fresh one
        assert sql_backend_for(mos[-1]) is backends[-1]
        assert sql_backend_for(mos[0]) is not backends[0]

    def test_evicted_backend_still_answers_when_reasked(self):
        from repro.relational.backend import MAX_CACHED_BACKENDS

        keep = case_study_mo(temporal=False)
        expected = (Query(keep).rollup("Diagnosis", "Diagnosis Family")
                    .execute(cache=False))
        others = [case_study_mo(temporal=False)
                  for _ in range(MAX_CACHED_BACKENDS + 1)]
        for m in others:
            sql_backend_for(m)
        rows = (Query(keep).rollup("Diagnosis", "Diagnosis Family")
                .execute(backend="sql", cache=False))
        assert rows == expected


class TestPlanShape:
    """Every compiled statement stays linear in the star: no automatic
    index built per statement, no table scanned once per outer row.
    sqlite-specific — it reads sqlite's ``EXPLAIN QUERY PLAN`` tree."""

    GROUPINGS = [
        (),
        (("Diagnosis", "Diagnosis Family"),),
        (("Diagnosis", "Diagnosis Group"), ("Residence", "Region")),
        (("Age", "Age"), ("Diagnosis", "Low-level Diagnosis")),
    ]

    @staticmethod
    def _flagged(conn, sql, params):
        """Plan lines building an ``AUTOMATIC`` index, or running a
        ``SCAN`` at or under a ``CORRELATED`` subquery."""
        plan = conn.execute("EXPLAIN QUERY PLAN " + sql, params).fetchall()
        detail = {node: text for node, _up, _unused, text in plan}
        parent = {node: up for node, up, _unused, _text in plan}
        flagged = []
        for node, text in detail.items():
            chain = []
            while node in detail:
                chain.append(detail[node])
                node = parent[node]
            correlated = any("CORRELATED" in line for line in chain)
            if "AUTOMATIC" in text or \
                    (text.startswith("SCAN") and correlated):
                flagged.append(text)
        return flagged

    def test_no_automatic_index_or_correlated_scan(self, small_clinical):
        mo = small_clinical.mo
        residence = mo.dimension("Residence")
        county = sorted(residence.category("County").members(),
                        key=repr)[0]
        region = next(v for v in residence.ancestors(county)
                      if residence.category_name_of(v) == "Region")
        dices = [(), (region,), (county,), (county, region)]
        backend = SqlBackend(mo)
        try:
            conn = backend.ensure_loaded().conn
            statements = []
            for grouping, dice, function in product(
                    self.GROUPINGS, dices, (SetCount(), Sum("Age"))):
                q = Query(mo)
                for name, category in grouping:
                    q = q.rollup(name, category)
                for value in dice:
                    q = q.dice("Residence", value)
                compiled = backend.compile(q.to_plan(function))
                statements.append((compiled.sql, compiled.params))
                agg = compiled.aggregate
                if agg.measure_sql:
                    statements.append((agg.measure_sql,
                                       agg.measure_params))
            assert len(statements) == 48  # 32 α + 16 measure statements
            flagged = {}
            for sql, params in statements:
                lines = self._flagged(conn, sql, params)
                if lines:
                    flagged[sql] = lines
        finally:
            backend.close()
        assert not flagged


class TestEngines:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            connect("oracle")

    def test_duckdb_gated_behind_same_interface(self, mo):
        try:
            import duckdb  # noqa: F401
        except ImportError:
            with pytest.raises(SqlBackendUnavailable):
                connect("duckdb")
            return
        backend = SqlBackend(mo, engine="duckdb")
        q = Query(mo).rollup("Diagnosis", "Diagnosis Family")
        assert backend.execute_rows(q.to_plan()) == q.execute(cache=False)
        backend.close()


class TestObservability:
    def test_compile_counters_move(self, mo):
        compiled = metrics.counter("sql.pushdown.compiled")
        nodes = metrics.counter("sql.pushdown.node_compiled")
        c0, n0 = compiled.value, nodes.value
        Query(mo).rollup("Diagnosis", "Diagnosis Family") \
            .execute(backend="sql", cache=False)
        assert compiled.value == c0 + 1
        assert nodes.value >= n0 + 2  # Base + α at least
