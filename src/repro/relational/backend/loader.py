"""Load a star export into an embedded SQL engine.

The loader creates two layers of tables:

* the **star layout itself** — ``fact``, ``dim_<d>``, ``hier_<d>``,
  ``bridge_<d>`` exactly as :meth:`StarSchema.table_names` lists them
  (unpopulated hier/bridge tables are not created — the
  ``table_names`` contract), with explicit column types so the same
  DDL works on sqlite and DuckDB;
* **auxiliary query tables** per dimension *index* (identifier-safe
  regardless of dimension names), which are what the compiler's SQL
  actually probes: ``bridgef_i`` (facts with any characterization,
  including ⊤), ``bridgev_i`` (distinct fact–value pairs, ⊤ excluded),
  ``closure_i`` (the reflexive–transitive containment closure,
  computed *in SQL* by a recursive CTE over the hierarchy rows),
  ``cat_i`` (value → category), ``val_i`` (numeric surrogates for
  measure pushdown), and ``member_i`` (category, value, fact): the
  paper's ``f ⇝ e`` for every category at once, built in the engine
  as ``bridgev_i ⋈ closure_i ⋈ cat_i`` so α's grouping is one indexed
  lookup per fact instead of a join rebuilt inside every statement.

Every column the compiled statements probe is indexed (``member_i``
by a covering ``(category, fact_id, value_id)`` index), and one
``ANALYZE`` after the last table gives the planner row counts, so no
statement builds an automatic index or scans under a correlated
subquery.  Only statements sqlite and DuckDB both accept are used.

sqlite3 is the zero-dependency default; DuckDB is an optional extra
behind the same interface (``SqlBackendUnavailable`` if absent).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.mo import MultidimensionalObject
from repro.core.values import DimensionValue, Fact
from repro.obs import metrics, trace
from repro.relational.relation import Relation
from repro.relational.star import StarSchema, encode_sid

__all__ = ["SqlBackendUnavailable", "LoadedStar", "connect", "load_star"]

_LOADS = metrics.counter("sql.backend.loads")
_LOAD_ROWS = metrics.histogram("sql.load.rows")


class SqlBackendUnavailable(RuntimeError):
    """The requested SQL engine is not importable in this environment
    (only DuckDB can be missing — sqlite3 is stdlib)."""


def connect(engine: str = "sqlite"):
    """An in-memory connection to the requested engine."""
    if engine == "sqlite":
        return sqlite3.connect(":memory:")
    if engine == "duckdb":
        try:
            import duckdb
        except ImportError as exc:
            raise SqlBackendUnavailable(
                "duckdb is not installed; use engine='sqlite'") from exc
        return duckdb.connect(":memory:")
    raise ValueError(f"unknown SQL engine {engine!r}")


@dataclass
class LoadedStar:
    """A populated connection plus the decode maps back to objects.

    ``measure_stats`` holds each measure statement's per-fact stats,
    keyed by ``(sql, params)``: they depend only on the measure
    dimension, so one run per load serves every query, and a reload
    (a new ``LoadedStar``) drops them with the stale star."""

    conn: object
    engine: str
    dims: Tuple[str, ...]
    value_maps: Dict[str, Dict[str, DimensionValue]]
    fact_map: Dict[str, Fact]
    n_rows: int
    measure_stats: Dict[Tuple[str, Tuple[object, ...]],
                        Dict[str, Tuple[int, float, float, float]]] = \
        field(default_factory=dict)

    def close(self) -> None:
        self.conn.close()


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _column_type(name: str) -> str:
    if name in ("valid_from", "valid_to"):
        return "BIGINT"
    if name in ("probability", "num"):
        return "DOUBLE"
    if name == "is_open":
        return "SMALLINT"
    return "VARCHAR"


def _adapt(column: str, value: object) -> object:
    """Star cells as the typed DDL accepts them (representation values
    can be arbitrary objects; they are display data, never queried by
    the pushdown, so stringifying is lossless enough)."""
    if value is None or _column_type(column) != "VARCHAR":
        return value
    return value if isinstance(value, str) else repr(value)


def _create(cursor, name: str, columns: Tuple[str, ...]) -> None:
    decls = ", ".join(f"{_quote(c)} {_column_type(c)}" for c in columns)
    cursor.execute(f"CREATE TABLE {_quote(name)} ({decls})")


def _insert_rows(cursor, name: str, columns: Tuple[str, ...],
                 rows: List[Tuple[object, ...]]) -> int:
    if rows:
        marks = ", ".join("?" for _ in columns)
        cursor.executemany(
            f"INSERT INTO {_quote(name)} VALUES ({marks})", rows)
    return len(rows)


def _load_relation(cursor, name: str, relation: Relation) -> int:
    _create(cursor, name, relation.attributes)
    rows = [tuple(_adapt(c, v) for c, v in zip(relation.attributes, row))
            for row in relation]
    return _insert_rows(cursor, name, relation.attributes, rows)


def _index(cursor, table: str, columns: Tuple[str, ...]) -> None:
    cursor.execute(f"CREATE INDEX idx_{table}_{'_'.join(columns)} "
                   f"ON {table} ({', '.join(columns)})")


def _build_membership(cursor, i: int) -> int:
    """``member_i``: every (category, value, fact) with the fact
    characterized by the value — a direct pair lifted through the
    closure to each ancestor, tagged with the ancestor's category.
    Filtered on one category it is α's grouping relation; the covering
    index answers that filter per fact without touching the table."""
    cursor.execute(
        f"CREATE TABLE member_{i} AS "
        f"SELECT DISTINCT cat.category AS category, "
        f"c.ancestor AS value_id, b.fact_id AS fact_id "
        f"FROM bridgev_{i} b "
        f"JOIN closure_{i} c ON c.child = b.value_id "
        f"JOIN cat_{i} cat ON cat.value_id = c.ancestor")
    _index(cursor, f"member_{i}", ("category", "fact_id", "value_id"))
    (count,) = cursor.execute(
        f"SELECT COUNT(*) FROM member_{i}").fetchone()
    return int(count)


def _closure_rows(cursor, i: int,
                  hier_table: Optional[str]) -> List[Tuple[str, str]]:
    """The reflexive–transitive closure of the containment order,
    computed by the SQL engine itself: seeds are every value the
    catalogue or a bridge knows, recursion follows hierarchy edges
    upward."""
    seed = (f"SELECT value_id FROM cat_{i} "
            f"UNION SELECT value_id FROM bridgev_{i}")
    if hier_table is None:
        sql = f"SELECT value_id, value_id FROM ({seed}) AS seeds"
    else:
        sql = (
            f"WITH RECURSIVE reach(child, ancestor) AS ("
            f"SELECT value_id, value_id FROM ({seed}) AS seeds "
            f"UNION "
            f"SELECT reach.child, h.parent_id "
            f"FROM reach JOIN {_quote(hier_table)} h "
            f"ON h.child_id = reach.ancestor) "
            f"SELECT DISTINCT child, ancestor FROM reach")
    return cursor.execute(sql).fetchall()


def load_star(star: StarSchema, mo: MultidimensionalObject,
              engine: str = "sqlite") -> LoadedStar:
    """Create and populate all tables for one export; returns the
    connection plus decode maps keyed by the tagged surrogate
    encoding."""
    with trace.span("sql.load", engine=engine,
                    fact_type=star.fact_type):
        conn = connect(engine)
        cursor = conn.cursor()
        n_rows = 0
        tables = star.tables()
        for name, relation in tables.items():
            n_rows += _load_relation(cursor, name, relation)

        # Auxiliary tables are indexed in *schema* order — the same
        # order StarCatalog.index uses when compiling probes.
        dims = tuple(mo.dimension_names)
        for i, dim in enumerate(dims):
            bridge = star.bridge_tables.get(dim)
            bridge_rows = list(bridge.as_dicts()) if bridge is not None \
                else []
            facts = sorted({row["fact_id"] for row in bridge_rows})
            pairs = sorted({(row["fact_id"], row["value_id"])
                            for row in bridge_rows
                            if row["value_id"] is not None})
            _create(cursor, f"bridgef_{i}", ("fact_id",))
            n_rows += _insert_rows(cursor, f"bridgef_{i}", ("fact_id",),
                                   [(f,) for f in facts])
            _index(cursor, f"bridgef_{i}", ("fact_id",))
            _create(cursor, f"bridgev_{i}", ("fact_id", "value_id"))
            n_rows += _insert_rows(cursor, f"bridgev_{i}",
                                   ("fact_id", "value_id"), pairs)
            _index(cursor, f"bridgev_{i}", ("fact_id",))
            _index(cursor, f"bridgev_{i}", ("value_id",))

            dim_table = star.dimension_tables[dim]
            cats = sorted({(row["value_id"], row["category"])
                           for row in dim_table.as_dicts()})
            _create(cursor, f"cat_{i}", ("value_id", "category"))
            n_rows += _insert_rows(cursor, f"cat_{i}",
                                   ("value_id", "category"), cats)
            # before the member_i build, which probes it per closure row
            _index(cursor, f"cat_{i}", ("value_id", "category"))

            nums = []
            for value in sorted(mo.dimension(dim).values(), key=repr):
                sid = value.sid
                if value.is_top or isinstance(sid, bool) or \
                        not isinstance(sid, (int, float)):
                    continue
                nums.append((encode_sid(sid), float(sid)))
            _create(cursor, f"val_{i}", ("value_id", "num"))
            n_rows += _insert_rows(cursor, f"val_{i}",
                                   ("value_id", "num"), nums)
            _index(cursor, f"val_{i}", ("value_id",))

            hier_name = f"hier_{dim}" if f"hier_{dim}" in tables else None
            closure = _closure_rows(cursor, i, hier_name)
            _create(cursor, f"closure_{i}", ("child", "ancestor"))
            n_rows += _insert_rows(cursor, f"closure_{i}",
                                   ("child", "ancestor"), closure)
            _index(cursor, f"closure_{i}", ("child",))
            _index(cursor, f"closure_{i}", ("ancestor",))

            n_rows += _build_membership(cursor, i)

        _index(cursor, "fact", ("fact_id",))
        cursor.execute("ANALYZE")
        conn.commit()
        value_maps = {
            dim: {encode_sid(v.sid): v
                  for v in mo.dimension(dim).values() if not v.is_top}
            for dim in dims
        }
        fact_map = {encode_sid(f.fid): f for f in mo.facts}
        _LOADS.inc()
        _LOAD_ROWS.observe(n_rows)
        return LoadedStar(conn=conn, engine=engine, dims=dims,
                          value_maps=value_maps, fact_map=fact_map,
                          n_rows=n_rows)
