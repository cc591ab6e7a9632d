"""The four benchmark workloads against the public ``Query`` API.

Each workload is a closed loop with one client in one process: the next
call is issued only after the previous one returns.  A workload owns
its state from :meth:`Workload.setup` to :meth:`Workload.teardown`: a
freshly generated MO, a cleared process-wide result cache, and (for
``offload``) a loaded SQL star and a started worker pool, both released
again at teardown, so workloads never see each other's caches.

Answers are checked outside the timed window (:meth:`Workload.verify`)
against ``execute(check=False, cache=False)`` on the memory backend, or
for ``ingest`` against a fresh MO rebuilt by replaying the write log.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.algebra.functions import Avg, Max, Median, Min, SetCount, Sum
from repro.casestudy.icd import IcdShape
from repro.core.values import Fact
from repro.engine import result_cache
from repro.engine.query import Query
from repro.engine.sharded import ShardedBackend, shutdown_pool
from repro.relational import backend as sql_backend_module
from repro.relational.backend import sql_backend_for
from repro.workloads import ClinicalConfig, generate_clinical

from perfbench import streams
from perfbench.streams import Inventory, QuerySpec, WriteBatch

N_PATIENTS = 1000
ICD_SHAPE = IcdShape(n_groups=5, families_per_group=(3, 6),
                     lowlevels_per_family=(3, 6), extra_parent_prob=0.1)

_FUNCTIONS = {"SetCount": SetCount, "Sum": Sum, "Avg": Avg, "Min": Min,
              "Max": Max, "Median": Median}


def make_function(spec: streams.FunctionSpec):
    name, arg = spec
    cls = _FUNCTIONS[name]
    return cls() if arg is None else cls(arg)


def digest(rows) -> bytes:
    """A byte-for-byte fingerprint of a result: the rows' ``repr``."""
    return hashlib.sha1(repr(rows).encode()).digest()


def generate(seed: int):
    """The clinical workload every benchmark workload starts from."""
    return generate_clinical(ClinicalConfig(
        n_patients=N_PATIENTS, icd=ICD_SHAPE, seed=seed))


def release_sql_backends(mo) -> None:
    """Close the MO's SQL backends and drop them from the per-MO
    registry.  Closing alone keeps the registry entry, whose backend
    holds the MO strongly, so the MO would outlive the workload; the
    registry has no public way to drop an entry, so its own lock and
    table are used, and only if they are still there."""
    registry = getattr(sql_backend_module, "_BACKENDS", None)
    lock = getattr(sql_backend_module, "_REGISTRY_LOCK", None)
    if registry is None or lock is None:
        sql_backend_for(mo).close()
        return
    with lock:
        backends = registry.pop(mo, {})
    for backend in backends.values():
        backend.close()


def inventory_of(generated) -> Inventory:
    mo = generated.mo
    per_region = len(generated.counties) // len(generated.regions)
    ages = mo.dimension("Age").category("Age").members()
    return Inventory(
        regions=tuple(v.sid for v in generated.regions),
        counties=tuple((c.sid, generated.regions[i // per_region].sid)
                       for i, c in enumerate(generated.counties)),
        low_levels=tuple(v.sid for v in generated.icd.low_levels),
        areas=tuple(v.sid for v in generated.areas),
        ages=tuple(sorted(v.sid for v in ages)),
        patients=tuple(p.fid for p in generated.patients),
    )


class Catalog:
    """Surrogate id -> live object lookups for one MO."""

    def __init__(self, generated) -> None:
        mo = generated.mo
        self.mo = mo
        residence = generated.regions + generated.counties + generated.areas
        self.values = {
            "Residence": {v.sid: v for v in residence},
            "Diagnosis": {v.sid: v for v in generated.icd.low_levels},
            "Age": {v.sid: v for v in
                    mo.dimension("Age").category("Age").members()},
        }
        self.patients = {p.fid: p for p in generated.patients}

    def query(self, spec: QuerySpec) -> Tuple[Query, object]:
        """The spec built through the fluent builder, as a request
        handler would, plus a fresh function instance."""
        grouping, dices, function = spec
        q = Query(self.mo)
        for dimension, sid in dices:
            q = q.dice(dimension, self.values[dimension][sid])
        for dimension, category in grouping:
            q = q.rollup(dimension, category)
        return q, make_function(function)

    def apply_write(self, batch: WriteBatch) -> None:
        mo = self.mo
        low = self.values["Diagnosis"]
        for fid, sid in batch.relinks:
            mo.relate(self.patients[fid], "Diagnosis", low[sid])
        fid, age, area, sid = batch.new_patient
        patient = Fact(fid=fid, ftype="Patient")
        mo.add_fact(patient)
        mo.relate(patient, "Age", self.values["Age"][age])
        mo.relate(patient, "Residence", self.values["Residence"][area])
        mo.relate(patient, "Diagnosis", low[sid])
        self.patients[fid] = patient
        if batch.correction is not None:
            fid, sid = batch.correction
            mo.relation("Diagnosis").remove_fact(self.patients[fid])
            mo.relate(self.patients[fid], "Diagnosis", low[sid])


@dataclass
class Record:
    """One op of a window: what ran, how long it took (``seconds`` at
    reference speed, see :mod:`perfbench.speed`, and ``wall_seconds`` as
    measured), and what it answered (``rows_digest`` is None for writes
    and failed ops)."""

    kind: str
    spec: object
    seconds: float
    wall_seconds: float
    n_rows: int = 0
    rows_digest: Optional[bytes] = None
    error: Optional[str] = None


class Workload:
    """Base: fresh-state set-up and teardown, and one op per call."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.catalog: Optional[Catalog] = None
        self.inventory: Optional[Inventory] = None
        self.load_seconds = 0.0

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> None:
        result_cache.DEFAULT_CACHE.clear()
        generated = generate(self.seed)
        mo = generated.mo
        index = mo.rollup_index()
        for name in mo.dimension_names:
            index.group_counts(name, mo.dimension(name).dtype.top_name)
        self.catalog = Catalog(generated)
        self.inventory = inventory_of(generated)
        self.warm()

    def warm(self) -> None:
        """The workload's warm pass (part of set-up)."""

    def teardown(self) -> None:
        result_cache.DEFAULT_CACHE.clear()
        self.catalog = None

    # -- the op stream ----------------------------------------------------

    def stream(self) -> Iterator[object]:
        raise NotImplementedError

    def run_op(self, spec) -> Tuple[str, Optional[list]]:
        """Run one op: ``(kind, rows)``; rows is None for writes."""
        raise NotImplementedError

    # -- answers ----------------------------------------------------------

    def oracle(self, spec: QuerySpec) -> bytes:
        q, function = self.catalog.query(spec)
        return digest(q.execute(function, check=False, cache=False))

    def verify(self, records: List[Record]) -> int:
        """How many of the window's answers disagree with the oracle
        (failed ops are already counted and are skipped here)."""
        expected: Dict[object, bytes] = {}
        wrong = 0
        for record in records:
            if record.rows_digest is None:
                continue
            key = self.read_spec(record.spec)
            if key not in expected:
                expected[key] = self.oracle(key)
            if record.rows_digest != expected[key]:
                wrong += 1
        return wrong

    def read_spec(self, spec) -> QuerySpec:
        return spec


class Dashboard(Workload):
    """A fixed set of distinct queries replayed with Zipf skew; after
    the warm pass every call is a result-cache hit."""

    name = "dashboard"

    def warm(self) -> None:
        self.queries = streams.dashboard_queries(self.seed, self.inventory)
        for spec in self.queries:
            q, function = self.catalog.query(spec)
            q.execute(function)

    def stream(self) -> Iterator[int]:
        return streams.dashboard_stream(self.seed)

    def run_op(self, spec: int) -> Tuple[str, Optional[list]]:
        q, function = self.catalog.query(self.queries[spec])
        return "read", q.execute(function)

    def read_spec(self, spec: int) -> QuerySpec:
        return self.queries[spec]


class Adhoc(Workload):
    """Distinct queries, bottoms included: every call misses the
    cache."""

    name = "adhoc"

    def warm(self) -> None:
        # the ungrouped query (never in the stream) once per function:
        # loads measure columns and the analyzer's classification memo
        for function in dict.fromkeys(streams.ADHOC_FUNCTIONS):
            Query(self.catalog.mo).execute(make_function(function),
                                           cache=False)

    def stream(self) -> Iterator[QuerySpec]:
        return streams.adhoc_stream(self.seed, self.inventory)

    def run_op(self, spec: QuerySpec) -> Tuple[str, Optional[list]]:
        q, function = self.catalog.query(spec)
        return "read", q.execute(function)


class Offload(Workload):
    """A distinct stream routed by ``check()``: shard-safe queries run
    on the process pool, the rest on the SQL backend."""

    name = "offload"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.n_shards = min(2, os.cpu_count() or 1)
        self.routed = {"sql": 0, "sharded": 0}

    def warm(self) -> None:
        mo = self.catalog.mo
        t0 = time.perf_counter()
        sql_backend_for(mo).ensure_loaded()
        self.load_seconds = time.perf_counter() - t0
        self.sharded = ShardedBackend(n_shards=self.n_shards)
        # start the pool through a throwaway backend instance, so the
        # stream's backend starts with an empty payload cache
        Query(mo).execute(SetCount(), cache=False,
                          backend=ShardedBackend(n_shards=self.n_shards))
        for function in streams.OFFLOAD_FUNCTIONS:
            Query(mo).execute(make_function(function), cache=False,
                              backend="sql")

    def teardown(self) -> None:
        shutdown_pool()
        if self.catalog is not None:
            release_sql_backends(self.catalog.mo)
        self.sharded = None
        super().teardown()

    def stream(self) -> Iterator[QuerySpec]:
        return streams.offload_stream(self.seed, self.inventory)

    def run_op(self, spec: QuerySpec) -> Tuple[str, Optional[list]]:
        q, function = self.catalog.query(spec)
        report = q.check(function)
        if any(code.startswith("MD07") for code in report.codes()):
            self.routed["sql"] += 1
            return "read", q.execute(function, backend="sql")
        self.routed["sharded"] += 1
        return "read", q.execute(function, backend=self.sharded)


class Ingest(Workload):
    """Write batches, each followed by dashboard reads: every read
    follows a version-vector move."""

    name = "ingest"

    def warm(self) -> None:
        self.queries = streams.dashboard_queries(self.seed, self.inventory)
        self.write_log: List[WriteBatch] = []
        for spec in self.queries:
            q, function = self.catalog.query(spec)
            q.execute(function)

    def stream(self) -> Iterator[streams.IngestOp]:
        return streams.ingest_stream(self.seed, self.inventory)

    def run_op(self, spec: streams.IngestOp) -> Tuple[str, Optional[list]]:
        kind, payload = spec
        if kind == "write":
            self.catalog.apply_write(payload)
            self.write_log.append(payload)
            return "write", None
        q, function = self.catalog.query(self.queries[payload])
        return "read", q.execute(function)

    def verify(self, records: List[Record]) -> int:
        """Compare the final MO's dashboard answers (defaults, through
        the process cache) with a fresh MO rebuilt by replaying the
        write log: fresh index, no deltas, no cache."""
        fresh = Catalog(generate(self.seed))
        for batch in self.write_log:
            fresh.apply_write(batch)
        wrong = 0
        for spec in self.queries:
            q, function = self.catalog.query(spec)
            final = digest(q.execute(function))
            q, function = fresh.query(spec)
            if final != digest(q.execute(function, check=False, cache=False)):
                wrong += 1
        return wrong


WORKLOADS = {cls.name: cls for cls in (Dashboard, Adhoc, Ingest, Offload)}
