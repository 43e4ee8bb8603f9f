"""One differential matrix: backend (serial / thread / process) × cache
tier (raw / all paths cached / result-cache hit / degraded splits /
cancelled, then rerun) × entry point (``MaxsonSystem.sql``, ``baseline_sql``
for raw / ``MaxsonServer.submit`` / ``ClusterRouter.submit``). Each cell
runs ``tests/sql_generator.py`` statements and compares them with
``tests/reference_engine.py``: in order under ORDER BY, as a multiset
otherwise; thread and process session cells on the raw and cached tiers
also count what the serial session counts. A cancelled statement raises
mid-query (through the router, at a deadline every statement outlives)
and leaves nothing held; a degraded one is never admitted to the result
cache. Session and server cells share one system per backend over the
seven-split ``db.t``; router cells one single-shard router per backend
and profile over ``prod.t_q7``, their reference its in-process twin. Each
cell runs once per session (the older legs it replaced wrap
``matrix.check``): one statement per plan shape, all 500 where a leg
always ran them, and all 500 everywhere with ``--every-statement`` —
then three fixed statements whose rows a wrong NULL rule changes.
"""

import re
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from unittest import mock

import pytest

from repro.cluster import ClusterRouter, ShardSpec, build_shard_server
from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import CancelToken, QueryCancelledError, Session
from repro.faults import FaultPolicy, FaultyFileSystem, parse_fault_profile
from repro.jsonlib import dumps
from repro.server import MaxsonServer, ServerConfig, service
from repro.server.admission import QueryShedError
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

from irregular_documents import irregular_documents
from reference_engine import reference_rows
from sql_generator import MEMBERS, null_statements, statements

BACKENDS = {
    "serial": {"scan_workers": 1},
    "thread": {"scan_workers": 4},
    "process": {"scan_workers": 2, "worker_backend": "process"},
}
TIERS = ("raw", "cached", "result", "cancelled", "degraded")
CELLS = [(b, t, e) for e in ("session", "server", "router") for b in BACKENDS for t in TIERS]
#: The cells whose legs ran all 500 statements in tier-1 before the matrix.
EVERY_STATEMENT = {
    ("serial", "raw", "session"),
    ("thread", "raw", "session"),
    ("serial", "cached", "session"),
    ("serial", "degraded", "session"),
}

STATEMENTS = statements(seed=7, count=500)
#: Reads every member of ``db.t``: a clean run reads each cache table.
EVERY_MEMBER = "select {} from db.t".format(
    ", ".join(f"get_json_object(payload, '$.{m}') as {m}" for m in MEMBERS)
)
#: Q7's query paths: a row-clustered metric, an integer and a category.
ROUTER_MEMBERS = ("f000", "f008", "f004")
ROUTER_STATEMENTS = statements(7, 500, "prod.t_q7", ROUTER_MEMBERS[:2], ROUTER_MEMBERS[2])
NULLS = null_statements()
ROUTER_NULLS = null_statements("prod.t_q7", ROUTER_MEMBERS[:2], ROUTER_MEMBERS[2])
ROUTER_SPEC = ShardSpec(
    table_ids=["Q7"], rows_per_table=140, days=7, row_group_size=10,
    server={"max_workers": 2},
)
#: The metrics that neither the worker count nor the backend nor tracing
#: may change (timings excluded).
COUNT_METRICS = (
    "rows_scanned",
    "rows_output",
    "bytes_read",
    "row_groups_total",
    "row_groups_skipped",
    "parse_documents",
    "parse_bytes",
    "cache_hits",
    "cache_misses",
    "shared_parse_hits",
    "duplicate_extractions_eliminated",
    "doc_cache_evictions",
)
#: Seconds a served statement may take before its cell fails.
TIMEOUT = 120
#: Cache reads fail half the time and come back corrupt half the time.
DEGRADED = "read_error=0.5,corrupt=0.5,error_prefix=/warehouse/maxson_cache,seed=11"
#: Every read takes 2 ms, so a Q7 statement outlives a 5 ms deadline.
SLOW_READS, DEADLINE_MS = "latency=0.002", 5


def build_system(fs=None, scan_workers=1, worker_backend="thread", paths=("hot", "warm")):
    """One Maxson system over the seven-split ``db.t`` (row groups of ten,
    a split of irregular documents), ``paths`` cached."""
    session = Session(
        fs=fs or BlockFileSystem(), scan_workers=scan_workers, worker_backend=worker_backend
    )
    session.catalog.create_table(
        "db", "t", Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    )
    for day in range(6):
        rows = [
            (n, dumps({"hot": n % 5, "warm": f"w{n % 3}", "cold": n * 7}))
            for n in range(day * 20, day * 20 + 20)
        ]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    # A seventh split of irregular documents (duplicate keys, escaped
    # key spellings, malformed text): every backend projects them.
    odd = irregular_documents({"hot": 4, "warm": "w1", "cold": 70})
    session.catalog.append_rows(
        "db", "t", list(enumerate(odd, start=120)), row_group_size=10
    )
    config = MaxsonConfig(predictor=PredictorConfig(model="oracle"))
    system = MaxsonSystem(session=session, config=config)
    system.cache_paths_directly(
        [PathKey("db", "t", "payload", f"$.{name}") for name in paths],
        budget_bytes=1 << 40,
    )
    return system


def comparable(sql: str, rows: list[dict]) -> list[str]:
    """The rows as reprs (types and the sign of zero count): in order
    under ORDER BY, sorted otherwise."""
    rows = list(map(repr, rows))
    return rows if " order by " in sql else sorted(rows)


def one_per_plan_shape(session, sqls, modifiers=None) -> list[str]:
    """The first statement of each distinct plan shape: the operators
    ``Session.explain`` lists and their nesting, arguments dropped."""
    by_shape: dict[tuple, str] = {}
    for sql in sqls:
        lines = session.explain(sql, modifiers).splitlines()
        shape = tuple((len(line) - len(line.lstrip()), line.split()[0]) for line in lines)
        by_shape.setdefault(shape, sql)
    return list(by_shape.values())


def counts(result) -> dict:
    """A result's count-valued metrics and whether the result cache served it."""
    metrics = result.metrics
    served = {"result_cache_hits": metrics.extra.get("result_cache_hits", 0)}
    return {name: getattr(metrics, name) for name in COUNT_METRICS} | served


def near_miss(sql: str) -> str:
    """``sql`` with every integer literal one larger: the same template
    under other parameters."""
    return re.sub(r"\b\d+\b", lambda m: str(int(m[0]) + 1), sql)


class CancelAfterChecks(CancelToken):
    """Cancels itself at its ``limit``-th check — a deterministic mid-query
    cancellation point (the next check raises). The default passes the
    entry check and stops the query in flight."""

    def __init__(self, limit: int = 1, **deadline) -> None:
        super().__init__(**deadline)
        self.limit = limit

    def check(self) -> None:
        if self.checks >= self.limit:
            self.cancel("cancelled mid-query")
        super().check()


class World:
    """One backend's system over ``db.t`` with every member cached, and the
    server that wraps it (built on first use)."""

    def __init__(self, backend: str):
        self.fs = FaultyFileSystem()
        self.system = build_system(fs=self.fs, paths=MEMBERS, **BACKENDS[backend])
        self.system.breaker.quarantine_seconds = 0.0  # re-probe every statement
        self.server = None

    @contextmanager
    def tier(self, tier: str, entry: str):
        session, modifier = self.system.session, self.system.modifier
        if entry == "server" and self.server is None:
            self.server = MaxsonServer(self.system, ServerConfig(max_workers=2))
        if tier == "raw" and entry == "server":
            session.remove_plan_modifier(modifier)
        # A fresh result cache for the tiers that admit into one.
        enabled = tier in ("result", "degraded")
        session.configure(result_cache_enabled=enabled, result_cache_entries=4096)
        if tier == "degraded":
            self.arm(parse_fault_profile(DEGRADED))
        try:
            yield
        finally:
            session.add_plan_modifier(modifier)
            session.configure(result_cache_enabled=False)
            if tier == "degraded":
                self.arm(FaultPolicy())
                self.system.sql(EVERY_MEMBER)  # a clean read closes each breaker

    def arm(self, policy: FaultPolicy) -> None:
        self.fs.policy = policy
        # Process workers hold the policy of their snapshot: respawn them.
        self.system.session.close_worker_pools()

    def run(self, sql: str, entry: str, tier: str) -> tuple:
        if entry == "server":
            result = self.server.submit(sql).result(timeout=TIMEOUT)
        else:
            result = (self.system.baseline_sql if tier == "raw" else self.system.sql)(sql)
        return result.rows, counts(result)

    def cancel(self, sql: str, entry: str) -> None:
        if entry == "server":
            with mock.patch.object(service, "CancelToken", CancelAfterChecks):
                self.server.submit(sql).result(timeout=TIMEOUT)
        else:
            self.system.sql(sql, cancel_token=CancelAfterChecks())

    def result_cache(self) -> dict:
        return self.system.session.result_cache_stats()

    def counters(self, entry: str) -> dict:
        counters = {
            "shm": self.system.session.live_shm_bytes(),
            "fallback_splits": self.system.resilience.get("fallback_splits"),
        }
        if entry == "server":
            status = self.server.status()
            counters.update(
                leases=status.active_leases,
                admitted=status.active_queries,
                queued=status.queue_depth,
            )
        return counters

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown(wait=True)
        self.system.session.close_worker_pools()


class RouterWorld:
    """A single-shard router for one backend and profile: ``raw`` (no cache
    generation), ``cached`` (one midnight cycle over Q7's paths),
    ``result`` (cached, with the result cache), ``cancelled`` (cached, every
    read slow, no deadline shed at admission) or ``degraded`` (result,
    and its cache reads faulted: a degraded answer must never be admitted)."""

    def __init__(self, backend: str, profile: str):
        server = {**ROUTER_SPEC.server, **BACKENDS[backend]}
        server["result_cache"] = profile in ("result", "degraded")
        fault_profile = {"degraded": DEGRADED, "cancelled": SLOW_READS}.get(profile, "")
        if profile == "cancelled":
            server["deadline_shed_factor"] = 0.0
        spec = replace(ROUTER_SPEC, fault_profile=fault_profile, server=server)
        self.router = ClusterRouter(1, spec=spec)
        if profile != "raw":
            paths = [("prod", "t_q7", "payload", f"$.{m}") for m in ROUTER_MEMBERS]
            for day in range(3):
                self.router.ingest(day, paths)
            self.router.run_midnight(day=3)

    def tier(self, tier: str, entry: str):
        return nullcontext()  # the profile is the router's

    def run(self, sql: str, entry: str, tier: str) -> tuple:
        reply = self.router.submit(sql).result(timeout=TIMEOUT)
        return reply["rows"], reply["metrics"]

    def cancel(self, sql: str, entry: str) -> None:
        # A deadline is the router's only cancel: it passes mid-query.
        self.router.submit(sql, deadline_ms=DEADLINE_MS).result(timeout=TIMEOUT)

    def result_cache(self) -> dict:
        return self.router.shard_status()[0]["result_cache"]

    def counters(self, entry: str) -> dict:
        status = self.router.shard_status()[0]
        shm = re.search(r'maxson_shm_live_bytes\{shard="0"\} (\S+)', self.router.metrics_text())
        return {
            "shm": float(shm[1]),
            "fallback_splits": status["fallback_splits"],
            "leases": status["active_leases"],
            "admitted": status["active_queries"],
            "queued": status["queue_depth"],
        }

    def close(self) -> None:
        self.router.shutdown()


class Matrix:
    """The session's worlds, reference rows and passed cells. One router
    is up at a time (cells run router by router)."""

    def __init__(self, every_statement: bool):
        self.every_statement = every_statement
        self._worlds: dict[str, World] = {}
        self._router: tuple | None = None
        self._sessions: dict[bool, Session] = {}  # keyed by "is the router's"
        self._expected: dict[str, list[str]] = {}
        self._shapes: dict[bool, list[str]] = {}
        self._serial: dict[tuple, dict] = {}
        self._passed: set[tuple] = set()

    def world(self, backend: str) -> World:
        if backend not in self._worlds:
            self._worlds[backend] = World(backend)
        return self._worlds[backend]

    def router(self, backend: str, tier: str) -> RouterWorld:
        key = (backend, tier)
        if self._router is None or self._router[0] != key:
            if self._router is not None:
                self._router[1].close()
                self._router = None
            self._router = (key, RouterWorld(*key))
        return self._router[1]

    def session(self, entry: str) -> Session:
        """A session over the entry's table with nothing cached: the
        reference's, the plan shapes' and the canonical statements'. For
        the router, the in-process twin of its shard."""
        on_router = entry == "router"
        if on_router not in self._sessions:
            if on_router:
                system, server = build_shard_server(ROUTER_SPEC)
                server.shutdown(wait=False)
                self._sessions[on_router] = system.session
            else:
                catalog = self.world("serial").system.catalog
                self._sessions[on_router] = Session(fs=catalog.fs, catalog=catalog)
        return self._sessions[on_router]

    def statements(self, cell: tuple) -> list[str]:
        on_router = cell[2] == "router"
        sqls, nulls = (ROUTER_STATEMENTS, ROUTER_NULLS) if on_router else (STATEMENTS, NULLS)
        if not (self.every_statement or cell in EVERY_STATEMENT):
            if on_router not in self._shapes:
                self._shapes[on_router] = one_per_plan_shape(self.session(cell[2]), sqls)
            sqls = self._shapes[on_router]
        return sqls + nulls

    def expected(self, sql: str, entry: str) -> list[str]:
        if sql not in self._expected:
            rows = reference_rows(self.session(entry), sql)
            self._expected[sql] = comparable(sql, rows)
        return self._expected[sql]

    def same_as_serial(self, backend: str, tier: str, sql: str, got: dict) -> bool:
        """Whether ``got`` are the counts the serial session returns for
        ``sql`` on ``tier`` (the serial cell records them)."""
        key = (tier, sql)
        if backend == "serial":
            self._serial[key] = got
        elif key not in self._serial:
            self._serial[key] = self.world("serial").run(sql, "session", tier)[1]
        return self._serial[key] == got

    def check(self, backend: str, tier: str, entry: str) -> None:
        """Run one cell (once per session) and assert it."""
        cell = (backend, tier, entry)
        if cell in self._passed:
            return
        world = self.router(backend, tier) if entry == "router" else self.world(backend)
        parity = None
        if entry == "session" and tier in ("raw", "cached"):
            parity = lambda sql, got: self.same_as_serial(backend, tier, sql, got)
        with world.tier(tier, entry):
            _assert_cell(
                world, cell, self.statements(cell), lambda sql: self.expected(sql, entry),
                self.session(entry).canonical_statement, parity,
            )
        self._passed.add(cell)

    def close(self) -> None:
        for world in self._worlds.values():
            world.close()
        if self._router is not None:
            self._router[1].close()


def _assert_cell(world, cell, sqls, expected, canonical, parity) -> None:
    _, tier, entry = cell
    wrong, drifted = [], []

    def run(sql):
        rows, counts = world.run(sql, entry, tier)
        if comparable(sql, rows) != expected(sql):
            wrong.append(sql)
        if parity is not None and not parity(sql, counts):
            drifted.append(sql)
        return counts

    before = world.counters(entry)
    if tier == "cancelled":
        run(sqls[0])  # warm: the pool and its cancel slab are up
        idle, in_flight = world.counters(entry), 0
        for sql in sqls:
            with pytest.raises((QueryCancelledError, QueryShedError)) as raised:
                world.cancel(sql, entry)
            in_flight += isinstance(raised.value, QueryCancelledError)  # not shed
            run(sql)
        left = world.counters(entry)
        assert in_flight and left == idle
        assert left.get("leases", 0) == left.get("admitted", 0) == 0
    elif tier == "result":
        keyed = {sql for sql in sqls if canonical(sql) is not None}
        assert keyed  # a statement that does not canonicalise is never cached
        for sql in sqls:
            stats = world.result_cache()
            served = run(sql)["result_cache_hits"]
            cached = served or world.result_cache()["admissions"] > stats["admissions"]
            if sql in keyed and stats["entries"] < stats["capacity"]:
                assert cached, sql  # admitted while there is room
            assert run(sql)["result_cache_hits"] == cached, sql  # the second run is a hit
            run(near_miss(sql))  # its template, other parameters: not that hit
    elif tier == "degraded":
        fell = before["fallback_splits"]
        for sql in sqls:
            admitted = world.result_cache()["admissions"]
            run(sql)
            if world.counters(entry)["fallback_splits"] > fell:  # it degraded:
                assert world.result_cache()["admissions"] == admitted, sql  # not admitted
                fell = world.counters(entry)["fallback_splits"]
        assert fell > before["fallback_splits"]
    else:
        hits = sum(run(sql)["cache_hits"] for sql in sqls)
        fallback = world.counters(entry)["fallback_splits"] - before["fallback_splits"]
        if tier == "raw":
            assert hits == 0
        else:
            assert hits > 0 and fallback == 0
    assert not wrong, f"{len(wrong)} of {len(sqls)} diverge in {cell}, first: {wrong[0]}"
    assert not drifted, f"{len(drifted)} count other metrics than serial, first: {drifted[0]}"


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_cell(matrix, cell):
    matrix.check(*cell)
