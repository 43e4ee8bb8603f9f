"""Compile once per plan: the expression program rides with the cached
plan, so a hit lowers nothing on any backend, a recurring literal variant
binds and compiles once, and one program serves concurrent splits
because results memoise on each split's own batches."""

import sys

import pytest

from repro.engine import Session, plancache
from repro.engine.batch import ExpressionProgram
from repro.engine.expressions import Literal, walk
from repro.engine.procpool import ProcessMorselPool, _WorkerEnv, build_snapshot
from repro.jsonlib import dumps
from repro.obs.trace import Tracer
from repro.storage import BlockFileSystem, DataType, Schema

from reference_engine import reference_rows

SQL = (
    "select get_json_object(sale_logs, '$.item_name') as item, count(*) as n, "
    "max(get_json_object(sale_logs, '$.price')) as top from mydb.T "
    "where get_json_object(sale_logs, '$.turnover') > {} "
    "group by get_json_object(sale_logs, '$.item_name') order by item"
)


def spy(monkeypatch, owner, name) -> list:
    """The arguments of every call of ``owner.name`` from here on."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("backend, workers", [("thread", 1), ("thread", 2), ("process", 2)])
def test_plan_cache_hit_lowers_nothing(sales_session, monkeypatch, backend, workers):
    lowerings = spy(monkeypatch, ExpressionProgram, "_lower")
    shipped = spy(monkeypatch, ProcessMorselPool, "_run_unit")
    sales_session.configure(worker_backend=backend, scan_workers=workers)
    sql = SQL.format(300)
    try:
        first = sales_session.sql(sql)
        assert lowerings  # the miss compiled its plan, once
        del lowerings[:]
        again = sales_session.sql(sql)
    finally:
        sales_session.close_worker_pools()
    assert again.metrics.extra["plan_cache_hits"] == 1 and lowerings == []
    assert again.rows == first.rows == reference_rows(sales_session, sql)
    if backend == "process":
        # Every split of both executions ships the same bytes, so after
        # its first split a worker's memoised plan and program serve all.
        assert len(shipped) == 10 and len(blobs := {c[1] for c in shipped}) == 1
        worker = _WorkerEnv(build_snapshot(sales_session))
        program = worker.plan_for(*blobs)[2]
        assert lowerings
        del lowerings[:]
        assert worker.plan_for(*blobs)[2] is program and lowerings == []


def test_traced_execution_leaves_the_cached_program_alone(sales_session, monkeypatch):
    sql = SQL.format(300)
    expected = sales_session.sql(sql).rows
    program = sales_session._prepare(sql)[0].program
    shape = (len(program._memo), len(program._operators))
    read = spy(monkeypatch, ExpressionProgram, "of")
    assert sales_session.sql(sql, tracer=Tracer()).rows == expected
    assert read and all(used is not program for used, _ in read)
    assert (len(program._memo), len(program._operators)) == shape
    assert sales_session._prepare(sql)[0].program is program


def test_recurring_variant_binds_and_compiles_once(sales_session, monkeypatch):
    binds = spy(monkeypatch, plancache, "bind_plan")
    lowerings = spy(monkeypatch, ExpressionProgram, "_lower")
    sales_session.sql(SQL.format(300))
    first = sales_session.sql(SQL.format(500))
    assert len(binds) == 1 and lowerings
    del binds[:], lowerings[:]
    again = sales_session.sql(SQL.format(500))
    assert binds == lowerings == [] and again.metrics.extra["plan_cache_hits"] == 1
    assert again.rows == first.rows == reference_rows(sales_session, SQL.format(500))
    stats = sales_session.plan_cache_stats()
    assert (stats["hits"], stats["misses"], stats["entries"]) == (2, 1, 2)


@pytest.mark.parametrize("backend, workers", [("thread", 1), ("thread", 2), ("process", 2)])
def test_variant_compiles_from_its_template(sales_session, monkeypatch, backend, workers):
    """A ``LIMIT`` variant lowers nothing on its first bind; a threshold
    variant lowers only what holds its literal."""
    sql = SQL + " limit {}"
    sales_session.configure(worker_backend=backend, scan_workers=workers)
    lowerings = spy(monkeypatch, ExpressionProgram, "_lower")
    try:
        sales_session.sql(sql.format(300, 5))
        del lowerings[:]
        limited = sales_session.sql(sql.format(300, 3))
        assert lowerings == []
        threshold = sales_session.sql(sql.format(500, 5))
    finally:
        sales_session.close_worker_pools()
    assert lowerings and all(Literal(500) in walk(expr) for _, expr in lowerings)
    assert limited.rows == reference_rows(sales_session, sql.format(300, 3))
    assert threshold.rows == reference_rows(sales_session, sql.format(500, 5))
    stats = sales_session.plan_cache_stats()
    assert (stats["hits"], stats["misses"]) == (2, 1)


def test_equal_literals_of_other_types_compile_apart(sales_session):
    """``2`` and ``2.0`` are one value but two literals, in one plan and
    between a template's program and its variant's."""
    price = "get_json_object(sale_logs, '$.price')"
    sql = f"select {{}} as a, {{}} as b, {price} * {{}} as c, {price} * {{}} as d from mydb.T"
    for literals in ((2, 2.0, 2.0, 3), (3, 3.0, 3.0, 2)):
        statement = sql.format(*literals)
        rows = sales_session.sql(statement).rows
        assert repr(rows) == repr(reference_rows(sales_session, statement))


def test_one_shot_variants_stay_inside_capacity(sales_session):
    sales_session.configure(plan_cache_entries=4)
    sql = "select mall_id from mydb.T limit {}"
    template = sales_session._resolve(sql.format(1)).plan_key()[0]
    for n in range(1, 201):
        assert len(sales_session.sql(sql.format(n)).rows) == n
        cache = sales_session._plan_cache
        assert len(cache) <= 4 and template in cache._entries
    stats = sales_session.plan_cache_stats()
    assert (stats["hits"], stats["misses"]) == (199, 1)


def test_concurrent_splits_share_one_program():
    """Thread x4 splits run one program at once under a short switch
    interval: rows and CSE/parse counters equal the serial run's."""
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("p", DataType.STRING))
    session.catalog.create_table("db", "many", schema)
    for split in range(16):
        rows = [(i, dumps({"k": i % 7, "v": i})) for i in range(split * 64, split * 64 + 64)]
        session.catalog.append_rows("db", "many", rows)
    sql = (
        "select id, get_json_object(p, '$.k') as k, get_json_object(p, '$.v') as v "
        "from db.many where get_json_object(p, '$.k') > 4"
    )

    def observed(r):
        m = r.metrics
        return r.rows, m.duplicate_extractions_eliminated, m.parse_documents, m.shared_parse_hits

    serial = observed(session.sql(sql))
    session.configure(scan_workers=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            assert observed(session.sql(sql)) == serial
    finally:
        sys.setswitchinterval(interval)
        session.close_worker_pools()
