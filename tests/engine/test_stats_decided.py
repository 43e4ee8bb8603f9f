"""Row-group statistics decide conjuncts (NO: skip the group; YES over a
split: neither evaluate nor decode) and the rows stay the reference's."""

import pytest

from repro.core import MaxsonSystem
from repro.engine import Session
from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.obs.systables import TelemetryStore
from repro.storage import DataType, Schema
from repro.workload import PathKey

from reference_engine import reference_rows

# Split d0's row groups hold ids 0-9, 10-19, 20-29; split d1 the same.
SQLS = [
    # id: NO / YES / MAYBE in both splits
    "select id, get_json_object(payload, '$.m') as m from db.s where id between 10 and 25",
    # id and day: proven over d0's read groups and never decoded; d1 skipped
    "select get_json_object(payload, '$.m') as m from db.s where id >= 10 and day = 'd0'",
    # the cached lane: NO / YES / YES, and only the filter reads it
    "select count(*) as n from db.s where get_json_object(payload, '$.m') >= 10",
]


def build(workers=1, backend="thread", fs=None):
    session = Session(fs=fs or FaultyFileSystem(), scan_workers=workers, worker_backend=backend)
    schema = Schema.of(("id", DataType.INT64), ("day", DataType.STRING), ("payload", DataType.STRING))
    session.catalog.create_table("db", "s", schema)
    for day in ("d0", "d1"):
        rows = [(i, day, dumps({"m": i})) for i in range(30)]
        session.catalog.append_rows("db", "s", rows, row_group_size=10)
    system = MaxsonSystem(session=session)
    system.cache_paths_directly([PathKey("db", "s", "payload", "$.m")], budget_bytes=1 << 40)
    return system


@pytest.mark.parametrize(
    "workers, backend, flaky", [(1, "thread", 0), (2, "thread", 0), (2, "process", 0), (1, "thread", 0.5)]
)
def test_decided_splits_return_the_reference(workers, backend, flaky):
    fs = FaultyFileSystem()
    system = build(workers, backend, fs)
    fs.policy = FaultPolicy(read_error_rate=flaky, seed=3, error_path_prefix=CACHE_PATH_PREFIX)
    try:
        for sql in SQLS:
            expected = sorted(map(repr, reference_rows(system.session, sql)))
            for run in (system.baseline_sql, system.sql):
                assert sorted(map(repr, run(sql).rows)) == expected, sql
        assert (system.resilience.snapshot()["fallback_splits"] > 0) == bool(flaky)
        if not flaky:
            proven = system.sql(SQLS[1]).metrics
            assert proven.row_groups_proven == 2 and proven.bytes_read < 200
    finally:
        system.session.close_worker_pools()


def test_count_star_decodes_no_lane():
    system = build()
    TelemetryStore(system.session.catalog).record("queries", {"query_id": "q-1"})
    for sql in ("select count(*) as n from db.s", "select count(*) as n from system.queries"):
        result = system.sql(sql)
        assert result.rows == reference_rows(system.session, sql), sql
    assert system.sql("select count(*) as n from db.s").metrics.bytes_read == 0
