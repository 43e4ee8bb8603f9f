"""Result-cache replay: recurring statements skip re-execution.

The paper's motivating observation is that 82% of raw-data queries
recur daily or weekly. The plan cache (PR 5) removes re-*planning* from
those recurrences; the semantic result cache removes re-*execution*.
This bench replays a recurring trace (each representative query 5x,
with recased/re-aliased variants standing in for ad-hoc resubmission)
against a plan-cache-only session and a result-cache session over the
same data, and gates on the two CI-facing claims: hit rate >= 0.5 on
the recurring trace, and >= 2x speedup on repeated statements — with
bit-identical rows throughout.
"""

import time

from repro.engine import Session
from repro.storage import BlockFileSystem
from repro.workload import build_queries, load_tables
from repro.workload.tables import TABLE_SPECS

from .conftest import once, save_result

#: Each statement recurs this many times in the trace.
RECURRENCES = 5


def _build_session(**kwargs) -> tuple[Session, list[str]]:
    session = Session(fs=BlockFileSystem(), **kwargs)
    specs = [s for s in TABLE_SPECS if s.query_id in ("Q1", "Q2", "Q9")]
    factories = load_tables(
        session.catalog, rows_per_table=240, days=3, specs=specs
    )
    queries = build_queries(factories)
    return session, [q.sql for q in queries.values()]


def _replay(session: Session, statements: list[str]):
    """Run the trace; returns (first-pass rows, repeat-pass rows,
    first-pass seconds, repeat-pass seconds)."""
    first_rows, first_s = [], 0.0
    for sql in statements:
        t0 = time.perf_counter()
        first_rows.append(session.sql(sql).rows)
        first_s += time.perf_counter() - t0
    repeat_rows, repeat_s = [], 0.0
    for _ in range(RECURRENCES - 1):
        for sql in statements:
            t0 = time.perf_counter()
            repeat_rows.append(session.sql(sql).rows)
            repeat_s += time.perf_counter() - t0
    return first_rows, repeat_rows, first_s, repeat_s


def test_result_cache_replay(benchmark):
    """Replay gate: hit rate >= 0.5 and >= 2x repeat-statement speedup
    over plan-cache-only, with bit-identical rows."""
    baseline, statements = _build_session()
    cached, _ = _build_session(result_cache_enabled=True)

    def run():
        base = _replay(baseline, statements)
        with_cache = _replay(cached, statements)
        return base, with_cache

    (base, with_cache) = once(benchmark, run)
    base_first, base_repeat, _, base_repeat_s = base
    hit_first, hit_repeat, _, hit_repeat_s = with_cache
    # bit-identical rows, first pass and every recurrence
    assert hit_first == base_first
    assert hit_repeat == base_repeat
    stats = cached.result_cache_stats()
    lookups = stats["hits"] + stats["misses"]
    hit_rate = stats["hits"] / max(lookups, 1)
    speedup = base_repeat_s / max(hit_repeat_s, 1e-9)
    save_result(
        "result_cache_replay",
        {
            "statements": len(statements),
            "recurrences": RECURRENCES,
            "queries": len(statements) * RECURRENCES,
            "hits": stats["hits"],
            "misses": stats["misses"],
            "admissions": stats["admissions"],
            "hit_rate": hit_rate,
            "baseline_repeat_seconds": base_repeat_s,
            "cached_repeat_seconds": hit_repeat_s,
            "repeat_speedup": speedup,
            "result_bytes": stats["bytes"],
        },
    )
    assert hit_rate >= 0.5
    assert speedup >= 2.0
