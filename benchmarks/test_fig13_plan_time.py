"""Fig 13: physical-plan generation time, SparkSQL vs Maxson.

The paper measures the overhead the MaxsonParser adds to plan generation
(on average ~0.4s on a JVM cluster) and observes it grows with the number
of JSONPaths in the query but stays negligible vs execution time. This
bench times planning (parse + plan + Maxson rewrite) per query for both
engines.
"""

import time

import pytest

from .conftest import once, save_result

_rows: dict[str, dict] = {}


def _plan_seconds(env, sql: str, with_maxson: bool, repeats: int = 20) -> float:
    session = env.system.session
    modifiers = None if with_maxson else ()  # None: the registered ones
    started = time.perf_counter()
    for _ in range(repeats):
        session._prepare(sql, modifiers=modifiers)
    return (time.perf_counter() - started) / repeats


@pytest.mark.parametrize("query_id", [f"Q{i}" for i in range(1, 11)])
def test_fig13_plan_generation(benchmark, env, query_id):
    env.cache_with_budget(env.total_candidate_bytes(), "score")
    sql = env.queries[query_id].sql

    spark_seconds = _plan_seconds(env, sql, with_maxson=False)
    maxson_seconds = once(
        benchmark, lambda: _plan_seconds(env, sql, with_maxson=True)
    )
    exec_seconds = env.system.sql(sql).metrics.total_seconds
    entry = {
        "paths_in_query": len(env.queries[query_id].paths),
        "spark_plan_seconds": spark_seconds,
        "maxson_plan_seconds": maxson_seconds,
        "overhead_seconds": maxson_seconds - spark_seconds,
        "execution_seconds": exec_seconds,
    }
    _rows[query_id] = entry
    save_result(f"fig13_{query_id}", entry)

    if len(_rows) == 10:
        save_result(
            "fig13_summary",
            {
                **_rows,
                "paper_claims": [
                    "Maxson planning slightly slower than SparkSQL",
                    "overhead grows with the query's JSONPath count",
                    "overhead negligible vs job execution time",
                ],
            },
        )
        # Overhead should be small relative to execution for the heavy
        # queries (the paper's point).
        heavy = max(_rows.values(), key=lambda r: r["execution_seconds"])
        assert heavy["overhead_seconds"] < heavy["execution_seconds"]
