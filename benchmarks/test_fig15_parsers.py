"""Fig 15: per-query time — Spark+Jackson, Spark+Mison, Maxson, Maxson+Mison.

The paper's final comparison: does caching still matter given a fast
structural-index parser? Findings reproduced here:

* Mison speeds up projection substantially over Jackson;
* for the queries whose JSONPaths Maxson cached, caching beats even the
  fast parser (cache reads do no per-record JSON work at all);
* for queries Maxson left uncached, Mison complements Maxson —
  Maxson+Mison is the best overall configuration.
"""

import pytest

from repro.jsonlib import MisonParser

from .conftest import FullParseProjection, once, save_result

#: The '300GB' budget point of the paper's Fig 15 setup.
BUDGET_FRACTION = 0.75

_rows: dict[str, dict[str, float]] = {}
CONFIGS = ("spark_jackson", "spark_mison", "maxson", "maxson_mison")


def _run_all(env, use_maxson: bool, use_mison: bool) -> dict[str, float]:
    session = env.system.session
    # Without Mison the raw path is Jackson *by definition* of the figure:
    # full deserialisation, not the engine's projecting default.
    session.projection_parser_factory = (
        MisonParser if use_mison else FullParseProjection
    )
    try:
        results = env.run_all(use_maxson=use_maxson)
        return {qid: r.metrics.total_seconds for qid, r in results.items()}
    finally:
        session.projection_parser_factory = None


@pytest.mark.parametrize("config", CONFIGS)
def test_fig15_config(benchmark, env, config):
    use_maxson = config.startswith("maxson")
    use_mison = config.endswith("mison")
    if use_maxson:
        env.cache_with_budget(
            int(env.total_candidate_bytes() * BUDGET_FRACTION), "score"
        )
    else:
        env.drop_cache()

    _rows[config] = once(benchmark, lambda: _run_all(env, use_maxson, use_mison))
    save_result(f"fig15_{config}", _rows[config])

    if len(_rows) == len(CONFIGS):
        totals = {name: sum(row.values()) for name, row in _rows.items()}
        save_result(
            "fig15_summary",
            {
                "per_query_seconds": _rows,
                "totals": totals,
                "paper_claims": [
                    "Mison reduces execution time vs Jackson",
                    "caching beats fast parsing for cached queries",
                    "Maxson+Mison combines both benefits",
                ],
            },
        )
        assert totals["spark_mison"] < totals["spark_jackson"]
        assert totals["maxson"] < totals["spark_jackson"]
        assert totals["maxson_mison"] <= totals["spark_mison"]
        # Per-query: cached queries' Maxson time beats Spark+Mison for the
        # majority of the ten queries (the paper lists Q2,Q3,Q4,Q6,Q7,Q9,Q10).
        wins = sum(
            1
            for qid in _rows["maxson"]
            if _rows["maxson"][qid] < _rows["spark_mison"][qid]
        )
        assert wins >= 5
