"""Duplicate-path microbenchmark: parse-once sharing vs re-parsing.

The paper's §II pathology in its purest form: one query extracts five
*distinct* JSONPaths from the same string column, with no cache built.
Measured directly, that is one ``get_json_object(text, path)`` call per
extraction — five whole-document parses per row; the engine shares one
parsed document per row across all five extractions. This bench pins
the engine's acceptance criteria — exactly one parse per row and at
least a 2x end-to-end speedup over the per-call loop.
"""

from __future__ import annotations

from time import perf_counter

from repro.engine import Session
from repro.engine.expressions import EvalContext
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema

from .conftest import once, save_result

N_ROWS = 2000
PATHS = ("$.item_id", "$.item_name", "$.sale_count", "$.turnover", "$.price")
SQL = (
    "select "
    + ", ".join(
        f"get_json_object(logs, '{path}') as c{i}"
        for i, path in enumerate(PATHS)
    )
    + " from db.events"
)
REPEATS = 3


def build_session() -> Session:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("logs", DataType.STRING))
    session.catalog.create_table("db", "events", schema)
    rows = [
        (
            i,
            dumps(
                {
                    "item_id": i % 97,
                    "item_name": f"item-{i}",
                    "sale_count": (i * 3) % 100,
                    "turnover": (i * 7) % 10_000,
                    "price": (i % 50) + 1,
                    "detail": {"k": i, "pad": "x" * 80},
                }
            ),
        )
        for i in range(N_ROWS)
    ]
    session.catalog.append_rows("db", "events", rows, row_group_size=200)
    return session


def engine_run(session: Session) -> tuple[float, int, list]:
    """Wall seconds, parse count and rows of the statement."""
    result = session.sql(SQL)
    return result.metrics.total_seconds, result.metrics.parse_documents, result.rows


def per_call_run(texts: list[str]) -> tuple[float, int, list]:
    """The same, parsing the document again for every extraction."""
    context = EvalContext()
    started = perf_counter()
    rows = [
        {f"c{i}": context.get_json_object(text, p) for i, p in enumerate(PATHS)}
        for text in texts
    ]
    return perf_counter() - started, context.parser.stats.documents, rows


def best_of(run) -> tuple[float, int, list]:
    return min((run() for _ in range(REPEATS)), key=lambda outcome: outcome[0])


def test_duplicate_path_microbench(benchmark):
    session = build_session()
    texts = session.sql("select logs from db.events").column("logs")

    def run():
        call_seconds, call_parses, call_rows = best_of(lambda: per_call_run(texts))
        engine_seconds, engine_parses, rows = best_of(lambda: engine_run(session))
        assert rows == call_rows
        return {
            "rows": N_ROWS,
            "paths": len(PATHS),
            "per_call_seconds": call_seconds,
            "per_call_parse_documents": call_parses,
            "engine_seconds": engine_seconds,
            "engine_parse_documents": engine_parses,
            "engine_qps": 1.0 / engine_seconds,
            "speedup_vs_per_call": call_seconds / engine_seconds,
        }

    payload = once(benchmark, run)
    payload["paper_claim"] = (
        "duplicate JSONPath extraction re-parses the same document once "
        "per call; sharing one parse per row removes the duplication "
        "even before any cache is built"
    )
    save_result("duplicate_paths", payload)

    # Acceptance: exactly one parse per row in the engine, the full five
    # per row call by call, and >= 2x end-to-end speedup.
    assert payload["engine_parse_documents"] == N_ROWS
    assert payload["per_call_parse_documents"] == N_ROWS * len(PATHS)
    assert payload["speedup_vs_per_call"] >= 2.0
