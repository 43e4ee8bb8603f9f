"""Ablation: Sparser-style raw prefiltering on a selective query.

Not a figure in the paper's evaluation, but the paper positions Sparser
as the other major approach to parse-cost reduction (filter before you
parse). This bench measures how much a raw-byte prefilter helps a highly
selective equality query, and how the gain compares to Maxson's caching
of the same path.
"""

import pytest

from repro.engine import Session
from repro.engine.rawfilter import SparserPlanModifier
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema

from .conftest import once, save_result

ROWS = 4000
SQL = (
    "select id from sp.events "
    "where get_json_object(payload, '$.kind') = 'k117'"
)


@pytest.fixture(scope="module")
def sparser_session() -> Session:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("sp", "events", schema)
    rows = []
    for i in range(ROWS):
        doc = {
            "kind": f"k{i % 200}",
            "body": "x" * 300,
            "meta": {"v": i, "flag": i % 2 == 0},
        }
        rows.append((i, dumps(doc)))
    session.catalog.append_rows("sp", "events", rows, row_group_size=500)
    return session


def test_ablation_sparser_prefilter(benchmark, sparser_session):
    plain = sparser_session.sql(SQL)
    sparser = (SparserPlanModifier(),)
    filtered = once(
        benchmark, lambda: sparser_session.sql(SQL, modifiers=sparser)
    )

    assert filtered.rows == plain.rows
    payload = {
        "selectivity": len(plain.rows) / ROWS,
        "plain": {
            "seconds": plain.metrics.total_seconds,
            "parse_documents": plain.metrics.parse_documents,
        },
        "sparser": {
            "seconds": filtered.metrics.total_seconds,
            "parse_documents": filtered.metrics.parse_documents,
            "rows_dropped_preparse": filtered.metrics.extra.get(
                "sparser_rows_dropped", 0
            ),
        },
        "claim": "raw prefiltering avoids parsing non-matching records on "
        "highly selective predicates",
    }
    save_result("ablation_sparser", payload)
    assert filtered.metrics.parse_documents < plain.metrics.parse_documents / 5
    assert filtered.metrics.total_seconds < plain.metrics.total_seconds
