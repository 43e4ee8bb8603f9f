"""Fig 3: parsing vs query-processing cost on NoBench.

The paper's §II-C motivation: three common query shapes over NoBench JSON
— Q1 a simple SELECT of two attributes, Q2 a COUNT with GROUP BY, Q3 a
self-equijoin — all spend >= ~80% of their time parsing JSON.
"""

import pytest

from repro.engine import Session
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import NoBenchGenerator

from .conftest import FullParseProjection, once, save_result

ROWS = 3000


@pytest.fixture(scope="module")
def nobench_session() -> Session:
    # The figure is about vanilla Spark: Jackson deserialises the whole
    # document, which the engine's projecting raw path no longer does.
    session = Session(
        fs=BlockFileSystem(), projection_parser_factory=FullParseProjection
    )
    schema = Schema.of(("id", DataType.INT64), ("doc", DataType.STRING))
    session.catalog.create_table("nb", "docs", schema)
    generator = NoBenchGenerator()
    session.catalog.append_rows(
        "nb", "docs", list(generator.json_rows(ROWS)), row_group_size=500
    )
    return session


NOBENCH_QUERIES = {
    "Q1_select": (
        "select get_json_object(doc, '$.str1') as s, "
        "get_json_object(doc, '$.num') as n from nb.docs"
    ),
    "Q2_groupby_count": (
        "select get_json_object(doc, '$.nested_obj.str') as g, count(*) as c "
        "from nb.docs group by get_json_object(doc, '$.nested_obj.str')"
    ),
    "Q3_self_join": (
        "select count(*) as c from nb.docs a join nb.docs b "
        "on get_json_object(a.doc, '$.thousandth') = "
        "get_json_object(b.doc, '$.thousandth') "
        "where a.id < 1000 and b.id >= 2000"
    ),
}


@pytest.mark.parametrize("name", list(NOBENCH_QUERIES))
def test_fig3_parse_dominates(benchmark, nobench_session, name):
    result = once(benchmark, lambda: nobench_session.sql(NOBENCH_QUERIES[name]))
    m = result.metrics
    payload = {
        "query": name,
        "total_seconds": m.total_seconds,
        "breakdown": m.breakdown(),
        "parse_fraction": m.parse_fraction,
        "paper_claim": ">= 80% of execution time spent parsing JSON",
    }
    save_result(f"fig3_{name}", payload)
    # The reproduction target: parsing dominates (paper reports >= 80%;
    # accept the same regime with headroom for the simulator's cheaper I/O).
    assert m.parse_fraction >= 0.6
