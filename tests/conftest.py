"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.engine import Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema


def pytest_addoption(parser):
    parser.addoption(
        "--every-statement",
        action="store_true",
        help="test_traced_equals_untraced: run all 500 generated statements "
        "on every leg, not one per plan shape",
    )


@pytest.fixture
def fs() -> BlockFileSystem:
    return BlockFileSystem()


@pytest.fixture
def session() -> Session:
    return Session(fs=BlockFileSystem())


@pytest.fixture
def sales_session(session: Session) -> Session:
    """A session with the paper's Fig 1 sale-logs table loaded.

    Table ``mydb.T``: (mall_id, date, sale_logs-json), 5 daily partitions
    of 40 rows each, deterministic values.
    """
    schema = Schema.of(
        ("mall_id", DataType.STRING),
        ("date", DataType.STRING),
        ("sale_logs", DataType.STRING),
    )
    session.catalog.create_table("mydb", "T", schema)
    for day in range(1, 6):
        rows = []
        for i in range(40):
            index = (day - 1) * 40 + i
            log = {
                "item_id": index % 17,
                "item_name": f"item{index % 17}",
                "sale_count": (index * 3) % 100,
                "turnover": (index * 7) % 1000,
                "price": (index % 50) + 1,
            }
            rows.append(("0001", f"2019010{day}", dumps(log)))
        session.catalog.append_rows("mydb", "T", rows, row_group_size=10)
    return session
