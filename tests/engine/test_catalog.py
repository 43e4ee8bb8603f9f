"""Unit tests for the catalog."""

import pytest

from repro.engine import CatalogError, Session
from repro.engine.catalog import Catalog
from repro.storage import BlockFileSystem, DataType, Schema


@pytest.fixture
def catalog() -> Catalog:
    return Catalog(BlockFileSystem())


SCHEMA = Schema.of(("id", DataType.INT64), ("name", DataType.STRING))


class TestDdl:
    def test_create_and_get(self, catalog):
        info = catalog.create_table("db", "t", SCHEMA)
        assert info.qualified_name == "db.t"
        assert catalog.get_table("db", "t") is info
        assert info.location == "/warehouse/db/t"

    def test_create_duplicate(self, catalog):
        catalog.create_table("db", "t", SCHEMA)
        with pytest.raises(CatalogError):
            catalog.create_table("db", "t", SCHEMA)

    def test_get_missing(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get_table("db", "ghost")

    def test_exists(self, catalog):
        assert not catalog.table_exists("db", "t")
        catalog.create_table("db", "t", SCHEMA)
        assert catalog.table_exists("db", "t")

    def test_list_tables(self, catalog):
        catalog.create_table("b", "t2", SCHEMA)
        catalog.create_table("a", "t1", SCHEMA)
        names = [t.qualified_name for t in catalog.list_tables()]
        assert names == ["a.t1", "b.t2"]
        assert [t.name for t in catalog.list_tables("a")] == ["t1"]

    def test_drop_table_removes_data(self, catalog):
        catalog.create_table("db", "t", SCHEMA)
        catalog.append_rows("db", "t", [(1, "a")])
        catalog.drop_table("db", "t")
        assert not catalog.table_exists("db", "t")
        assert not catalog.fs.exists("/warehouse/db/t")

    def test_drop_missing(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop_table("db", "ghost")

    def test_properties_stored(self, catalog):
        info = catalog.create_table("db", "t", SCHEMA, {"format": "orc"})
        assert info.properties["format"] == "orc"


class TestData:
    def test_append_creates_sequential_files(self, catalog):
        catalog.create_table("db", "t", SCHEMA)
        first = catalog.append_rows("db", "t", [(1, "a")])
        second = catalog.append_rows("db", "t", [(2, "b")])
        assert first.endswith("part-00000.orc")
        assert second.endswith("part-00001.orc")
        assert catalog.table_files("db", "t") == [first, second]

    def test_append_after_a_deleted_middle_file(self, catalog):
        from repro.storage.readers import OrcReader

        catalog.create_table("db", "t", SCHEMA)
        paths = [catalog.append_rows("db", "t", [(i, f"r{i}")]) for i in range(3)]
        catalog.fs.delete(paths[1])
        fourth = catalog.append_rows("db", "t", [(3, "r3")])
        assert fourth.endswith("part-00003.orc")
        assert catalog.table_files("db", "t") == [paths[0], paths[2], fourth]
        rows = [
            row
            for path in catalog.table_files("db", "t")
            for row in OrcReader(catalog.fs, path).read_rows()
        ]
        assert rows == [(0, "r0"), (2, "r2"), (3, "r3")]

    def test_empty_table_has_no_files(self, catalog):
        catalog.create_table("db", "t", SCHEMA)
        assert catalog.table_files("db", "t") == []
        assert catalog.modification_time("db", "t") == 0.0
        assert catalog.table_bytes("db", "t") == 0

    def test_modification_time_advances(self):
        ticks = iter(float(i) for i in range(100))
        catalog = Catalog(BlockFileSystem(clock=lambda: next(ticks)))
        catalog.create_table("db", "t", SCHEMA)
        catalog.append_rows("db", "t", [(1, "a")])
        t1 = catalog.modification_time("db", "t")
        catalog.append_rows("db", "t", [(2, "b")])
        assert catalog.modification_time("db", "t") > t1

    def test_table_bytes(self, catalog):
        catalog.create_table("db", "t", SCHEMA)
        catalog.append_rows("db", "t", [(i, "x" * 10) for i in range(20)])
        assert catalog.table_bytes("db", "t") > 0

    def test_row_group_size_forwarded(self, catalog):
        from repro.storage import OrcFileReader

        catalog.create_table("db", "t", SCHEMA)
        path = catalog.append_rows(
            "db", "t", [(i, "x") for i in range(10)], row_group_size=3
        )
        reader = OrcFileReader(catalog.fs.read(path))
        assert [rg.row_count for rg in reader.row_group_layout()] == [3, 3, 3, 1]

    def test_append_validates_schema(self, catalog):
        catalog.create_table("db", "t", SCHEMA)
        with pytest.raises(Exception):
            catalog.append_rows("db", "t", [("not-an-int", "a")])
