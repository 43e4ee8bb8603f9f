"""Catalog: databases, tables, and their file-system backing.

Tables are directories of ORC-like files in a
:class:`~repro.storage.fs.BlockFileSystem` (one directory per table, path
``/warehouse/<db>/<table>``). The catalog tracks table schemas and exposes
the *last modification time*, which Maxson's plan rewriter compares against
cache timestamps to decide cache validity (paper Algorithm 1, lines 16-19).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..storage.fs import BlockFileSystem
from ..storage.orc import OrcWriter
from ..storage.schema import Schema
from .errors import CatalogError

__all__ = ["TableInfo", "Catalog"]


@dataclass
class TableInfo:
    """Metadata for one table."""

    database: str
    name: str
    schema: Schema
    location: str
    properties: dict[str, str] = field(default_factory=dict)

    @property
    def qualified_name(self) -> str:
        return f"{self.database}.{self.name}"


class Catalog:
    """Metadata store over a shared file system.

    The catalog is the single source of truth for schemas and locations.
    Data operations (:meth:`append_rows`) write through to the file system;
    modification times come from the files themselves so that out-of-band
    updates (e.g. the workload simulator appending a daily partition) are
    observed correctly.
    """

    def __init__(self, fs: BlockFileSystem, warehouse_root: str = "/warehouse") -> None:
        self.fs = fs
        self.warehouse_root = warehouse_root.rstrip("/")
        self._tables: dict[tuple[str, str], TableInfo] = {}
        # DDL and lookups run concurrently in server mode (cache builds
        # create/drop tables while query threads resolve scans).
        self._lock = threading.RLock()
        # Monotonic metadata version: bumped by every DDL statement and
        # every data append. Plan-cache keys embed it so any catalog
        # change (including cache-generation swaps, which create and drop
        # generation tables) invalidates cached plans.
        self._version = 0

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        database: str,
        name: str,
        schema: Schema,
        properties: dict[str, str] | None = None,
    ) -> TableInfo:
        key = (database, name)
        with self._lock:
            if key in self._tables:
                raise CatalogError(f"table exists: {database}.{name}")
            info = TableInfo(
                database=database,
                name=name,
                schema=schema,
                location=f"{self.warehouse_root}/{database}/{name}",
                properties=dict(properties or {}),
            )
            self._tables[key] = info
            self._version += 1
            return info

    def drop_table(self, database: str, name: str) -> None:
        key = (database, name)
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"no such table: {database}.{name}")
            info = self._tables.pop(key)
            self._version += 1
        self.fs.delete(info.location)

    def get_table(self, database: str, name: str) -> TableInfo:
        with self._lock:
            try:
                return self._tables[(database, name)]
            except KeyError:
                raise CatalogError(f"no such table: {database}.{name}") from None

    def table_exists(self, database: str, name: str) -> bool:
        with self._lock:
            return (database, name) in self._tables

    def list_tables(self, database: str | None = None) -> list[TableInfo]:
        with self._lock:
            return [
                info
                for (db, _), info in sorted(self._tables.items())
                if database is None or db == database
            ]

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    def append_rows(
        self,
        database: str,
        name: str,
        rows: list[tuple],
        row_group_size: int | None = None,
        stripe_bytes: int | None = None,
    ) -> str:
        """Write ``rows`` as one new immutable file; returns its path.

        Each call creates a new file ``part-NNNNN.orc``, mirroring the
        daily-append pattern of the production workload: data loaded
        together lands in the same file and is never modified afterwards.
        """
        info = self.get_table(database, name)
        kwargs = {}
        if row_group_size is not None:
            kwargs["row_group_size"] = row_group_size
        if stripe_bytes is not None:
            kwargs["stripe_bytes"] = stripe_bytes
        writer = OrcWriter(info.schema, **kwargs)
        writer.write_rows(rows)
        data = writer.finish()
        # Choosing the next part index and creating the file must be one
        # atomic step or two concurrent appends would collide on a name.
        with self._lock:
            existing = self.fs.list_directory(info.location)
            # One past the highest part, not the file count: a table with
            # a deleted middle file still appends after its last one.
            index = max((int(f.path[-9:-4]) for f in existing), default=-1) + 1
            path = f"{info.location}/part-{index:05d}.orc"
            self.fs.create(path, data)
            self._version += 1
        return path

    def table_files(self, database: str, name: str) -> list[str]:
        """File paths of the table, in split-index order."""
        return self.fs.file_splits(self.get_table(database, name).location)

    def modification_time(self, database: str, name: str) -> float:
        """Latest mtime across the table's files (0.0 for empty tables)."""
        statuses = self.fs.list_directory(self.get_table(database, name).location)
        return max((s.modification_time for s in statuses), default=0.0)

    def table_bytes(self, database: str, name: str) -> int:
        """Total on-disk size of the table."""
        info = self.get_table(database, name)
        return self.fs.directory_size(info.location)
