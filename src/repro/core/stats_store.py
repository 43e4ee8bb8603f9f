"""Persistence for collector statistics.

The paper stores the JSONPath Collector's output in a *statistics table
partitioned by date* in the warehouse itself. This module round-trips a
:class:`~repro.core.collector.JsonPathCollector` through two catalog
tables:

* ``maxson_meta.jsonpath_stats`` — one row per (day, path) with the
  access count (the predictor's input);
* ``maxson_meta.query_shapes`` — the collector's shape log: one row per
  (day, shape, path) carrying the number of queries of that shape (what
  the scoring function's R_j/O_j need).

Each ``save`` appends one daily partition file per table, matching the
production append-only pattern; ``load`` rebuilds a collector from all
persisted partitions — including those of the earlier
``maxson_meta.query_paths`` layout (one row per (day, query, path), no
count), which is read but no longer written.
"""

from __future__ import annotations

from ..engine.catalog import Catalog
from ..storage.schema import DataType, Schema
from ..workload.trace import PathKey
from .collector import JsonPathCollector

__all__ = ["StatsStore", "META_DATABASE"]

META_DATABASE = "maxson_meta"
STATS_TABLE = "jsonpath_stats"
SHAPES_TABLE = "query_shapes"
LEGACY_MEMBERSHIP_TABLE = "query_paths"


def _stats_schema() -> Schema:
    return Schema.of(
        ("day", DataType.INT64),
        ("database", DataType.STRING),
        ("table_name", DataType.STRING),
        ("column_name", DataType.STRING),
        ("path", DataType.STRING),
        ("count", DataType.INT64),
    )


def _shapes_schema() -> Schema:
    return Schema.of(
        ("day", DataType.INT64),
        ("shape_seq", DataType.INT64),
        ("queries", DataType.INT64),
        ("database", DataType.STRING),
        ("table_name", DataType.STRING),
        ("column_name", DataType.STRING),
        ("path", DataType.STRING),
    )


class StatsStore:
    """Save/load collector statistics through the warehouse catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._ensure_tables()

    def _ensure_tables(self) -> None:
        if not self.catalog.table_exists(META_DATABASE, STATS_TABLE):
            self.catalog.create_table(META_DATABASE, STATS_TABLE, _stats_schema())
        if not self.catalog.table_exists(META_DATABASE, SHAPES_TABLE):
            self.catalog.create_table(META_DATABASE, SHAPES_TABLE, _shapes_schema())

    # ------------------------------------------------------------------
    def save_day(self, collector: JsonPathCollector, day: int) -> None:
        """Append one day's statistics as a new partition file."""
        counts = collector.counts_on(day)
        stats_rows = [
            (day, key.database, key.table, key.column, key.path, count)
            for key, count in sorted(counts.items())
        ]
        shape_rows = [
            (day, seq, queries, key.database, key.table, key.column, key.path)
            for seq, (paths, queries) in enumerate(
                collector.shapes_between(day, day).items()
            )
            for key in paths
        ]
        if stats_rows:
            self.catalog.append_rows(META_DATABASE, STATS_TABLE, stats_rows)
        if shape_rows:
            self.catalog.append_rows(META_DATABASE, SHAPES_TABLE, shape_rows)

    def save_all(self, collector: JsonPathCollector) -> None:
        """Persist every collected day (one partition per day)."""
        for day in collector.days:
            self.save_day(collector, day)

    # ------------------------------------------------------------------
    def load(self) -> JsonPathCollector:
        """Rebuild a collector from the persisted partitions.

        The shape log is reconstructed exactly (so R_j/O_j are
        preserved); per-day counts are re-derived from it, and
        :meth:`verify` cross-checks them against the stats partitions.
        """
        collector = JsonPathCollector()
        for table, counted in ((LEGACY_MEMBERSHIP_TABLE, False), (SHAPES_TABLE, True)):
            for day, paths, queries in self._persisted_shapes(table, counted):
                collector.record_query(day, paths, queries)
        return collector

    def _persisted_shapes(self, table: str, counted: bool):
        """(day, paths, queries) per group of one partition's rows sharing
        (day, sequence number); ``queries`` is the third field when the
        layout is ``counted`` and 1 otherwise."""
        from ..storage.readers import OrcReader

        if not self.catalog.table_exists(META_DATABASE, table):
            return
        for path in self.catalog.table_files(META_DATABASE, table):
            grouped: dict[tuple[int, int], tuple[int, list[PathKey]]] = {}
            for row in OrcReader(self.catalog.fs, path).read_rows():
                queries = row[2] if counted else 1
                grouped.setdefault((row[0], row[1]), (queries, []))[1].append(
                    PathKey(*row[-4:])
                )
            for (day, _), (queries, keys) in grouped.items():
                yield day, tuple(keys), queries

    def verify(self, collector: JsonPathCollector) -> bool:
        """Check the persisted stats partitions agree with ``collector``.

        Returns False on any count mismatch (e.g. a partition written
        twice); used by tests and by operators after manual repairs.
        """
        from collections import Counter

        from ..storage.readers import OrcReader

        persisted: dict[int, Counter] = {}
        for path in self.catalog.table_files(META_DATABASE, STATS_TABLE):
            reader = OrcReader(self.catalog.fs, path)
            for day, database, table, column, json_path, count in reader.read_rows():
                key = PathKey(database, table, column, json_path)
                persisted.setdefault(day, Counter())[key] += count
        for day, counts in persisted.items():
            if counts != collector.counts_on(day):
                return False
        return True
