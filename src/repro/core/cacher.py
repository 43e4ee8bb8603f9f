"""JSONPath Cacher (paper §IV-C).

Pre-parses the chosen MPJPs out of the raw tables into *cache tables*:

* all cached paths of one raw table go into one cache table;
* the cache table is written **file-for-file**: cache file *i* holds
  exactly the rows of raw file *i*, in order, so the Value Combiner can
  align the two readers by split index with no join (paper Fig 7);
* cache table and field names encode the raw location
  (``{db}__{table}`` / ``{column}__{mangled path}``) so the mapping is
  recoverable from names alone, as in the paper;
* the cache is dropped and re-populated every midnight cycle.

Cache columns are *typed*: the cacher samples parsed values and stores
int/float/bool columns natively so ORC min/max statistics (and therefore
predicate pushdown) work on cached JSONPath values. Mixed-type or
structured values fall back to JSON-serialised strings.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field

from ..engine.catalog import Catalog
from ..jsonlib.jackson import dumps
from ..storage.orc import OrcFileReader, OrcWriter
from ..storage.schema import DataType, Field, Schema
from ..workload.trace import PathKey
from .extraction import ValueExtractor

__all__ = [
    "CacheEntry",
    "CacheBuildReport",
    "CacheRegistry",
    "JsonPathCacher",
    "coerce_cache_value",
]

#: Database holding every cache table.
CACHE_DATABASE = "maxson_cache"


def mangle_path(path: str) -> str:
    """A filesystem/identifier-safe encoding of a JSONPath."""
    return re.sub(r"[^0-9A-Za-z]+", "_", path).strip("_")


def cache_table_name(database: str, table: str) -> str:
    return f"{database}__{table}"


def cache_field_name(column: str, path: str) -> str:
    return f"{column}__{mangle_path(path)}"


@dataclass(frozen=True)
class CacheEntry:
    """Registry record for one cached JSONPath."""

    key: PathKey
    cache_table: str
    field_name: str
    dtype: DataType
    cache_time: float
    rows: int
    bytes_on_disk_share: int


@dataclass
class CacheBuildReport:
    """Outcome of one cache population run."""

    entries: list[CacheEntry] = field(default_factory=list)
    tables_written: int = 0
    rows_parsed: int = 0
    build_seconds: float = 0.0
    bytes_written: int = 0
    failed: bool = False
    """True when the build aborted; the previous generation kept serving."""
    error: str = ""
    """Abbreviated reason when ``failed`` is set."""


class CacheRegistry:
    """In-memory registry of valid cache entries (the paper keeps this in
    the metadata store consulted at plan time).

    Safe under concurrent readers and writers: the plan modifier looks
    entries up (and marks tables invalid) from query threads while the
    midnight cycle registers a new generation's entries, so every method
    takes an internal lock. Entries themselves are frozen dataclasses —
    a reader that obtained one keeps a consistent view regardless of
    later registrations.
    """

    def __init__(self) -> None:
        self._entries: dict[PathKey, CacheEntry] = {}
        self._invalid: set[str] = set()  # cache table names marked invalid
        self._lock = threading.RLock()
        #: Monotonic mutation counter. Part of the plan-cache key: any
        #: registration, invalidation or repair changes the plan-time
        #: rewrite decisions, so cached plans keyed on an older version
        #: must stop matching.
        self._version = 0

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def register(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[entry.key] = entry
            self._version += 1

    def lookup(self, key: PathKey) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.cache_table in self._invalid:
                return None
            return entry

    def mark_table_invalid(self, cache_table: str) -> None:
        """Algorithm 1 line 19: raw table changed after caching."""
        with self._lock:
            if cache_table not in self._invalid:
                self._invalid.add(cache_table)
                self._version += 1

    def revalidate_table(self, cache_table: str) -> None:
        """Clear the invalid mark after a successful rebuild/refresh."""
        with self._lock:
            if cache_table in self._invalid:
                self._invalid.discard(cache_table)
                self._version += 1

    def entries_including_invalid(self, cache_table: str) -> list[CacheEntry]:
        """Entries of one cache table, whether or not it is marked invalid
        (the refresh path repairs invalidated tables in place)."""
        with self._lock:
            return [
                e for e in self._entries.values() if e.cache_table == cache_table
            ]

    def all_entries(self) -> list[CacheEntry]:
        """Every registered entry, including those of invalidated tables."""
        with self._lock:
            return list(self._entries.values())

    def cache_tables(self) -> set[str]:
        """Names of every cache table with at least one entry (valid or
        not) — the set a generation swap must retire."""
        with self._lock:
            return {e.cache_table for e in self._entries.values()}

    def invalid_tables(self) -> set[str]:
        with self._lock:
            return set(self._invalid)

    def entries(self) -> list[CacheEntry]:
        with self._lock:
            return [
                e
                for e in self._entries.values()
                if e.cache_table not in self._invalid
            ]

    def total_bytes(self) -> int:
        return sum(e.bytes_on_disk_share for e in self.entries())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._invalid.clear()
            self._version += 1


def _infer_dtype(values: list[object]) -> DataType:
    """Pick the narrowest column type holding every sampled value."""
    kinds: set[DataType] = set()
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            kinds.add(DataType.BOOL)
        elif isinstance(value, int):
            kinds.add(DataType.INT64)
        elif isinstance(value, float):
            kinds.add(DataType.FLOAT64)
        elif isinstance(value, str):
            kinds.add(DataType.STRING)
        else:
            return DataType.STRING  # dict/list -> JSON string
    if not kinds:
        return DataType.STRING
    if kinds == {DataType.INT64}:
        return DataType.INT64
    if kinds <= {DataType.INT64, DataType.FLOAT64}:
        return DataType.FLOAT64
    if kinds == {DataType.BOOL}:
        return DataType.BOOL
    if kinds == {DataType.STRING}:
        return DataType.STRING
    return DataType.STRING


def coerce_cache_value(value: object, dtype: DataType) -> object:
    """Coerce one extracted value to a cache column's type.

    Public because the graceful-degradation path (combiner fallback)
    must reproduce the cacher's exact coercions so raw-parsed values are
    byte-identical to what the cache table would have returned.
    """
    if value is None:
        return None
    if dtype is DataType.STRING:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return str(value)
        return dumps(value)
    if dtype is DataType.INT64:
        return int(value) if isinstance(value, (int, bool)) else None
    if dtype is DataType.FLOAT64:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return None
    if dtype is DataType.BOOL:
        return bool(value) if isinstance(value, bool) else None
    raise AssertionError(dtype)  # pragma: no cover


def _column_projections(extractor: ValueExtractor, keys: list[PathKey]) -> list:
    """``(column, projection, positions)`` per source column of ``keys``:
    the extractor's projection of that column's paths, whose i-th value
    belongs to ``keys[positions[i]]``."""
    by_column: dict[str, list[int]] = {}
    for position, key in enumerate(keys):
        by_column.setdefault(key.column, []).append(position)
    return [
        (
            column,
            extractor.projection(tuple(keys[i].path for i in positions)),
            positions,
        )
        for column, positions in sorted(by_column.items())
    ]


class JsonPathCacher:
    """Populate cache tables for a set of chosen paths."""

    def __init__(
        self,
        catalog: Catalog,
        registry: CacheRegistry | None = None,
        row_group_size: int = 100,
        type_sample_rows: int = 64,
        table_suffix: str = "",
        build_workers: int = 1,
    ) -> None:
        self.catalog = catalog
        self.registry = registry or CacheRegistry()
        self.row_group_size = row_group_size
        self.type_sample_rows = type_sample_rows
        #: Appended to every cache table name. The generation-swap
        #: protocol builds generation N into ``{db}__{table}__gN`` so the
        #: next generation never collides with tables in-flight queries
        #: are still reading.
        self.table_suffix = table_suffix
        #: Files of one table parse concurrently on this many threads
        #: (parsing dominates build time; see ``--build-workers``). Cache
        #: files are still *written* sequentially in file order on the
        #: build thread, so crash-journal and generation-swap semantics —
        #: and deterministic fault injection at 1 — are unchanged.
        self.build_workers = max(1, int(build_workers))

    def _table_name(self, database: str, table: str) -> str:
        return cache_table_name(database, table) + self.table_suffix

    # ------------------------------------------------------------------
    def drop_all(self) -> None:
        """Empty the cache (the paper empties and re-populates nightly)."""
        for info in list(self.catalog.list_tables(CACHE_DATABASE)):
            self.catalog.drop_table(info.database, info.name)
        self.registry.clear()

    def populate(self, keys: list[PathKey], tracer=None) -> CacheBuildReport:
        """Parse and cache the values of ``keys`` (already budget-chosen,
        in score order). Paths are grouped per raw table; each group
        becomes one cache table whose files align with the raw files.

        ``tracer`` (optional) records one ``cache_table`` span per group
        under the midnight cycle's ``build`` span."""
        report = CacheBuildReport()
        started = time.perf_counter()
        groups: dict[tuple[str, str], list[PathKey]] = {}
        for key in keys:
            groups.setdefault((key.database, key.table), []).append(key)
        for (database, table), group in sorted(groups.items()):
            if tracer is not None:
                rows_before = report.rows_parsed
                with tracer.span(
                    "cache_table",
                    label=f"{database}.{table}",
                    paths=len(group),
                ):
                    self._cache_one_table(database, table, group, report)
                    tracer.annotate(
                        rows_parsed=report.rows_parsed - rows_before
                    )
            else:
                self._cache_one_table(database, table, group, report)
        report.build_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    # extension: incremental refresh
    # ------------------------------------------------------------------
    def refresh(self, keys: list[PathKey]) -> CacheBuildReport:
        """Incrementally extend existing cache tables for appended data.

        The paper re-populates the whole cache nightly; with the
        production append-only pattern (§II-B: appended data "will hardly
        be changed") it suffices to parse only the raw files added since
        the cache was built and append the matching cache files. This
        keeps file-index alignment intact and re-validates the entries.

        Falls back to a full :meth:`populate` for any table whose cached
        key set changed or whose cache is missing.
        """
        report = CacheBuildReport()
        started = time.perf_counter()
        groups: dict[tuple[str, str], list[PathKey]] = {}
        for key in keys:
            groups.setdefault((key.database, key.table), []).append(key)
        for (database, table), group in sorted(groups.items()):
            cache_table = self._table_name(database, table)
            # Invalidated-but-intact cache tables are refreshable in place:
            # appending the missing partitions is exactly the repair the
            # append-only update pattern calls for.
            existing = {
                entry.key
                for entry in self.registry.entries_including_invalid(cache_table)
            }
            if existing != set(group) or not self.catalog.table_exists(
                CACHE_DATABASE, cache_table
            ):
                self._cache_one_table(database, table, group, report)
            else:
                self._refresh_one_table(database, table, group, report)
            self.registry.revalidate_table(cache_table)
        report.build_seconds = time.perf_counter() - started
        return report

    def _refresh_one_table(
        self,
        database: str,
        table: str,
        keys: list[PathKey],
        report: CacheBuildReport,
    ) -> None:
        keys = sorted(keys)  # must match the cache table's field order
        cache_table = self._table_name(database, table)
        raw_files = self.catalog.table_files(database, table)
        cache_files = self.catalog.table_files(CACHE_DATABASE, cache_table)
        if len(cache_files) > len(raw_files):
            # Raw table shrank (compaction/repair): rebuild from scratch.
            self._cache_one_table(database, table, keys, report)
            return
        info = self.catalog.get_table(CACHE_DATABASE, cache_table)
        entries = {
            entry.key: entry
            for entry in self.registry.entries_including_invalid(cache_table)
        }
        dtypes = {key: entries[key].dtype for key in keys}
        extractor = ValueExtractor()
        columns_needed = sorted({key.column for key in keys})
        appended_rows = 0
        appended_bytes = 0
        new_files = raw_files[len(cache_files):]
        for offset, (data, n_rows) in enumerate(
            self._parse_files(
                new_files, info.schema, keys, dtypes, columns_needed, extractor
            )
        ):
            file_index = len(cache_files) + offset
            cache_path = f"{info.location}/part-{file_index:05d}.orc"
            self.catalog.fs.create(cache_path, data)
            appended_rows += n_rows
            appended_bytes += len(data)
        report.rows_parsed += appended_rows
        report.bytes_written += appended_bytes
        report.tables_written += 1
        cache_time = self.catalog.modification_time(CACHE_DATABASE, cache_table)
        for key in keys:
            old = entries[key]
            entry = CacheEntry(
                key=key,
                cache_table=cache_table,
                field_name=old.field_name,
                dtype=old.dtype,
                cache_time=cache_time,
                rows=old.rows + appended_rows,
                bytes_on_disk_share=old.bytes_on_disk_share
                + appended_bytes // max(len(keys), 1),
            )
            self.registry.register(entry)
            report.entries.append(entry)

    def _parse_files(
        self,
        paths: list[str],
        schema: Schema,
        keys: list[PathKey],
        dtypes: dict[PathKey, DataType],
        columns_needed: list[str],
        extractor: ValueExtractor,
    ):
        """Yield ``(cache_bytes, n_rows)`` for each raw file, in order.

        With ``build_workers > 1`` the per-file parse runs on a thread
        pool (each worker gets its own :class:`ValueExtractor` — parser
        stats and document caches are not shared across threads); results
        are yielded strictly in file order so the caller's sequential
        writes keep raw/cache file alignment. Worker exceptions —
        including injected crashes — surface on the build thread at the
        failing file's position, exactly where the serial loop would have
        raised.
        """
        if self.build_workers <= 1 or len(paths) <= 1:
            for path in paths:
                yield self._parse_file_to_cache(
                    path, schema, keys, dtypes, columns_needed, extractor
                )
            return
        from concurrent.futures import ThreadPoolExecutor

        def parse(path: str) -> tuple[bytes, int]:
            return self._parse_file_to_cache(
                path, schema, keys, dtypes, columns_needed, ValueExtractor()
            )

        with ThreadPoolExecutor(
            max_workers=min(self.build_workers, len(paths))
        ) as pool:
            futures = [pool.submit(parse, path) for path in paths]
            for future in futures:
                yield future.result()

    def _parse_file_to_cache(
        self,
        raw_path: str,
        schema: Schema,
        keys: list[PathKey],
        dtypes: dict[PathKey, DataType],
        columns_needed: list[str],
        extractor: ValueExtractor,
    ) -> tuple[bytes, int]:
        """Parse one raw file into serialised cache-file bytes."""
        reader = OrcFileReader(self.catalog.fs.read(raw_path))
        raw_columns, _ = reader.read_columns(columns_needed)
        layout = reader.row_group_layout()
        group_rows = layout[0].row_count if layout else self.row_group_size
        writer = OrcWriter(schema, row_group_size=group_rows)
        n_rows = reader.row_count
        projections = _column_projections(extractor, keys)
        key_dtypes = [dtypes[key] for key in keys]
        row: list[object] = [None] * len(keys)
        for row_index in range(n_rows):
            for column, project, positions in projections:
                values = project(raw_columns[column][row_index])
                for position, value in zip(positions, values):
                    row[position] = coerce_cache_value(
                        value, key_dtypes[position]
                    )
            writer.write_row(tuple(row))
        return writer.finish(), n_rows

    # ------------------------------------------------------------------
    def _cache_one_table(
        self,
        database: str,
        table: str,
        keys: list[PathKey],
        report: CacheBuildReport,
    ) -> None:
        keys = sorted(keys)  # canonical field order, stable across rebuilds
        files = self.catalog.table_files(database, table)
        if not files:
            return
        extractor = ValueExtractor()
        # Pass 1: sample for column types.
        sample_values: dict[PathKey, list[object]] = {key: [] for key in keys}
        first_reader = OrcFileReader(self.catalog.fs.read(files[0]))
        columns_needed = sorted({key.column for key in keys})
        sample_columns, _ = first_reader.read_columns(columns_needed)
        sample_size = min(self.type_sample_rows, first_reader.row_count)
        for column, project, positions in _column_projections(extractor, keys):
            for text in sample_columns[column][:sample_size]:
                for position, value in zip(positions, project(text)):
                    if value is not None:
                        sample_values[keys[position]].append(value)
        dtypes = {key: _infer_dtype(sample_values[key]) for key in keys}

        # Cache table schema: one field per cached path, stable order.
        fields = tuple(
            Field(cache_field_name(key.column, key.path), dtypes[key])
            for key in keys
        )
        schema = Schema(fields)
        cache_table = self._table_name(database, table)
        if self.catalog.table_exists(CACHE_DATABASE, cache_table):
            self.catalog.drop_table(CACHE_DATABASE, cache_table)
        info = self.catalog.create_table(CACHE_DATABASE, cache_table, schema)

        # Pass 2: file-aligned parse and write. One raw file -> one cache
        # file with identical row count, order, and row-group boundaries —
        # the preconditions for the Value Combiner's positional stitch and
        # for sharing skip masks between readers (§IV-F).
        rows_per_path = 0
        total_written = 0
        for file_index, (data, n_rows) in enumerate(
            self._parse_files(files, schema, keys, dtypes, columns_needed, extractor)
        ):
            # Mirror the raw file's index in the cache file name so both
            # directories sort identically (the paper's renaming trick).
            cache_path = f"{info.location}/part-{file_index:05d}.orc"
            self.catalog.fs.create(cache_path, data)
            total_written += len(data)
            rows_per_path += n_rows
            report.rows_parsed += n_rows
        report.tables_written += 1
        report.bytes_written += total_written
        cache_time = self.catalog.modification_time(CACHE_DATABASE, cache_table)
        share = total_written // max(len(keys), 1)
        for key in keys:
            entry = CacheEntry(
                key=key,
                cache_table=cache_table,
                field_name=cache_field_name(key.column, key.path),
                dtype=dtypes[key],
                cache_time=cache_time,
                rows=rows_per_path,
                bytes_on_disk_share=share,
            )
            self.registry.register(entry)
            report.entries.append(entry)
