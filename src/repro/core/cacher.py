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
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..engine.catalog import Catalog
from ..engine.expressions import EvalContext, path_format
from ..jsonlib.jackson import dumps
from ..storage.orc import OrcFileReader, OrcWriter
from ..storage.schema import DataType, Field, Schema
from ..workload.trace import PathKey

__all__ = [
    "CacheEntry",
    "CacheBuildReport",
    "CacheRegistry",
    "JsonPathCacher",
    "cache_columns",
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
    if kinds == {DataType.INT64}:
        return DataType.INT64
    if kinds and kinds <= {DataType.INT64, DataType.FLOAT64}:
        return DataType.FLOAT64
    if kinds == {DataType.BOOL}:
        return DataType.BOOL
    return DataType.STRING  # strings, a mix of kinds, or nothing sampled


def coerce_cache_value(value: object, dtype: DataType) -> object:
    """Coerce one extracted value to a cache column's type."""
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


def _path_values(context: EvalContext, texts: dict, keys: list[PathKey]) -> list[list]:
    """What ``context`` reads at each key's path, one list per key, at one
    document lookup per row per source column. ``texts`` maps each source
    column to one raw file's values of it."""
    by_column: dict[str, list[int]] = {}
    for position, key in enumerate(keys):
        by_column.setdefault(key.column, []).append(position)
    out: list = [None] * len(keys)  # every position is filled below
    for column, positions in by_column.items():
        paths = [keys[position].path for position in positions]
        for position, values in zip(
            positions, context.extract_paths(texts[column], paths)
        ):
            out[position] = values
    return out


def cache_columns(
    context: EvalContext, texts: dict, keys: list[PathKey], dtypes: list[DataType]
) -> list[list]:
    """The cache-table columns of ``keys`` for one raw file: each key's
    values, coerced to its column type.

    The cacher writes these lists and the Value Combiner's degraded
    fallback stitches them, so a split answered without its cache file
    reads exactly what the file holds.
    """
    return [
        [coerce_cache_value(value, dtype) for value in values]
        for values, dtype in zip(_path_values(context, texts, keys), dtypes)
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
        """Bring the cache tables of ``keys`` (already budget-chosen, in
        score order) level with their raw tables. Paths are grouped per
        raw table; each group is one cache table whose files align with
        the raw files (:meth:`_build_table`).

        ``tracer`` (optional) records one ``cache_table`` span per group
        under the midnight cycle's ``build`` span."""
        report = CacheBuildReport()
        started = time.perf_counter()
        groups: dict[tuple[str, str], list[PathKey]] = {}
        for key in keys:
            groups.setdefault((key.database, key.table), []).append(key)
        for (database, table), group in sorted(groups.items()):
            rows_before = report.rows_parsed
            with nullcontext() if tracer is None else tracer.span(
                "cache_table", label=f"{database}.{table}", paths=len(group)
            ):
                self._build_table(database, table, group, report)
                if tracer is not None:
                    tracer.annotate(rows_parsed=report.rows_parsed - rows_before)
        report.build_seconds = time.perf_counter() - started
        return report

    def refresh(self, keys: list[PathKey]) -> CacheBuildReport:
        """:meth:`populate`, then clear the tables' invalid marks.

        The paper re-populates the whole cache nightly; with the
        production append-only pattern (§II-B: appended data "will hardly
        be changed") parsing the raw files added since the build and
        appending the matching cache files is exactly the repair an
        invalidated-but-intact cache table calls for.
        """
        report = self.populate(keys)
        for database, table in {(key.database, key.table) for key in keys}:
            self.registry.revalidate_table(self._table_name(database, table))
        return report

    # ------------------------------------------------------------------
    def _build_table(
        self,
        database: str,
        table: str,
        keys: list[PathKey],
        report: CacheBuildReport,
    ) -> None:
        """Write the cache files of ``keys`` that are not there yet,
        starting at the first raw file that has none.

        A table with no cache table (every ``__g{N}`` generation build), a
        different registered key set, or fewer raw files than cache files
        (compaction/repair) is built from file 0 with column types
        inferred from a sample of it; otherwise the registered types are
        kept and only the raw files past the last cache file are parsed.
        """
        keys = sorted(keys)  # canonical field order, stable across rebuilds
        catalog = self.catalog
        cache_table = self._table_name(database, table)
        raw_files = catalog.table_files(database, table)
        registered = {
            entry.key: entry
            for entry in self.registry.entries_including_invalid(cache_table)
        }
        exists = catalog.table_exists(CACHE_DATABASE, cache_table)
        start = len(catalog.table_files(CACHE_DATABASE, cache_table)) if exists else 0
        context = EvalContext(
            json_paths=tuple(k.path for k in keys if path_format(k.path) == "json")
        )
        if not exists or set(registered) != set(keys) or start > len(raw_files):
            if not raw_files:
                return
            registered, start = {}, 0
            dtypes = self._sample_dtypes(context, raw_files[0], keys)
            fields = tuple(
                Field(cache_field_name(key.column, key.path), dtype)
                for key, dtype in zip(keys, dtypes)
            )
            if exists:
                catalog.drop_table(CACHE_DATABASE, cache_table)
            info = catalog.create_table(CACHE_DATABASE, cache_table, Schema(fields))
        else:
            info = catalog.get_table(CACHE_DATABASE, cache_table)
            dtypes = [registered[key].dtype for key in keys]
        rows, written = self._write_files(
            info, raw_files, start, keys, dtypes, context
        )
        report.rows_parsed += rows
        report.bytes_written += written
        report.tables_written += 1
        cache_time = catalog.modification_time(CACHE_DATABASE, cache_table)
        for key, dtype in zip(keys, dtypes):
            old = registered.get(key)
            entry = CacheEntry(
                key=key,
                cache_table=cache_table,
                field_name=cache_field_name(key.column, key.path),
                dtype=dtype,
                cache_time=cache_time,
                rows=rows + (old.rows if old else 0),
                bytes_on_disk_share=written // len(keys)
                + (old.bytes_on_disk_share if old else 0),
            )
            self.registry.register(entry)
            report.entries.append(entry)

    def _sample_dtypes(
        self, context: EvalContext, raw_path: str, keys: list[PathKey]
    ) -> list[DataType]:
        """Column types for ``keys``, from the first ``type_sample_rows``
        rows of one raw file."""
        reader = OrcFileReader(self.catalog.fs.read(raw_path))
        texts, _ = reader.read_columns(sorted({key.column for key in keys}))
        rows = self.type_sample_rows
        sample = {column: values[:rows] for column, values in texts.items()}
        return [_infer_dtype(v) for v in _path_values(context, sample, keys)]

    def _write_files(
        self,
        info,
        raw_files: list[str],
        start: int,
        keys: list[PathKey],
        dtypes: list[DataType],
        context: EvalContext,
    ) -> tuple[int, int]:
        """Parse ``raw_files[start:]`` into cache files; the rows and bytes
        written. Raw file *i* becomes ``part-{i}`` of the cache table (so
        both directories sort identically — the paper's renaming trick)
        with its row count, order and row-group boundaries: the
        preconditions for the Value Combiner's positional stitch and for
        sharing skip masks between readers (§IV-F).

        With ``build_workers > 1`` the per-file parse runs on a thread
        pool (each file on a sibling of ``context`` — parser stats and
        document caches are not shared across threads), but files are
        created strictly in order on this thread, so raw/cache alignment
        holds and a worker's exception — including an injected crash —
        surfaces at the failing file's position, exactly where the serial
        loop would have raised.
        """
        paths = raw_files[start:]
        columns = sorted({key.column for key in keys})

        def parse(path: str, context: EvalContext) -> tuple[bytes, int]:
            reader = OrcFileReader(self.catalog.fs.read(path))
            texts, _ = reader.read_columns(columns)
            layout = reader.row_group_layout()
            group_rows = layout[0].row_count if layout else self.row_group_size
            writer = OrcWriter(info.schema, row_group_size=group_rows)
            writer.write_rows(zip(*cache_columns(context, texts, keys, dtypes)))
            return writer.finish(), reader.row_count

        if self.build_workers <= 1 or len(paths) <= 1:
            pool = nullcontext()
            results = (parse(path, context) for path in paths)
        else:
            pool = ThreadPoolExecutor(min(self.build_workers, len(paths)))
            futures = [pool.submit(parse, path, context.fresh()) for path in paths]
            results = (future.result() for future in futures)
        rows = written = 0
        with pool:
            for index, (data, n_rows) in enumerate(results, start=start):
                self.catalog.fs.create(f"{info.location}/part-{index:05d}.orc", data)
                rows += n_rows
                written += len(data)
        return rows, written
