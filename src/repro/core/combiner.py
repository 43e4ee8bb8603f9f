"""Value Combiner (paper §IV-E, Algorithm 2) and the Maxson scan operator.

``MaxsonScanExec`` replaces the engine's ``ScanExec`` for tables with
cache hits. Per split (one file = one split, the alignment rule of
§IV-C):

* a **PrimaryReader** reads the surviving raw columns of raw file *i*;
* a **CacheReader** reads the requested cached fields of cache file *i*;
* the two value lists are stitched positionally into complete records —
  no join, because the cacher guaranteed identical row counts and order.

Special cases from Algorithm 2 are honoured: when one side needs no
columns the other side's values are returned directly (cache-only reads
are the cheap path the *relevance* score optimises for).

Predicate pushdown (Algorithm 3) plugs in here: an optional SARG over
cached fields is evaluated on the cache file's row-group statistics and
the resulting skip mask is shared with the primary reader when the file
is single-stripe (§IV-F's precondition). A conjunct either file's
statistics prove for the split is not evaluated, nor a lane only it reads decoded.

**Graceful degradation.** A cache file that cannot be read — missing,
misaligned with the raw table, transiently erroring, or failing its
chunk/footer checksum — never fails the query and never leaks garbage:
the affected split falls back to parsing the raw JSON column directly
with the routine the cacher built the file with (DESIGN §9 "Build
path"). The failure trips the system's circuit breaker so subsequent
queries skip the broken table at plan time until its quarantine
half-opens for a re-probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..engine.batch import ColumnBatch
from ..engine.errors import CatalogError, ExecutionError
from ..engine.metrics import QueryMetrics
from ..engine.parallel import _fold_context_stats
from ..engine.physical import ExecState, ScanExec, _rebuilt, _sarg_label
from ..storage.fs import FsError
from ..storage.orc import OrcError
from ..storage.readers import OrcReader, split_reader
from ..storage.sargs import conjunction
from .cacher import CACHE_DATABASE, CacheEntry, cache_columns

__all__ = ["CachedFieldRequest", "MaxsonScanExec"]


@dataclass(frozen=True)
class CachedFieldRequest:
    """One cached JSONPath this scan must surface.

    ``env_key`` is the row-environment key the matching
    :class:`~repro.engine.expressions.CachedField` placeholder reads.
    """

    entry: CacheEntry
    env_key: str


@dataclass
class MaxsonScanExec(ScanExec):
    """Scan that stitches raw columns with cached JSONPath values."""

    cached_fields: list[CachedFieldRequest] = field(default_factory=list)
    cache_sargs: tuple = ()
    """``(conjunct, SARG over cached fields)`` pairs (Algorithm 3)."""
    breaker: object = None
    """Optional :class:`~repro.core.resilience.CacheCircuitBreaker`."""
    resilience: object = None
    """Optional :class:`~repro.core.resilience.ResilienceStats`."""

    def _label(self) -> str:
        cached = ", ".join(r.entry.field_name for r in self.cached_fields)
        return (
            f"MaxsonScan {self.database}.{self.table} cols={self.columns} "
            f"cached=[{cached}]"
            + _sarg_label("sarg", self.sargs)
            + _sarg_label("cache_sarg", self.cache_sargs)
        )

    def filtered_by(self, condition) -> ScanExec:
        from .pushdown import cache_sarg_pairs

        scan = super().filtered_by(condition)
        if not self.cache_sargs:
            return scan
        pairs = cache_sarg_pairs(condition, self.cached_fields)
        return _rebuilt(scan, cache_sargs=pairs)

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        # The inherited one-stage pipeline. It is re-stated here, and
        # run_morsel below is not folded into a hook of the base method,
        # only because bench/trace.py wraps both names as plain functions
        # of this class (``MaxsonScanExec.__dict__``).
        return super().execute_batch(state)

    # ------------------------------------------------------------------
    # morsel API: the Value Combiner, one split at a time
    # ------------------------------------------------------------------
    def morsel_units(self, state: ExecState) -> list:
        """(raw file, cache file) pairs, one per split.

        The whole-scan decisions — cache-table consistency and file
        alignment — happen here on the coordinator, exactly once; a
        misaligned cache degrades every unit to raw parsing
        (``cache_path`` None).
        """
        cache_table = self.cached_fields[0].entry.cache_table
        for request in self.cached_fields:
            if request.entry.cache_table != cache_table:
                raise ExecutionError(
                    "cached fields of one scan must come from one cache table"
                )
        raw_files = state.catalog.table_files(self.database, self.table)
        try:
            cache_files = state.catalog.table_files(CACHE_DATABASE, cache_table)
        except (CatalogError, FsError):
            cache_files = None
        if cache_files is None or len(cache_files) != len(raw_files):
            self.replay_cache_failures([(cache_table, False)])
            return [(raw_path, None) for raw_path in raw_files]
        return list(zip(raw_files, cache_files))

    def morsel_output_names(self) -> list[str]:
        names = super().morsel_output_names()
        names.extend(request.env_key for request in self.cached_fields)
        return names

    def run_morsel(self, state: ExecState, unit) -> tuple[ColumnBatch, bool]:
        """Algorithm 2 for one split, with split-local degraded fallback.

        Runs on a worker: only worker-local ``state`` is touched, and a
        cache failure is noted there for the coordinator to settle. The
        shared skip mask (Algorithm 3) is computed inside ``_split_columns``,
        once per split, and handed to both readers of this worker. A
        failing cache split falls back to raw parsing for that split
        only; the stitched values flow through as columns, so no per-row
        dicts are built on the cached fast path.
        """
        state.check_cancelled()
        started = time.perf_counter()
        raw_path, cache_path = unit
        span = (
            state.tracer.begin("combine", split=str(raw_path))
            if state.tracer is not None
            else None
        )
        fallback = cache_path is None
        proven = frozenset()
        if not fallback:
            try:
                columns, length, proven = self._split_columns(
                    state, raw_path, cache_path
                )
            except (FsError, OrcError, ExecutionError) as exc:
                self._note_cache_failure(state, exc)
                fallback = True
        if fallback:
            columns, length = self._fallback_columns(state, raw_path)
        if span is not None:
            span.attributes.update(fallback_splits=int(fallback), degraded=fallback)
            state.tracer.end(span)
        batch = self._morsel_batch(state, columns, length, started)
        batch.proven = proven
        return batch, fallback

    def finish_morsels(self, state: ExecState, fallback_splits: int) -> None:
        """Whole-scan accounting, once on the coordinator: any degraded
        split marks the query degraded; a fully-validated scan counts its
        cache hits and closes the breaker."""
        if fallback_splits:
            # Per-query degraded marker: the session's result cache
            # checks it to keep degraded answers out of admission.
            state.metrics.extra["degraded_splits"] = (
                state.metrics.extra.get("degraded_splits", 0) + fallback_splits
            )
            if self.resilience is not None:
                self.resilience.add("fallback_queries")
                self.resilience.add("fallback_splits", fallback_splits)
        else:
            state.metrics.cache_hits += len(self.cached_fields)
            if self.breaker is not None:
                self.breaker.record_success(
                    self.cached_fields[0].entry.cache_table
                )

    def __getstate__(self) -> dict:
        """Pickling a scan means one thing — shipment to a process-backend
        worker (``ProcessMorselPool.run_morsels``, the only place a plan is
        pickled) — and is supported for nothing else; copy a scan on the
        coordinator with ``dataclasses.replace``. Breaker and resilience
        hold coordinator locks, and a split never touches them, so the
        replica drops them."""
        return {**self.__dict__, "breaker": None, "resilience": None}

    def _note_cache_failure(self, state: ExecState, exc: Exception) -> None:
        """Note the split's cache failure in its own metrics, as
        ``(cache_table, is_corruption)``, for :meth:`replay_cache_failures`."""
        cache_table = self.cached_fields[0].entry.cache_table
        failures = state.metrics.extra.setdefault("cache_failures", [])
        failures.append((cache_table, isinstance(exc, OrcError)))

    def replay_cache_failures(self, entries: list) -> None:
        """Record cache failures, as ``(cache_table, is_corruption)``, on
        the breaker and resilience counters: the one place a scan reaches
        ``record_failure``. The coordinator calls it for each split that
        ran, in split order (``parallel._settle``), and for a cache table
        that does not match its raw table (:meth:`morsel_units`)."""
        for cache_table, corruption in entries:
            if self.breaker is not None:
                self.breaker.record_failure(cache_table)
            if self.resilience is not None and corruption:
                self.resilience.add("corruption_events")

    # ------------------------------------------------------------------
    def _fallback_columns(
        self, state: ExecState, raw_path: str
    ) -> tuple[dict[str, list], int]:
        """Answer one split without its cache file: parse the raw columns
        into the columns the file would have held
        (:func:`~repro.core.cacher.cache_columns`, the routine that wrote
        it), so a degraded query is row-identical to the cached one, just
        slower."""
        entries = [request.entry for request in self.cached_fields]
        read_columns = list(
            dict.fromkeys([*self.columns, *(e.key.column for e in entries)])
        )
        reader = split_reader(
            state.catalog.fs, raw_path, columns=read_columns, sarg=self.sarg
        )
        result = self._read(state, reader)
        state.check_cancelled()
        parse_span = (
            state.tracer.begin("parse", split=str(raw_path), degraded=True)
            if state.tracer is not None
            else None
        )
        context = state.context.fresh(json_paths=())
        values = cache_columns(
            context,
            result.columns,
            [entry.key for entry in entries],
            [entry.dtype for entry in entries],
        )
        parsed = QueryMetrics()
        _fold_context_stats(parsed, context)
        state.metrics.merge(parsed)
        if parse_span is not None:
            parse_span.attributes.update(
                rows=result.rows_read,
                parse_documents=parsed.parse_documents,
                parse_bytes=parsed.parse_bytes,
            )
            state.tracer.end(parse_span)
        columns: dict[str, list] = {
            name: result.columns[name] for name in self.columns
        }
        for request, column in zip(self.cached_fields, values):
            columns[request.env_key] = column
        return columns, result.rows_read

    def _split_columns(
        self, state: ExecState, raw_path: str, cache_path: str
    ) -> tuple[dict[str, list], int, frozenset]:
        """Algorithm 2 for one (raw file, cache file) pair: the stitched
        columns, their row count and the conjuncts the split's
        statistics prove."""
        fs = state.catalog.fs
        lanes = {r.env_key: r.entry.field_name for r in self.cached_fields}
        cache_sarg = conjunction(sarg for _, sarg in self.cache_sargs)
        cache_reader = OrcReader(
            fs, cache_path, columns=list(lanes.values()), sarg=cache_sarg
        )
        # "when one reader has no value to read, we will directly return
        # the value of the other reader" — the cache-only read.
        primary_reader = None
        if self.columns:
            primary_reader = split_reader(
                fs, raw_path, columns=self.columns, sarg=self.sarg
            )
            if (
                cache_reader.can_align_row_groups()
                and primary_reader.can_align_row_groups()
                and len(cache_reader.row_group_mask)
                == len(primary_reader.row_group_mask)
            ):
                # Algorithm 3 line 7: both readers skip exactly the row
                # groups eliminated by *either* side's SARG — the cache
                # reader's skip array is shared with the primary reader,
                # and vice versa.
                combined = [
                    a and b
                    for a, b in zip(
                        cache_reader.row_group_mask, primary_reader.row_group_mask
                    )
                ]
                cache_reader.share_row_group_mask(combined)
                primary_reader.share_row_group_mask(combined)
            else:
                # Cannot align (multi-stripe or layout mismatch): read both
                # sides fully; the residual filter preserves correctness.
                cache_reader.sarg = primary_reader.sarg = None
        proven = self._proven(cache_reader, self.cache_sargs)
        if primary_reader is not None:
            proven |= self._proven(primary_reader, self.sargs)
        env_keys = self._decoded(list(lanes), self.cache_sargs, proven, lanes)
        cache_reader.columns = [lanes[key] for key in env_keys]
        cache_result = self._read(state, cache_reader)
        columns: dict[str, list] = {}
        if primary_reader is not None:
            primary_reader.columns = self._decoded(self.columns, self.sargs, proven)
            primary_result = self._read(state, primary_reader)
            # Counted from each file's row-group directory, so the check
            # holds even when one side decodes no column.
            if primary_result.rows_read != cache_result.rows_read:
                raise ExecutionError(
                    "value combiner row mismatch in split "
                    f"{raw_path!r}: primary={primary_result.rows_read} "
                    f"cache={cache_result.rows_read}"
                )
            columns = {
                name: primary_result.columns[name]
                for name in primary_reader.columns
            }
        # Stitch: place each value at its schema position (here, its env
        # key) to form the complete record.
        for key in env_keys:
            columns[key] = cache_result.columns[lanes[key]]
        return columns, cache_result.rows_read, proven

    def output_names(self) -> set[str]:
        names = super().output_names()
        names |= {r.env_key for r in self.cached_fields}
        return names
