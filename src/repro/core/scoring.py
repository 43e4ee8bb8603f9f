"""Scoring Function (paper §IV-B).

Ranks the predicted MPJPs for caching under a byte budget:

* ``B_j`` — average size of the path's parsed value (bytes), measured by
  sampling rows of the raw table;
* ``P_j`` — average parsing time of the path, measured with the same
  parsing algorithm the engine uses (Jackson);
* ``A_j = P_j / B_j`` — acceleration per byte (Eq. 1);
* ``R_j = sum(M_i) / sum(N_i)`` over the queries touching the path,
  where ``M_i`` counts MPJPs and ``N_i`` all JSONPaths in query i
  (Eq. 2 — "relevance": prefer paths whose co-occurring paths are also
  cacheable so whole queries become cache-only);
* ``O_j`` — number of queries that access the path;
* ``Score_j = A_j * R_j * O_j`` (Eq. 3).

Both halves cost what their input holds, not candidates times it: a
table is sampled once and each sampled document parsed once for all the
candidate paths of its column, and Eq. 2 is summed for every candidate in
one pass over the query log's distinct shapes (DESIGN.md §17).
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import islice

from ..engine.catalog import Catalog
from ..engine.expressions import path_format
from ..jsonlib.errors import JsonParseError
from ..jsonlib.jackson import JacksonParser, dumps
from ..jsonlib.jsonpath import evaluate as eval_json_path
from ..storage.orc import OrcFileReader
from ..workload.trace import PathKey
from .collector import QueryRecord
from ..xmllib.parser import XmlParseError, XmlParser
from ..xmllib.xpath import evaluate_xpath

__all__ = ["PathStats", "ScoredPath", "ScoringFunction"]


@dataclass(frozen=True)
class PathStats:
    """Measured per-path statistics."""

    key: PathKey
    avg_value_bytes: float  # B_j
    avg_parse_seconds: float  # P_j
    estimated_total_bytes: int
    """B_j x table row count — the budget charge if this path is cached."""

    @property
    def acceleration_per_byte(self) -> float:  # A_j
        if self.avg_value_bytes <= 0:
            return 0.0
        return self.avg_parse_seconds / self.avg_value_bytes


@dataclass(frozen=True)
class ScoredPath:
    """A candidate MPJP with its full score decomposition."""

    key: PathKey
    stats: PathStats
    relevance: float  # R_j
    occurrences: int  # O_j
    score: float

    def budget_bytes(self) -> int:
        return self.stats.estimated_total_bytes


def _value_bytes(value: object) -> int:
    """Size of a parsed value once re-serialised for the cache table."""
    if value is None:
        return 1
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    return len(dumps(value).encode("utf-8"))


class ScoringFunction:
    """Measure, score and budget-select MPJPs."""

    def __init__(
        self,
        catalog: Catalog,
        sample_rows: int = 64,
        mpjp_threshold: int = 2,
    ) -> None:
        self.catalog = catalog
        self.sample_rows = sample_rows
        self.mpjp_threshold = mpjp_threshold
        #: (database, table) -> (the table's modification time when it
        #: was sampled, the stats measured then). A table that has moved
        #: since is measured again: its row count, hence every budget
        #: charge, is stale.
        self._measured: dict[
            tuple[str, str], tuple[float, dict[PathKey, PathStats]]
        ] = {}
        #: What the latest :meth:`measure_many` call had to do (nothing,
        #: on a memo hit) — the midnight's ``score`` span reports it.
        self.last_measurement = {"paths_measured": 0, "documents_sampled": 0}

    # ------------------------------------------------------------------
    # measurement (B_j, P_j)
    # ------------------------------------------------------------------
    def measure(self, key: PathKey) -> PathStats:
        """Sample the raw table to estimate B_j and P_j for one path."""
        return self.measure_many([key])[key]

    def measure_many(self, keys: Iterable[PathKey]) -> dict[PathKey, PathStats]:
        """B_j and P_j of every path in ``keys``, sampling each raw table
        once and parsing each sampled document once per column."""
        by_table: dict[tuple[str, str], list[PathKey]] = defaultdict(list)
        for key in keys:
            by_table[key.database, key.table].append(key)
        out: dict[PathKey, PathStats] = {}
        work = {"paths_measured": 0, "documents_sampled": 0}
        for (database, table), table_keys in by_table.items():
            modified = self.catalog.modification_time(database, table)
            known = self._measured.get((database, table))
            if known is None or known[0] != modified:
                known = self._measured[database, table] = (modified, {})
            memo = known[1]
            missing = [key for key in table_keys if key not in memo]
            if missing:
                memo.update(self._measure_table(database, table, missing, work))
            out.update((key, memo[key]) for key in table_keys)
        self.last_measurement = work
        return out

    def _measure_table(
        self, database: str, table: str, keys: list[PathKey], work: dict[str, int]
    ) -> dict[PathKey, PathStats]:
        """Measure ``keys`` (all of one table) from one read of its files,
        adding what that took to ``work``.

        The sample is the first ``sample_rows`` string values of each
        column. Per (column, format) group every sampled document is
        fully parsed once — P_j is defined on the full Jackson parse —
        and each path evaluated on the shared tree; a path is charged
        the shared parse time plus its own evaluation time. The clock
        covers the parse and the evaluation only: file reads, column
        decoding, row counting and value sizing are outside it. This is
        deliberately not the engine's raw path, which projects: the
        selection is defined on the cost the paper measures (DESIGN §9
        "Build path").
        """
        groups: dict[tuple[str, str], list[PathKey]] = defaultdict(list)
        for key in keys:
            groups[key.column, path_format(key.path)].append(key)
        samples: dict[str, list[str]] = {column: [] for column, _ in groups}
        total_rows = 0
        for path in self.catalog.table_files(database, table):
            reader = OrcFileReader(self.catalog.fs.read(path))
            total_rows += reader.row_count
            short = [c for c, texts in samples.items() if len(texts) < self.sample_rows]
            if not short:
                continue
            columns, _ = reader.read_columns(short)
            for column in short:
                texts = samples[column]
                strings = (t for t in columns[column] if isinstance(t, str))
                texts.extend(islice(strings, self.sample_rows - len(texts)))
        out: dict[PathKey, PathStats] = {}
        clock = time.perf_counter
        for (column, fmt), group in groups.items():
            texts = samples[column]
            parser, malformed, evaluate = (
                (JacksonParser(), JsonParseError, eval_json_path)
                if fmt == "json"
                else (XmlParser(), XmlParseError, evaluate_xpath)
            )
            documents: dict[str, object] = {}  # each distinct text parses once
            parse_seconds = 0.0
            tallies = [[key, 0.0, 0] for key in group]  # evaluation s, value bytes
            for text in texts:
                started = clock()
                if text not in documents:
                    try:
                        documents[text] = parser.parse(text)
                    except malformed:
                        documents[text] = None
                document = documents[text]
                parse_seconds += clock() - started
                for tally in tallies:
                    started = clock()
                    value = (
                        None if document is None else evaluate(tally[0].path, document)
                    )
                    tally[1] += clock() - started
                    tally[2] += _value_bytes(value)
            sampled = len(texts) or 1
            for key, eval_seconds, value_bytes in tallies:
                avg_bytes = value_bytes / sampled
                out[key] = PathStats(
                    key=key,
                    avg_value_bytes=avg_bytes,
                    avg_parse_seconds=(parse_seconds + eval_seconds) / sampled,
                    estimated_total_bytes=int(avg_bytes * total_rows),
                )
            work["documents_sampled"] += parser.stats.documents
        work["paths_measured"] += len(keys)
        return out

    # ------------------------------------------------------------------
    # R_j and O_j from collected queries
    # ------------------------------------------------------------------
    @staticmethod
    def relevance_and_occurrence(
        key: PathKey,
        mpjp_set: set[PathKey],
        records: list[QueryRecord],
    ) -> tuple[float, int]:
        """Eq. 2 over the queries in ``records`` that touch ``key`` —
        the per-key definition, kept as the reference the tests hold
        :meth:`score` to."""
        m_total = 0
        n_total = 0
        occurrences = 0
        for record in records:
            if key not in record.paths:
                continue
            occurrences += 1
            n_total += len(record.paths)
            m_total += sum(1 for p in record.paths if p in mpjp_set)
        relevance = m_total / n_total if n_total else 0.0
        return relevance, occurrences

    # ------------------------------------------------------------------
    def score(
        self,
        mpjp_set: set[PathKey],
        shapes: Mapping[tuple[PathKey, ...], int],
    ) -> list[ScoredPath]:
        """Score every MPJP candidate; descending score order.

        ``shapes`` is the window's query log as shape -> count
        (:meth:`JsonPathCollector.shapes_between`). Eq. 2's sums are
        taken for every candidate in one pass over the distinct shapes:
        a shape of ``count`` queries adds ``count`` to O_j, ``count * N``
        and ``count * M`` to the sums of each *distinct* candidate in it,
        where N and M count its paths and its MPJPs with repeats.
        """
        stats = self.measure_many(mpjp_set)
        tallies = {key: [0, 0, 0] for key in mpjp_set}  # O_j, sum N_i, sum M_i
        for paths, count in shapes.items():
            members = [p for p in paths if p in mpjp_set]
            n = len(paths) * count
            m = len(members) * count
            for key in set(members):
                tally = tallies[key]
                tally[0] += count
                tally[1] += n
                tally[2] += m
        out: list[ScoredPath] = []
        for key in sorted(mpjp_set):
            occurrences, n_total, m_total = tallies[key]
            relevance = m_total / n_total if n_total else 0.0
            out.append(
                ScoredPath(
                    key=key,
                    stats=stats[key],
                    relevance=relevance,
                    occurrences=occurrences,
                    score=stats[key].acceleration_per_byte * relevance * occurrences,
                )
            )
        out.sort(key=lambda sp: (-sp.score, sp.key))
        return out

    def select_within_budget(
        self,
        scored: list[ScoredPath],
        budget_bytes: int,
    ) -> list[ScoredPath]:
        """Greedy selection in score order until the budget runs out
        (paper §IV-C: "caches the MPJPs in the sorted order until it runs
        out [of] space")."""
        chosen: list[ScoredPath] = []
        remaining = budget_bytes
        for candidate in scored:
            cost = candidate.budget_bytes()
            if cost <= remaining:
                chosen.append(candidate)
                remaining -= cost
        return chosen

    @staticmethod
    def random_selection(
        scored: list[ScoredPath],
        budget_bytes: int,
        seed: int = 0,
    ) -> list[ScoredPath]:
        """The random-caching comparator of Fig 11: shuffle, then fill."""
        import random

        pool = list(scored)
        random.Random(seed).shuffle(pool)
        chosen: list[ScoredPath] = []
        remaining = budget_bytes
        for candidate in pool:
            cost = candidate.budget_bytes()
            if cost <= remaining:
                chosen.append(candidate)
                remaining -= cost
        return chosen
