"""JSONPath Collector (paper §III-B, Fig 5).

Collects historical query information: for every JSONPath it records the
location (database, table, column), the per-day access count, and the
query membership needed by the scoring function. The statistics store is
partitioned by date, mirroring the production statistics table.

Query membership is kept as a *shape log*: per day, a count per distinct
path tuple. Recurring templates make most of a day's queries repeats of
a few shapes (the paper's 89% duplicate-parse traffic), so the log — and
the scoring pass over it — grows with what the day contained, not with
how often it was asked. Individual :class:`QueryRecord` s are a view
expanded from the counts.

Two ingestion routes exist:

* :meth:`JsonPathCollector.record_query` — explicit (day, paths) events,
  used when replaying the synthetic trace;
* :meth:`JsonPathCollector.record_planned` — a planned SQL query's
  ``referenced_json_paths``, used when collecting from the live engine.

The collector is shared mutable state between query threads and the
midnight cycle in server mode, so every method takes an internal lock:
ingestion from N concurrent clients never loses counts, and readers see
a consistent snapshot.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from dataclasses import dataclass

from ..workload.trace import PathKey, SyntheticTrace

__all__ = ["QueryRecord", "JsonPathCollector"]


@dataclass(frozen=True)
class QueryRecord:
    """One collected query: the day it ran and the paths it parsed."""

    day: int
    paths: tuple[PathKey, ...]


class JsonPathCollector:
    """Date-partitioned JSONPath access statistics."""

    def __init__(self) -> None:
        self._daily_counts: dict[int, Counter] = defaultdict(Counter)
        #: day -> query shape (its path tuple, order and repeats kept)
        #: -> number of queries of that shape
        self._shapes: dict[int, Counter] = defaultdict(Counter)
        self._universe: set[PathKey] = set()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def record_query(
        self,
        day: int,
        paths: tuple[PathKey, ...] | list[PathKey],
        count: int = 1,
    ) -> None:
        """Record ``count`` executed queries touching ``paths`` on ``day``."""
        paths = tuple(paths)
        with self._lock:
            self._shapes[day][paths] += count
            daily = self._daily_counts[day]
            for key in paths:
                daily[key] += count
            self._universe.update(paths)

    def record_planned(self, day: int, referenced: list[tuple[str, str, str, str]]) -> None:
        """Record a planned query's (db, table, column, path) references."""
        self.record_query(day, tuple(PathKey(*ref) for ref in referenced))

    def ingest_trace(self, trace: SyntheticTrace, up_to_day: int | None = None) -> None:
        """Bulk-load a synthetic trace (optionally only days < up_to_day)."""
        for query in trace.queries:
            if up_to_day is not None and query.day >= up_to_day:
                continue
            self.record_query(query.day, query.paths)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def days(self) -> list[int]:
        with self._lock:
            return sorted(self._daily_counts)

    @property
    def universe(self) -> list[PathKey]:
        with self._lock:
            return sorted(self._universe)

    def count(self, key: PathKey, day: int) -> int:
        with self._lock:
            return self._daily_counts.get(day, Counter()).get(key, 0)

    def counts_on(self, day: int) -> Counter:
        with self._lock:
            return Counter(self._daily_counts.get(day, Counter()))

    def count_sequence(self, key: PathKey, days: list[int]) -> list[int]:
        """Access counts of ``key`` over the given days (paper's Count
        sequence feature)."""
        return [self.count(key, day) for day in days]

    def shapes_between(self, first_day: int, last_day: int) -> Counter:
        """Query shape -> number of queries of that shape, summed over
        first_day <= day <= last_day — what :meth:`ScoringFunction.score`
        reads."""
        with self._lock:
            out: Counter = Counter()
            for day in range(first_day, last_day + 1):
                out.update(self._shapes.get(day, ()))
            return out

    def queries_on(self, day: int) -> list[QueryRecord]:
        """One record per query of ``day``, grouped by shape."""
        return [
            QueryRecord(day=day, paths=paths)
            for paths, count in self.shapes_between(day, day).items()
            for _ in range(count)
        ]

    def queries_between(self, first_day: int, last_day: int) -> list[QueryRecord]:
        """Records with first_day <= day <= last_day."""
        with self._lock:
            out: list[QueryRecord] = []
            for day in range(first_day, last_day + 1):
                out.extend(self.queries_on(day))
            return out

    def mpjp_on(self, day: int, threshold: int = 2) -> set[PathKey]:
        """Paths parsed >= threshold times on ``day`` (the MPJP set)."""
        with self._lock:
            counts = self._daily_counts.get(day, Counter())
            return {key for key, value in counts.items() if value >= threshold}

    def mpjp_label(self, key: PathKey, day: int, threshold: int = 2) -> int:
        return int(self.count(key, day) >= threshold)

    def total_parses(self) -> Counter:
        """PathKey -> total parse count over all collected days."""
        with self._lock:
            out: Counter = Counter()
            for counts in self._daily_counts.values():
                out.update(counts)
            return out

    def duplicate_parse_fraction(self) -> float:
        """Fraction of parse traffic that is redundant (beyond the first
        parse of each path each day) — the paper's 89% headline measure."""
        with self._lock:
            total = 0
            redundant = 0
            for counts in self._daily_counts.values():
                for value in counts.values():
                    total += value
                    redundant += max(0, value - 1)
            return redundant / total if total else 0.0
