"""Query cost accounting.

The paper's evaluation reports query time split into **Read**, **Parse**
and **Compute** (Fig 3, Fig 12a/12c) plus the **input size** actually read
(Fig 12b/12d). :class:`QueryMetrics` collects exactly those series:

* *read* — wall time and bytes spent in the file system + ORC decoding;
* *parse* — wall time, bytes and document counts spent inside JSON
  parsers (accumulated via :class:`~repro.jsonlib.jackson.ParseStats`);
* *compute* — everything else (derived: total − read − parse).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QueryMetrics"]


@dataclass
class QueryMetrics:
    """Counters for one query execution."""

    total_seconds: float = 0.0
    plan_seconds: float = 0.0
    read_seconds: float = 0.0
    parse_seconds: float = 0.0
    bytes_read: int = 0
    rows_scanned: int = 0
    rows_output: int = 0
    row_groups_total: int = 0
    row_groups_skipped: int = 0
    #: Row groups read whose statistics prove a reader's whole SARG (ORC's
    #: YES; ``row_groups_skipped`` counts the NO groups).
    row_groups_proven: int = 0
    parse_documents: int = 0
    parse_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Extraction evaluations skipped because an identical call compiled
    #: to the same node (batch-path common-subexpression elimination).
    duplicate_extractions_eliminated: int = 0
    #: Document parses avoided by parse-once sharing (batch path): calls
    #: served from the per-context document cache instead of re-parsing.
    shared_parse_hits: int = 0
    #: Documents evicted from the budgeted per-context document caches
    #: (entry-count or byte-budget pressure). Non-zero means sharing lost
    #: some reuse to memory bounds.
    doc_cache_evictions: int = 0
    extra: dict[str, int | float] = field(default_factory=dict)

    @property
    def compute_seconds(self) -> float:
        """Everything that is neither read nor parse, floored at zero."""
        return max(0.0, self.total_seconds - self.read_seconds - self.parse_seconds)

    @property
    def parse_fraction(self) -> float:
        """Share of total time spent parsing (the paper's ≥80% headline)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.parse_seconds / self.total_seconds

    def breakdown(self) -> dict[str, float]:
        """The three-way split the paper plots."""
        return {
            "read": self.read_seconds,
            "parse": self.parse_seconds,
            "compute": self.compute_seconds,
        }

    @property
    def cache_hit_ratio(self) -> float:
        """Cache hits over all cache-eligible extraction calls."""
        total = self.cache_hits + self.cache_misses
        if total <= 0:
            return 0.0
        return self.cache_hits / total

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable snapshot of every counter plus the derived
        rates — the payload of the server's status endpoint."""
        return {
            "total_seconds": self.total_seconds,
            "plan_seconds": self.plan_seconds,
            "read_seconds": self.read_seconds,
            "parse_seconds": self.parse_seconds,
            "compute_seconds": self.compute_seconds,
            "parse_fraction": self.parse_fraction,
            "bytes_read": self.bytes_read,
            "rows_scanned": self.rows_scanned,
            "rows_output": self.rows_output,
            "row_groups_total": self.row_groups_total,
            "row_groups_skipped": self.row_groups_skipped,
            "row_groups_proven": self.row_groups_proven,
            "parse_documents": self.parse_documents,
            "parse_bytes": self.parse_bytes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": self.cache_hit_ratio,
            "duplicate_extractions_eliminated": (
                self.duplicate_extractions_eliminated
            ),
            "shared_parse_hits": self.shared_parse_hits,
            "doc_cache_evictions": self.doc_cache_evictions,
            "extra": dict(self.extra),
        }

    def snapshot(self) -> "QueryMetrics":
        """An independent copy (accumulators keep mutating the original)."""
        copy = QueryMetrics()
        copy.merge(self)
        return copy

    def merge(self, other: "QueryMetrics") -> None:
        """Accumulate another query's counters into this one."""
        self.total_seconds += other.total_seconds
        self.plan_seconds += other.plan_seconds
        self.read_seconds += other.read_seconds
        self.parse_seconds += other.parse_seconds
        self.bytes_read += other.bytes_read
        self.rows_scanned += other.rows_scanned
        self.rows_output += other.rows_output
        self.row_groups_total += other.row_groups_total
        self.row_groups_skipped += other.row_groups_skipped
        self.row_groups_proven += other.row_groups_proven
        self.parse_documents += other.parse_documents
        self.parse_bytes += other.parse_bytes
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.duplicate_extractions_eliminated += (
            other.duplicate_extractions_eliminated
        )
        self.shared_parse_hits += other.shared_parse_hits
        self.doc_cache_evictions += other.doc_cache_evictions
        for key, value in other.extra.items():
            # Default to int 0, not float 0.0: merging (and therefore
            # snapshot round-trips) must not silently coerce integer
            # counters stored in ``extra`` into floats.
            self.extra[key] = self.extra.get(key, 0) + value
