"""Recurring-query plan cache.

The paper's trace analysis (§III) found 82% of raw-data queries recur
daily or weekly — the same SQL text arriving again and again. Planning
is cheap relative to scanning, but it is pure overhead on every
recurrence, and under Maxson it repeats cache-registry lookups and plan
rewrites too. This module caches the finished
:class:`~repro.engine.planner.PlannedQuery` (post plan-modifier, post
morsel rewrite, with its compiled batch closures) keyed by:

* a **normalized SQL fingerprint** — whitespace collapsed and keywords
  and identifiers case-folded outside single-quoted strings (SparkSQL
  resolves identifiers case-insensitively, and the paper's recurring
  queries arrive with arbitrary keyword casing); text inside ``'...'``
  is data and is left byte-exact;
* the **catalog version** — a monotonic counter bumped by every DDL and
  data append, so schema changes *and* cache-generation swaps (which
  create/drop generation tables) invalidate stale plans;
* one **token per registered plan modifier** — Maxson's modifier derives
  its token from the identity of the live cache registry and the
  circuit-breaker epoch, so registry swaps and quarantine transitions
  re-plan even if the catalog were untouched.

Entries are LRU-evicted beyond ``capacity`` and, when the session runs
under a unified :class:`~repro.engine.cachebudget.CacheLedger`, beyond
the shared byte budget too. Lookups and stores are lock-guarded (the
server shares one session across request threads).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass

from .cachebudget import CacheLedger
from .metrics import QueryMetrics
from .planner import PlannedQuery

__all__ = ["CachedPlan", "PlanCache", "fingerprint", "split_quoted"]

_QUOTED = re.compile(r"'(?:[^']|'')*'")
_WS = re.compile(r"\s+")


def split_quoted(sql: str):
    """Tokenize ``sql`` into ``(is_literal, text)`` segments.

    Splits on single-quoted string literals (``''`` escapes included),
    so callers can normalize code without touching data. Shared by
    :func:`fingerprint` and the result-cache canonicalizer
    (:mod:`repro.engine.resultcache`).
    """
    last = 0
    for match in _QUOTED.finditer(sql):
        if match.start() > last:
            yield False, sql[last : match.start()]
        yield True, match.group(0)
        last = match.end()
    if last < len(sql):
        yield False, sql[last:]


def fingerprint(sql: str) -> str:
    """Normalized fingerprint of a SQL text.

    Outside quoted string literals, collapses runs of whitespace to
    single spaces and folds keywords and identifiers to lower case
    (SparkSQL resolves identifiers case-insensitively — see the
    planner's identifier resolution pass — and keyword casing never
    changes a query's meaning). Text inside ``'...'`` is data and stays
    byte-exact. Reformatted or recased recurrences of the same query
    therefore share one plan.
    """
    pieces: list[str] = []
    for is_literal, segment in split_quoted(sql):
        if is_literal:
            pieces.append(segment)
        else:
            pieces.append(_WS.sub(" ", segment).lower())
    return "".join(pieces).strip()


@dataclass
class CachedPlan:
    """A reusable plan plus the plan-time metric effects to replay.

    Plan modifiers count plan-time events (Maxson's registry misses land
    in ``cache_misses`` during ``modify``); replaying the snapshot on a
    hit keeps a cached query's metrics identical to a re-planned one.
    """

    planned: PlannedQuery
    planned_metrics: QueryMetrics


#: Flat per-entry overhead estimate for a cached plan: operator objects,
#: compiled batch closures and the metrics snapshot. Plans are small and
#: roughly uniform, so a constant plus the fingerprint length is enough
#: for ledger purposes — the point is that many cached plans show up as
#: real bytes against the shared budget, not byte-exact accounting.
_PLAN_ENTRY_OVERHEAD = 4096


def _plan_entry_bytes(key: tuple) -> int:
    text = key[0] if key and isinstance(key[0], str) else ""
    return _PLAN_ENTRY_OVERHEAD + len(text)


class PlanCache:
    """Thread-safe LRU cache of :class:`CachedPlan` entries.

    When constructed with a :class:`CacheLedger`, every entry charges an
    estimated byte cost to the ``plan`` tier, and stores additionally
    evict LRU entries while the ledger is over its shared budget — the
    plan cache yields its own bytes rather than push the unified total
    over the limit.
    """

    def __init__(self, capacity: int, ledger: CacheLedger | None = None) -> None:
        self.capacity = capacity
        self.ledger = ledger
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: dict[tuple, CachedPlan] = {}
        self._charges: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def _evict_locked(self, key: tuple) -> None:
        self._entries.pop(key)
        if self.ledger is not None:
            self.ledger.release("plan", self._charges.pop(key, 0))
        else:
            self._charges.pop(key, None)

    def get(self, key: tuple) -> CachedPlan | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            # Refresh recency: dicts iterate oldest-first.
            self._entries[key] = self._entries.pop(key)
            self.hits += 1
            return entry

    def peek(self, key: tuple) -> CachedPlan | None:
        """Counter-free, recency-free look-up (the flight recorder reads
        a plan without skewing hit statistics or eviction order)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple, entry: CachedPlan) -> None:
        with self._lock:
            if key in self._entries:
                self._entries[key] = entry
                return
            cost = _plan_entry_bytes(key)
            while self._entries and (
                len(self._entries) >= self.capacity
                or (self.ledger is not None and self.ledger.over_budget(cost))
            ):
                self._evict_locked(next(iter(self._entries)))
                self.evictions += 1
            if self.capacity <= 0:
                return
            if self.ledger is not None and self.ledger.over_budget(cost):
                # Other tiers already fill the budget: skip the store.
                return
            self._entries[key] = entry
            self._charges[key] = cost
            if self.ledger is not None:
                self.ledger.charge("plan", cost)

    def shrink_to_bytes(self, target_bytes: int) -> int:
        """Evict LRU entries until the plan tier fits ``target_bytes``.

        Returns bytes released. Called by the server's memory-pressure
        watchdog after the result tier has been shrunk.
        """
        released = 0
        with self._lock:
            used = sum(self._charges.values())
            while self._entries and used > target_bytes:
                key = next(iter(self._entries))
                charge = self._charges.get(key, 0)
                self._evict_locked(key)
                self.evictions += 1
                used -= charge
                released += charge
        return released

    def clear(self) -> None:
        """Drop every entry (explicit invalidation, e.g. a generation
        swap or a plan-modifier change)."""
        with self._lock:
            self.invalidations += len(self._entries)
            if self.ledger is not None:
                self.ledger.release("plan", sum(self._charges.values()))
            self._entries.clear()
            self._charges.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def bytes_used(self) -> int:
        with self._lock:
            return sum(self._charges.values())

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
