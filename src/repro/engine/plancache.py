"""Recurring-query plan cache.

The paper's trace analysis (§III) found 82% of raw-data queries recur
daily or weekly — the same SQL text arriving again and again. Planning
is cheap relative to scanning, but it is pure overhead on every
recurrence, and under Maxson it repeats cache-registry lookups and plan
rewrites too. This module caches the finished
:class:`~repro.engine.planner.PlannedQuery` (post plan-modifier, post
morsel rewrite) keyed by:

* the **statement template** — the result cache's canonical text, the
  type names of its parameters and its output names
  (:class:`~repro.engine.resultcache.CanonicalStatement`), so re-spaced,
  re-cased and reordered spellings of a statement share one plan, and so
  do statements that differ only in a literal or a ``LIMIT`` of the same
  type, while a changed output alias does not (the plan produces the
  aliases as its column names); a statement that does not canonicalise
  is keyed on its exact text. The session's canonicalisation memo parses
  the statement once and hands that parse to the planner on a miss;
* the **catalog version** — a monotonic counter bumped by every DDL and
  data append, so schema changes *and* cache-generation swaps (which
  create/drop generation tables) invalidate stale plans;
* one **token per registered plan modifier** — Maxson's modifier derives
  its token from the identity of the live cache registry and the
  circuit-breaker epoch, so registry swaps and quarantine transitions
  re-plan even if the catalog were untouched.

A hit with other parameters than the plan was built with gets the plan
**bound** to them (:func:`~repro.engine.physical.bind_plan`) and compiled;
that variant is kept in the same LRU under ``key + (params,)``, so a
recurring variant binds and compiles once while a one-shot one ages out.

Entries are LRU-evicted beyond ``capacity`` and, when the session runs
under a unified :class:`~repro.engine.cachebudget.CacheLedger`, beyond
the shared byte budget too. Lookups and stores are lock-guarded (the
server shares one session across request threads).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from .cachebudget import CacheLedger
from .metrics import QueryMetrics
from .physical import bind_plan, compile_plan
from .planner import PlannedQuery

__all__ = ["CachedPlan", "PlanCache"]


@dataclass
class CachedPlan:
    """A reusable plan (with its compiled expression program) plus the
    plan-time metric effects to replay.

    Plan modifiers count plan-time events (Maxson's registry misses land
    in ``cache_misses`` during ``modify``); replaying the snapshot on a
    hit keeps a cached query's metrics identical to a re-planned one.
    """

    planned: PlannedQuery
    planned_metrics: QueryMetrics
    #: The parameters the plan was built with (``None``: never bound).
    params: tuple | None = None

    def bound(self, params: tuple | None) -> "CachedPlan | None":
        """This entry for a statement with ``params``: itself for its own,
        else its plan bound to them and compiled (the logical plan stays
        the template's: nothing reads it once planned), or ``None`` when it
        cannot be."""
        if params == self.params:
            return self
        physical = bind_plan(self.planned.physical, params)
        if physical is None:
            return None
        program = compile_plan(physical, self.planned.program)
        planned = replace(self.planned, physical=physical, program=program)
        return replace(self, planned=planned, params=params)


#: Flat per-entry overhead estimate for a cached plan: operator objects,
#: its compiled expression program and the metrics snapshot (a bound
#: variant shares its template's untouched operators but has its own
#: program). Plans are small and roughly uniform, so a constant plus the
#: key text's length is enough for ledger purposes — the point is that
#: many cached plans show up as real bytes against the shared budget,
#: not byte-exact accounting.
_PLAN_ENTRY_OVERHEAD = 4096


def _plan_entry_bytes(key: tuple) -> int:
    return _PLAN_ENTRY_OVERHEAD + len(key[0])  # a template's or a statement's text


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

    def get(self, key: tuple, params: tuple | None = None) -> CachedPlan | None:
        """The entry for ``key`` bound to ``params`` (a plan that cannot be
        bound to them counts as a miss). A variant is bound once and kept
        under ``key + (params,)``, without evicting its template."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or params == entry.params:
                variant_key = None
            else:
                variant_key = key + (params,)
                variant = self._entries.get(variant_key)
                entry = entry.bound(params) if variant is None else variant
            if entry is None:
                self.misses += 1
                return None
            # Refresh recency (dicts iterate oldest-first): the template
            # first, so a variant's store never evicts it.
            self._entries[key] = self._entries.pop(key)
            if variant_key is not None:
                self._put_locked(variant_key, entry, keep=key)
            self.hits += 1
            return entry

    def peek(self, key: tuple, params: tuple | None = None) -> CachedPlan | None:
        """:meth:`get` without counters, recency or stores (the flight
        recorder reads a plan without skewing hit statistics or eviction
        order)."""
        with self._lock:
            entry = self._entries.get(key)
            variant = self._entries.get(key + (params,))
        if variant is not None:
            return variant
        return None if entry is None else entry.bound(params)

    def put(self, key: tuple, entry: CachedPlan) -> None:
        with self._lock:
            self._put_locked(key, entry)

    def _put_locked(self, key: tuple, entry: CachedPlan, keep=None) -> None:
        """Store (or refresh) ``key``, evicting LRU entries other than
        ``keep`` to make room."""
        if key in self._entries:
            self._entries.pop(key)
            self._entries[key] = entry
            return
        cost = _plan_entry_bytes(key)

        def full() -> bool:
            return len(self._entries) >= self.capacity or (
                self.ledger is not None and self.ledger.over_budget(cost)
            )

        while full():
            # The oldest entry but ``keep``: a walk that stops at the front.
            victim = next((k for k in self._entries if k != keep), None)
            if victim is None:
                break
            self._evict_locked(victim)
            self.evictions += 1
        if full():
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
