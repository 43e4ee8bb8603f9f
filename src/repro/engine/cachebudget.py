"""Unified cache byte-budget ledger.

The engine holds three in-memory cache tiers that all trade bytes for
repeated work: the **plan cache** (compiled plans), the **document
cache** (parse-once document sharing inside a query), and the **result
cache** (final result sets). Before this module each
tier sized itself independently, so their sum was unbounded even when
every individual tier was. :class:`CacheLedger` gives them one shared
budget: tiers charge and release bytes against a single account, and
the result cache admits a candidate only into the bytes the other tiers
have left.

Two kinds of tiers exist:

* **budgeted** tiers (``result``, ``plan``, ``document``) count toward
  :meth:`total` and therefore toward the budget;
* **reported** tiers (e.g. ``jsonpath``, the on-storage cache tables
  built by the midnight cycle) are tracked for observability only —
  they live on storage under the midnight selection budget, not in
  query-engine memory.
"""

from __future__ import annotations

import threading

__all__ = ["BUDGETED_TIERS", "CacheLedger"]

#: Tiers whose bytes count against the shared budget.
BUDGETED_TIERS = ("result", "plan", "document")


class CacheLedger:
    """Thread-safe byte accounting shared by every cache tier.

    ``budget`` is the total byte allowance for the budgeted tiers
    (``None`` = unlimited). Tiers either stream deltas through
    :meth:`charge`/:meth:`release` (plan and result caches, which own
    their entries) or publish absolute observations through
    :meth:`set_tier` (the per-query document cache, whose contents are
    transient).
    """

    def __init__(self, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"cache budget must be >= 0, got {budget!r}")
        self.budget = budget
        self._tiers: dict[str, int] = {}
        self._lock = threading.Lock()

    def charge(self, tier: str, nbytes: int) -> None:
        with self._lock:
            self._tiers[tier] = self._tiers.get(tier, 0) + int(nbytes)

    def release(self, tier: str, nbytes: int) -> None:
        with self._lock:
            self._tiers[tier] = max(0, self._tiers.get(tier, 0) - int(nbytes))

    def set_tier(self, tier: str, nbytes: int) -> None:
        """Publish an absolute occupancy observation for ``tier``."""
        with self._lock:
            self._tiers[tier] = max(0, int(nbytes))

    def tier_bytes(self, tier: str) -> int:
        with self._lock:
            return self._tiers.get(tier, 0)

    def total(self) -> int:
        """Bytes held by the budgeted tiers (what the budget constrains)."""
        with self._lock:
            return sum(self._tiers.get(t, 0) for t in BUDGETED_TIERS)

    def available(self) -> int | None:
        """Bytes left under the budget; ``None`` when unbudgeted."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.total())

    def over_budget(self, extra: int = 0) -> bool:
        """Would the budgeted tiers exceed the budget with ``extra`` more?"""
        if self.budget is None:
            return False
        return self.total() + extra > self.budget

    def to_dict(self) -> dict[str, object]:
        with self._lock:
            tiers = dict(self._tiers)
        total = sum(tiers.get(t, 0) for t in BUDGETED_TIERS)
        return {
            "budget_bytes": self.budget,
            "total_bytes": total,
            "tiers": tiers,
        }
