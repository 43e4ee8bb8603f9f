"""Cache-efficacy accounting: did the predictor earn its cache bytes?

The paper's loop is predictive: at midnight the predictor proposes
tomorrow's MPJPs (paths that will be parsed more than once), the scorer
selects within budget, and the cacher materialises them. This module
closes that loop with *realized* outcomes. While a generation serves, the
collector keeps counting actual parses; when the generation retires (the
next midnight), the accountant compares

* the **predicted** MPJP set (what the predictor proposed),
* the **cached** set (what survived scoring + budget), and
* the **realized** MPJP set (paths actually parsed ≥ threshold times
  during the generation's serving days)

into per-generation precision / recall / F1 of the prediction, plus hit
ratios of the *cached* set against realized demand weighted two ways:
by access count (how many duplicate parses the cache could intercept)
and by estimated bytes (how much parse *work*, the paper's real
currency). Records are bounded (``max_records``) and surfaced through
``ServerStatus``, the Prometheus exposition and the Markdown report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..workload.trace import MPJP_THRESHOLD

__all__ = ["GenerationEfficacy", "EfficacyAccountant"]


@dataclass(frozen=True)
class GenerationEfficacy:
    """Realized prediction quality for one retired cache generation."""

    generation: int
    predicted_for_day: int
    served_days: tuple[int, ...]
    predicted_paths: int
    cached_paths: int
    realized_paths: int
    true_positives: int
    precision: float
    recall: float
    f1: float
    cached_realized: int
    count_weighted_hit_ratio: float
    byte_weighted_hit_ratio: float

    def to_dict(self) -> dict[str, object]:
        out = dict(self.__dict__)
        out["served_days"] = list(self.served_days)
        return out


@dataclass
class _PendingGeneration:
    generation: int
    day: int
    predicted: frozenset
    cached: frozenset
    served_days: list[int] = field(default_factory=list)


def _safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class EfficacyAccountant:
    """Tracks the open generation and scores each one at retirement.

    Thread-safe: the midnight cycle opens/closes generations from the
    maintenance thread while status snapshots read records from query
    threads. ``byte_weights`` is an optional ``keys -> {key: int}``
    estimating per-path parse bytes (the system wires the scorer's
    per-table sampler in); it is consulted only at close time, once with
    every realized path. A path it leaves out weighs zero, and so does
    every path if it raises — neither fails the cycle.
    """

    def __init__(self, byte_weights=None, max_records: int = 64) -> None:
        self.byte_weights = byte_weights
        self.max_records = max_records
        self.records: list[GenerationEfficacy] = []
        self._pending: _PendingGeneration | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def open_generation(
        self, generation: int, day: int, predicted, cached
    ) -> None:
        """Start accounting for a generation that begins serving ``day``."""
        with self._lock:
            self._pending = _PendingGeneration(
                generation=generation,
                day=day,
                predicted=frozenset(predicted),
                cached=frozenset(cached),
            )

    def close_pending(
        self, collector, up_to_day: int, threshold: int = MPJP_THRESHOLD
    ) -> GenerationEfficacy | None:
        """Score the open generation against days ``[day, up_to_day)``.

        Called at the next midnight, right before the swap that retires
        the generation. Returns the record (also appended to
        :attr:`records`), or ``None`` when nothing was open or the
        generation never served a complete day.
        """
        with self._lock:
            pending = self._pending
            self._pending = None
        if pending is None:
            return None
        served_days = [day for day in range(pending.day, up_to_day)]
        if not served_days:
            return None
        realized: set = set()
        counts: dict = {}
        for day in served_days:
            day_counts = collector.counts_on(day)
            for key, count in day_counts.items():
                counts[key] = counts.get(key, 0) + count
                if count >= threshold:
                    realized.add(key)
        true_positives = len(pending.predicted & realized)
        precision = _safe_ratio(true_positives, len(pending.predicted))
        recall = _safe_ratio(true_positives, len(realized))
        f1 = _safe_ratio(2 * precision * recall, precision + recall)
        cached_realized = len(pending.cached & realized)
        count_total = sum(counts.get(key, 0) for key in realized)
        count_hit = sum(
            counts.get(key, 0) for key in realized & pending.cached
        )
        byte_total = 0.0
        byte_hit = 0.0
        if self.byte_weights is not None:
            try:
                weights = self.byte_weights(realized)
            except Exception:
                weights = {}
            for key, weight in weights.items():
                weight = float(weight or 0)
                byte_total += weight
                if key in pending.cached:
                    byte_hit += weight
        record = GenerationEfficacy(
            generation=pending.generation,
            predicted_for_day=pending.day,
            served_days=tuple(served_days),
            predicted_paths=len(pending.predicted),
            cached_paths=len(pending.cached),
            realized_paths=len(realized),
            true_positives=true_positives,
            precision=precision,
            recall=recall,
            f1=f1,
            cached_realized=cached_realized,
            count_weighted_hit_ratio=_safe_ratio(count_hit, count_total),
            byte_weighted_hit_ratio=_safe_ratio(byte_hit, byte_total),
        )
        with self._lock:
            self.records.append(record)
            if len(self.records) > self.max_records:
                del self.records[: -self.max_records]
        return record

    # ------------------------------------------------------------------
    def latest(self) -> GenerationEfficacy | None:
        with self._lock:
            return self.records[-1] if self.records else None

    def snapshot(self, limit: int = 8) -> list[dict[str, object]]:
        """The most recent ``limit`` per-generation records, oldest
        first — the ``ServerStatus.cache_efficacy`` payload."""
        with self._lock:
            return [record.to_dict() for record in self.records[-limit:]]

    def summary(self) -> dict[str, float]:
        """Averages over every retained record (0.0 when empty)."""
        with self._lock:
            records = list(self.records)
        if not records:
            return {
                "generations_scored": 0,
                "mean_precision": 0.0,
                "mean_recall": 0.0,
                "mean_byte_weighted_hit_ratio": 0.0,
            }
        n = len(records)
        return {
            "generations_scored": n,
            "mean_precision": sum(r.precision for r in records) / n,
            "mean_recall": sum(r.recall for r in records) / n,
            "mean_byte_weighted_hit_ratio": (
                sum(r.byte_weighted_hit_ratio for r in records) / n
            ),
        }
