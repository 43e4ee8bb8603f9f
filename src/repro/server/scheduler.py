"""Maintenance scheduling on a virtual clock.

Production Maxson runs its cycle at literal midnight; the reproduction
compresses time. :class:`VirtualClock` counts seconds since day 0 and
:class:`MaintenanceScheduler` fires the background maintenance a live
deployment needs as the clock advances:

* one **midnight cycle** per crossed day boundary (predict → score →
  select → build next cache generation → atomic swap);
* an **incremental refresh** every ``refresh_interval_seconds`` of
  virtual time, appending cache files for raw partitions that landed
  after the generation was built (and repairing invalidated tables).

The scheduler is driven, not threaded: the replay driver (or an
embedding application's timer) calls :meth:`advance_to`. That keeps
every run deterministic while exercising exactly the concurrent
query-vs-maintenance interleavings the server must survive, because the
caller advancing the clock runs the cycles *while query threads are in
flight*.
"""

from __future__ import annotations

import threading

__all__ = ["SECONDS_PER_DAY", "VirtualClock", "MaintenanceScheduler"]

#: Length of one virtual day on a served system's maintenance clock.
SECONDS_PER_DAY = 86400.0


class VirtualClock:
    """Monotonic virtual seconds, partitioned into days."""

    def __init__(
        self, seconds_per_day: float = SECONDS_PER_DAY, start_day: int = 0
    ) -> None:
        if seconds_per_day <= 0:
            raise ValueError("seconds_per_day must be positive")
        self.seconds_per_day = seconds_per_day
        self._seconds = start_day * seconds_per_day
        self._lock = threading.Lock()

    @property
    def seconds(self) -> float:
        with self._lock:
            return self._seconds

    @property
    def day(self) -> int:
        return int(self.seconds // self.seconds_per_day)

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time."""
        if seconds < 0:
            raise ValueError("the clock only moves forward")
        with self._lock:
            self._seconds += seconds
            return self._seconds

    def advance_to(self, seconds: float) -> float:
        """Move the clock to an absolute time (never backwards)."""
        with self._lock:
            self._seconds = max(self._seconds, seconds)
            return self._seconds


class MaintenanceScheduler:
    """Fires midnight cycles and cache refreshes as virtual time passes."""

    def __init__(
        self,
        server,
        clock: VirtualClock | None = None,
        refresh_interval_seconds: float = 0.0,
    ) -> None:
        self.server = server
        self.clock = clock or VirtualClock()
        self.refresh_interval_seconds = refresh_interval_seconds
        self._lock = threading.Lock()
        self._last_cycle_day = self.clock.day
        self._last_refresh_seconds = self.clock.seconds
        self.reports: list = []
        self.refreshes = 0
        self.failed_cycles = 0
        self.failed_refreshes = 0

    # ------------------------------------------------------------------
    def advance_to(self, seconds: float) -> list[str]:
        """Advance the clock and run any maintenance that came due.

        Returns labels of the actions performed (for logs/tests). Runs
        in the caller's thread, concurrently with query workers — the
        interleaving the generation swap protocol exists for.
        """
        self.clock.advance_to(seconds)
        actions: list[str] = []
        with self._lock:  # maintenance itself is serialised
            day = self.clock.day
            while self._last_cycle_day < day:
                target = self._last_cycle_day + 1
                try:
                    report = self.server.run_midnight_cycle(day=target)
                    self.reports.append(report)
                    actions.append(f"midnight:{target}")
                except Exception:
                    # A cycle that died before reaching the protected
                    # build (e.g. a transient fault while scoring) must
                    # not kill the caller driving the clock — the old
                    # generation keeps serving and the next midnight
                    # tries again. (A simulated process crash is a
                    # BaseException and still propagates.)
                    self.failed_cycles += 1
                    self.server.system.resilience.add("build_failures")
                    actions.append(f"midnight_failed:{target}")
                self._last_cycle_day = target
            if self.refresh_interval_seconds > 0:
                now = self.clock.seconds
                if (
                    now - self._last_refresh_seconds
                    >= self.refresh_interval_seconds
                ):
                    try:
                        self.server.refresh_cache()
                        actions.append("refresh")
                        self.refreshes += 1
                    except Exception:
                        self.failed_refreshes += 1
                        self.server.system.resilience.add("build_failures")
                        actions.append("refresh_failed")
                    self._last_refresh_seconds = now
        return actions

    def advance_days(self, days: int = 1) -> list[str]:
        """Convenience: cross ``days`` midnight boundaries."""
        target = (self.clock.day + days) * self.clock.seconds_per_day
        return self.advance_to(target)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "virtual_day": self.clock.day,
                "virtual_seconds": self.clock.seconds,
                "midnight_cycles": len(self.reports),
                "refreshes": self.refreshes,
                "failed_cycles": self.failed_cycles,
                "failed_refreshes": self.failed_refreshes,
            }
