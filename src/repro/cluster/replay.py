"""Trace replay through the cluster router.

The cluster twin of :mod:`repro.server.replay`, and the same driver: the
day loop (all of a day's requests in flight together, midnight broadcast
to every shard before the next day starts), the outcome tallies and the
verify step run over an adapter that submits through a
:class:`~repro.cluster.router.ClusterRouter`, so each request is
consistent-hash routed to its shard and executes under that shard's own
admission/deadline/breaker budgets.

The report mirrors :class:`~repro.server.replay.ReplayReport` field for
field — the differential suite compares the two shapes directly — and
adds the cluster-only tallies: per-shard completion counts, shard-crash
failures, and the coordinator metadata-cache hit rate over the replayed
(post-warmup) window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from ..server.replay import ReplayRequest, build_replay_workload, replay
from .router import ClusterRouter, ShardCrashError

__all__ = ["ClusterReplayReport", "replay_cluster", "build_replay_workload"]


@dataclass
class ClusterReplayReport:
    """Outcome of one cluster replay run."""

    requests: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    cancelled: int = 0
    crash_failed: int = 0
    """Requests lost to a shard crash window (respawn covers the rest)."""
    days: int = 0
    wall_seconds: float = 0.0
    verified: int = 0
    mismatched: int = 0
    shards: int = 0
    per_shard_completed: dict[int, int] = field(default_factory=dict)
    metadata_cache: dict = field(default_factory=dict)
    """Coordinator cache snapshot over the replay window (stats are reset
    at replay start, so ``hit_rate`` here is the post-warmup figure the
    bench gate checks)."""
    status: dict | None = None


class _RouterTarget:
    """A :class:`ClusterRouter` as :func:`repro.server.replay.replay` drives
    it: replies become objects with ``rows``, and the cluster-only tallies
    go into ``report`` as each reply is read."""

    def __init__(self, router: ClusterRouter, report: ClusterReplayReport) -> None:
        self.router = router
        self.report = report
        self.ingest = router.ingest
        self.advance_to = router.advance_to
        self.status = router.status

    def submit(self, sql: str, **request):
        future = self.router.submit(sql, **request)
        return SimpleNamespace(result=lambda: self._reply(future))

    def _reply(self, future):
        try:
            response = future.result()
        except ShardCrashError:
            self.report.crash_failed += 1
            raise
        tally = self.report.per_shard_completed
        tally[response["shard"]] = tally.get(response["shard"], 0) + 1
        return SimpleNamespace(rows=response["rows"])


def replay_cluster(
    router: ClusterRouter,
    requests: list[ReplayRequest],
    stats_events: list[tuple[int, tuple]] | None = None,
    deadline_ms: float | None = None,
    baseline=None,
    reset_cache_stats: bool = True,
) -> ClusterReplayReport:
    """Replay ``requests`` day by day through the router.

    ``baseline`` (optional) is a callable ``sql -> sorted row strings or
    None`` — typically the single-server twin's fault-free engine — used
    to verify every completed request's rows bit-for-bit; the
    differential suite passes it to prove the cluster answers exactly
    what one server would.

    ``reset_cache_stats`` zeroes the metadata-cache hit/miss counters
    before the first request so the reported ``hit_rate`` covers only
    this replay (warm entries from router startup are kept — that *is*
    the warmup).
    """
    report = ClusterReplayReport(shards=len(router.ring))
    if reset_cache_stats:
        router.metacache.reset_stats()
    replay(
        _RouterTarget(router, report),
        requests,
        stats_events,
        deadline_ms=deadline_ms,
        baseline=baseline,
        report=report,
    )
    # The driver files a shard crash under "failed" (it is no shed,
    # deadline or cancellation); this report keeps the two apart.
    report.failed -= report.crash_failed
    report.metadata_cache = router.metacache.snapshot()
    return report
