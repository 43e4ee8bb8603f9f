"""Trace replay through the server.

Replays a multi-day workload against a :class:`MaxsonServer` the way the
production trace replays against the paper's deployment: each day's
requests are submitted concurrently from many logical tenants, the
virtual clock then crosses midnight — running the predict/score/build
cycle and atomically swapping the cache generation *while the next day's
queries are already flowing* — and the whole run ends with a status
snapshot.

Two request kinds exist, mirroring the server's two ingestion routes:

* SQL requests (the Table II representative queries) execute and feed
  the collector through the planner;
* bare stats events (day, paths) replay synthetic-trace traffic through
  :meth:`MaxsonServer.ingest` without paying SQL execution, exercising
  concurrent collector writes at trace scale.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field

from ..storage.fs import FsError
from ..workload.queries import RepresentativeQuery
from .service import MaxsonServer, outcome_of
from .status import ServerStatus

__all__ = [
    "ReplayRequest",
    "ReplayReport",
    "accounted_requests",
    "build_replay_workload",
    "replay",
]


@dataclass(frozen=True)
class ReplayRequest:
    """One replayed SQL request."""

    day: int
    tenant: str
    query_id: str
    sql: str


@dataclass
class ReplayReport:
    """Outcome of one replay run."""

    requests: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    """Requests cooperatively cancelled at their deadline (not failures:
    they returned no rows at all, by construction)."""
    cancelled: int = 0
    """Requests cancelled for non-deadline reasons (e.g. drain)."""
    days: int = 0
    wall_seconds: float = 0.0
    verified: int = 0
    """Completed requests whose rows matched the fault-free baseline."""
    mismatched: int = 0
    """Completed requests whose rows did NOT match — wrong answers."""
    status: ServerStatus | None = None
    midnight_reports: list = field(default_factory=list)


def accounted_requests(report) -> int:
    """Requests of a replay that reached one of the five outcomes — the
    number of rows ``system.queries`` must then hold."""
    return (
        report.completed
        + report.failed
        + report.shed
        + report.deadline_exceeded
        + report.cancelled
    )


def build_replay_workload(
    queries: dict[str, RepresentativeQuery],
    days: int,
    per_day: int,
    tenants: int,
    seed: int = 0,
) -> list[ReplayRequest]:
    """A seeded multi-tenant schedule over the representative queries.

    Query popularity is skewed (rank-weighted) like the trace's JSONPath
    popularity, and tenants are assigned round-robin-with-jitter so each
    day mixes every tenant's traffic.
    """
    rng = random.Random(seed)
    ranked = list(queries.values())
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    out: list[ReplayRequest] = []
    for day in range(days):
        for i in range(per_day):
            query = rng.choices(ranked, weights=weights, k=1)[0]
            tenant = f"tenant-{(i + rng.randrange(tenants)) % tenants:02d}"
            out.append(
                ReplayRequest(
                    day=day, tenant=tenant, query_id=query.query_id, sql=query.sql
                )
            )
    return out


def _baseline_rows(server: MaxsonServer, sql: str) -> list[str] | None:
    """Fault-free reference rows for one query, sorted for comparison.

    Reads the same (possibly faulty) file system, so transient raw-read
    errors are retried a bounded number of times; ``None`` means no
    reference could be obtained and the request is skipped, not failed.
    """
    for _ in range(8):
        try:
            result = server.system.baseline_sql(sql)
            return sorted(map(str, result.rows))
        except FsError:
            continue
    return None


def replay(
    target,
    requests: list[ReplayRequest],
    stats_events: list[tuple[int, tuple]] | None = None,
    verify: bool = False,
    deadline_ms: float | None = None,
    baseline=None,
    report=None,
) -> ReplayReport:
    """Replay ``requests`` day by day at the target's concurrency.

    ``target`` is a :class:`MaxsonServer`, or anything with its
    ``submit`` (a future whose result has ``rows``) / ``ingest`` /
    ``advance_to`` / ``status`` and ``config.seconds_per_day`` — the
    cluster replay passes a router adapter and its own ``report`` to
    fill. All of a day's requests are in flight together; the midnight
    cycle for the next day runs from this driver thread while the *last*
    day's stragglers may still be executing — the exact interleaving the
    generation-swap protocol has to survive. ``stats_events`` are
    interleaved through ``ingest`` on the matching day.

    ``baseline`` (``sql -> sorted row strings or None``) checks every
    completed request's rows bit-for-bit — the wrong-answer detector of
    the fault-injection harness (degraded results must be row-identical,
    only slower); ``verify=True`` uses the server's own plain engine.

    ``deadline_ms`` attaches a deadline to every submitted query
    (overriding the server default). A request that raises is tallied
    under its :func:`~repro.server.service.outcome_of` — shed,
    deadline-exceeded and cancelled apart from failed: the overload
    gates care about *wrong* answers, and a cancelled query has none.
    """
    if report is None:
        report = ReplayReport()
    report.requests = len(requests)
    if verify:
        baseline = functools.partial(_baseline_rows, target)
    by_day: dict[int, list[ReplayRequest]] = {}
    for request in requests:
        by_day.setdefault(request.day, []).append(request)
    events_by_day: dict[int, list[tuple]] = {}
    for day, paths in stats_events or ():
        events_by_day.setdefault(day, []).append(paths)
    started = time.perf_counter()
    first_day, last_day = (min(by_day), max(by_day)) if by_day else (0, -1)
    for day in range(first_day, last_day + 1):
        futures = [
            (
                r,
                target.submit(
                    r.sql, tenant=r.tenant, day=r.day, deadline_ms=deadline_ms
                ),
            )
            for r in by_day.get(day, [])
        ]
        for paths in events_by_day.get(day, ()):
            target.ingest(day, paths)
        for request, future in futures:
            try:
                result = future.result()
            except Exception as exc:
                outcome = outcome_of(exc)
                setattr(report, outcome, getattr(report, outcome) + 1)
                continue
            report.completed += 1
            expected = baseline(request.sql) if baseline is not None else None
            if expected is not None:
                if sorted(map(str, result.rows)) == expected:
                    report.verified += 1
                else:
                    report.mismatched += 1
        # Cross midnight into day+1: predict/score/build/swap. Runs while
        # any stragglers of this day still hold generation leases.
        if day < last_day:
            target.advance_to((day + 1) * target.config.seconds_per_day)
    report.days = len(by_day)
    report.wall_seconds = time.perf_counter() - started
    scheduler = getattr(target, "scheduler", None)
    if scheduler is not None:  # a MaxsonServer keeps its cycles' reports
        report.midnight_reports = list(scheduler.reports)
    report.status = target.status()
    return report
