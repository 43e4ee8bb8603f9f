"""The cluster front end: consistent-hash routing over shard processes.

:class:`ClusterRouter` is what ``replay-serve --shards N`` (and any
embedding client) talks to instead of a single
:class:`~repro.server.MaxsonServer`:

* it **spawns and supervises** N shard processes (each a full
  ``MaxsonServer`` — see :mod:`repro.cluster.shard`), restarting a
  crashed shard in place: the ring is a pure function of the shard-id
  set, so a respawn moves zero keys and only the crash window's
  in-flight queries on that shard fail (:class:`ShardCrashError`);
* it **routes** every query by consistent hash of ``(tenant, database,
  table)`` (:mod:`repro.cluster.hashing`) — one RPC per query, no
  schema round trips on the hot path thanks to the coordinator
  **metadata cache** (:mod:`repro.cluster.metacache`), which holds
  table schemas and is kept current by the version vectors shards
  piggyback on every response;
* it forwards **deadlines** down and typed **shed errors** back
  *unchanged* — a ``QueryShedError``'s ``retry_after_seconds`` and
  reason reach the client exactly as the shard raised them, so backoff
  behaviour is identical to single-process mode;
* it **aggregates** ``status()`` and the Prometheus exposition across
  shards (every sample gains a ``shard`` label; counters sum, latency
  percentiles report the worst shard) and sums the ``system.queries``
  audit across shards;
* at startup it runs :func:`~repro.engine.procpool.reap_orphan_segments`
  so shared-memory segments abandoned by dead shard pids of a previous
  run are unlinked before new shards spawn.
"""

from __future__ import annotations

import re
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

from ..engine.procpool import reap_orphan_segments
from ..server.admission import AdmissionError
from ..server.status import percentile
from .hashing import HashRing, route_key
from .metacache import MetadataCache
from .rpc import RpcConnection, ShardConnectionError, recv_frame
from .shard import ShardSpec, shard_main

__all__ = ["ShardCrashError", "ClusterRouter", "aggregate_expositions"]

_FROM_TABLE = re.compile(
    r"\bFROM\s+([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)",
    re.IGNORECASE,
)

#: Ops the supervisor retries against a *respawned* shard are read-only;
#: queries are never replayed automatically (the client owns retry).
_HELLO_TIMEOUT = 120.0
#: Seconds ``shutdown`` gives a shard to answer the shutdown RPC, and then
#: to exit on its own, before it is sent SIGTERM.
_SHUTDOWN_GRACE = 10.0
#: Seconds a shard gets to die of SIGTERM before SIGKILL (and of SIGKILL
#: before ``shutdown`` stops waiting for it).
_KILL_GRACE = 5.0


def _stop_process(process) -> None:
    """Wait for a shard that was asked to shut down, escalating until it
    is gone and reaped: its own exit, then SIGTERM, then SIGKILL (which a
    stopped or SIGTERM-ignoring process cannot outlive)."""
    process.join(timeout=_SHUTDOWN_GRACE)
    if process.is_alive():
        process.terminate()
        process.join(timeout=_KILL_GRACE)
    if process.is_alive():
        process.kill()
        process.join(timeout=_KILL_GRACE)


class ShardCrashError(RuntimeError):
    """The routed shard died while this request was in flight. The shard
    is respawned (when supervision is on); only this crash window's
    requests fail."""

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class _Shard:
    """Supervisor-side handle: process + connection + identity."""

    def __init__(self, shard_id: int, process, conn: RpcConnection, pid: int):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.pid = pid
        self.generation = 0  # respawn count, not cache generation


class ClusterRouter:
    """Router process object: ring + supervisor + metadata cache."""

    def __init__(
        self,
        shards: int,
        spec: ShardSpec | None = None,
        ring_replicas: int = 64,
        respawn: bool = True,
        default_tenant: str = "default",
        client_pool_workers: int | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.spec = spec or ShardSpec()
        self.respawn = respawn
        self.default_tenant = default_tenant
        #: SHM segments of dead pids (a previous router's shards) reaped
        #: before any new shard spawns — same recovery contract as the
        #: single server's startup.
        self.reaped_shm_segments = reap_orphan_segments()
        self.ring = HashRing(range(shards), replicas=ring_replicas)
        self.metacache = MetadataCache()
        self._ctx = get_context("spawn")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(max(8, shards))
        self._host, self._port = self._listener.getsockname()
        self._lock = threading.Lock()
        self._shards: dict[int, _Shard] = {}
        self._closed = False
        self._started = time.perf_counter()
        # router-level accounting (guarded by self._lock)
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._crash_failed = 0
        self._respawns = 0
        self._per_shard_completed: dict[int, int] = {}
        self._latencies: list[float] = []
        for shard_id in range(shards):
            self._spawn(shard_id)
        self._pool = ThreadPoolExecutor(
            max_workers=client_pool_workers
            or max(4, shards * int(dict(self.spec.server).get("max_workers", 8))),
            thread_name_prefix="router",
        )

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _spawn(self, shard_id: int) -> _Shard:
        spec = replace(self.spec, shard_id=shard_id)
        process = self._ctx.Process(
            target=shard_main,
            args=(spec.to_dict(), self._host, self._port),
            daemon=True,
            name=f"maxson-shard-{shard_id}",
        )
        process.start()
        conn, pid = self._accept_hello(shard_id)
        shard = _Shard(shard_id, process, conn, pid)
        with self._lock:
            previous = self._shards.get(shard_id)
            if previous is not None:
                shard.generation = previous.generation + 1
            self._shards[shard_id] = shard
        return shard

    def _accept_hello(self, shard_id: int) -> tuple[RpcConnection, int]:
        """Accept connections until the expected shard dials in (shards
        booting concurrently may arrive out of order — each is matched
        to its supervisor slot by the id in its hello frame)."""
        deadline = time.monotonic() + _HELLO_TIMEOUT
        while True:
            self._listener.settimeout(max(0.1, deadline - time.monotonic()))
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                raise TimeoutError(
                    f"shard {shard_id} did not dial back within "
                    f"{_HELLO_TIMEOUT:.0f}s"
                ) from None
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            hello = recv_frame(sock)
            connected_id = int(hello.get("hello", -1))
            pid = int(hello.get("pid", 0))
            conn = RpcConnection(sock)
            observer = self.metacache
            conn.version_observer = (
                lambda v, s=connected_id: observer.observe_version(s, v)
            )
            if "v" in hello:
                observer.observe_version(connected_id, hello["v"])
            if connected_id == shard_id:
                return conn, pid
            # A different shard finished booting first: park it.
            with self._lock:
                self._shards[connected_id] = _Shard(
                    connected_id, None, conn, pid
                )

    def _shard_for(self, shard_id: int) -> _Shard:
        with self._lock:
            shard = self._shards.get(shard_id)
        if shard is None or shard.conn.closed:
            shard = self._revive(shard_id)
        return shard

    def _revive(self, shard_id: int) -> _Shard:
        """Serialize crash recovery: first caller respawns, the rest
        wait on the spawn happening under the router lock's shadow."""
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is not None and not shard.conn.closed:
                return shard
            if not self.respawn or self._closed:
                raise ShardCrashError(
                    shard_id, f"shard {shard_id} is down (respawn disabled)"
                )
        self._reap_dead(shard_id)
        replacement = self._spawn(shard_id)
        with self._lock:
            self._respawns += 1
        return replacement

    def _reap_dead(self, shard_id: int) -> None:
        with self._lock:
            shard = self._shards.get(shard_id)
        if shard is None:
            return
        shard.conn.close()
        if shard.process is not None:
            shard.process.join(timeout=5.0)
        # The dead pid's process-pool segments are orphans now.
        reap_orphan_segments()
        self.metacache.forget_shard(shard_id)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def table_of(sql: str) -> tuple[str, str]:
        match = _FROM_TABLE.search(sql)
        if match is None:
            return ("", "")
        return (match.group(1), match.group(2))

    def route(self, tenant: str, database: str, table: str) -> int:
        return self.ring.node_for(route_key(tenant, database, table))

    def shard_of(self, sql: str, tenant: str | None = None) -> int:
        database, table = self.table_of(sql)
        return self.route(tenant or self.default_tenant, database, table)

    # ------------------------------------------------------------------
    # metadata (coordinator cache)
    # ------------------------------------------------------------------
    def _schema(self, shard_id: int, database: str, table: str):
        def loader():
            shard = self._shard_for(shard_id)
            response = shard.conn.call(
                "metadata", kind="schema", database=database, table=table
            )
            return response["payload"], response["v"]

        return self.metacache.lookup(shard_id, f"{database}.{table}", loader)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        tenant: str | None = None,
        day: int | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """Route and execute one query; returns ``{"rows": ..,
        "metrics": .., "shard": id}``. Admission/engine errors re-raise
        with their single-process types and fields; a shard crash raises
        :class:`ShardCrashError` after scheduling the respawn."""
        tenant = tenant or self.default_tenant
        database, table = self.table_of(sql)
        shard_id = self.route(tenant, database, table)
        if database and database != "system":
            # Schema lookup from the coordinator cache: a warm entry
            # answers without touching the shard; version-vector
            # piggybacks keep it honest across DDL/append/swap.
            self._schema(shard_id, database, table)
        shard = self._shard_for(shard_id)
        started = time.perf_counter()
        try:
            response = shard.conn.call(
                "execute",
                sql=sql,
                tenant=tenant,
                day=day,
                deadline_ms=deadline_ms,
            )
        except ShardConnectionError as exc:
            with self._lock:
                self._crash_failed += 1
            if self.respawn and not self._closed:
                # Respawn in the background so the failing caller does
                # not pay the rebuild; the next request to this shard
                # finds it alive (or waits on the revive lock).
                threading.Thread(
                    target=self._safe_revive, args=(shard_id,), daemon=True
                ).start()
            raise ShardCrashError(
                shard_id, f"shard {shard_id} died mid-query: {exc}"
            ) from exc
        except AdmissionError:
            with self._lock:
                self._shed += 1
            raise
        except Exception:
            with self._lock:
                self._failed += 1
            raise
        elapsed = time.perf_counter() - started
        with self._lock:
            self._completed += 1
            self._per_shard_completed[shard_id] = (
                self._per_shard_completed.get(shard_id, 0) + 1
            )
            self._latencies.append(elapsed)
            if len(self._latencies) > 65536:
                del self._latencies[:32768]
        response["shard"] = shard_id
        return response

    def _safe_revive(self, shard_id: int) -> None:
        try:
            self._revive(shard_id)
        except Exception:
            pass

    def submit(
        self,
        sql: str,
        tenant: str | None = None,
        day: int | None = None,
        deadline_ms: float | None = None,
    ) -> Future:
        """Async execute on the router's client pool (replay fan-out)."""
        if self._closed:
            raise RuntimeError("router is shut down")
        return self._pool.submit(self.execute, sql, tenant, day, deadline_ms)

    def ingest(self, day: int, paths) -> None:
        """Route a bare stats event to the shard owning its table (the
        shard's predictor sees exactly the traffic routed to it)."""
        paths = [tuple(p) for p in paths]
        if paths:
            database, table = paths[0][0], paths[0][1]
        else:
            database, table = "", ""
        shard_id = self.route(self.default_tenant, database, table)
        shard = self._shard_for(shard_id)
        shard.conn.call("ingest", day=day, paths=[list(p) for p in paths])

    # ------------------------------------------------------------------
    # maintenance (broadcast)
    # ------------------------------------------------------------------
    def advance_to(self, seconds: float) -> dict[int, list]:
        """Advance every shard's virtual clock (midnight cycles run
        shard-locally; each shard swaps its own generation)."""
        return {
            shard_id: self._shard_for(shard_id)
            .conn.call("advance_to", seconds=seconds)
            .get("events", [])
            for shard_id in self.ring.nodes
        }

    def run_midnight(self, day: int | None = None) -> dict[int, dict]:
        return {
            shard_id: {
                k: v
                for k, v in self._shard_for(shard_id)
                .conn.call("midnight", day=day)
                .items()
                if k not in ("ok", "id", "v")
            }
            for shard_id in self.ring.nodes
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def shard_status(self) -> dict[int, dict]:
        return {
            shard_id: self._shard_for(shard_id).conn.call("status")["status"]
            for shard_id in self.ring.nodes
        }

    def status(self) -> dict:
        """Aggregated cluster status: summed counters, worst-shard
        latency percentiles, per-shard snapshots, router accounting and
        the metadata-cache hit statistics."""
        per_shard = self.shard_status()
        with self._lock:
            latencies = sorted(self._latencies)
            router = {
                "uptime_seconds": time.perf_counter() - self._started,
                "completed": self._completed,
                "failed": self._failed,
                "shed": self._shed,
                "crash_failed": self._crash_failed,
                "respawns": self._respawns,
                "per_shard_completed": dict(self._per_shard_completed),
                "latency_p50_seconds": percentile(latencies, 0.50),
                "latency_p95_seconds": percentile(latencies, 0.95),
                "latency_p99_seconds": percentile(latencies, 0.99),
            }
        sum_keys = (
            "queries_completed",
            "queries_failed",
            "queries_shed",
            "queries_deadline_exceeded",
            "queries_cancelled",
            "stats_events_ingested",
            "cache_hits",
            "cache_misses",
            "fallback_queries",
            "query_retries",
            "midnight_cycles",
        )
        totals = {key: sum(int(s.get(key, 0)) for s in per_shard.values())
                  for key in sum_keys}
        shed_breakdown: dict[str, int] = {}
        for snapshot in per_shard.values():
            for reason, count in dict(
                snapshot.get("shed_breakdown", {})
            ).items():
                shed_breakdown[reason] = shed_breakdown.get(reason, 0) + count
        totals["shed_breakdown"] = shed_breakdown
        totals["latency_p95_seconds"] = max(
            (float(s.get("latency_p95_seconds", 0.0)) for s in per_shard.values()),
            default=0.0,
        )
        totals["generation_by_shard"] = {
            shard_id: int(s.get("generation", 0))
            for shard_id, s in per_shard.items()
        }
        return {
            "shards": len(per_shard),
            "cluster": totals,
            "router": router,
            "metadata_cache": self.metacache.snapshot(),
            "per_shard": per_shard,
            "reaped_shm_segments": self.reaped_shm_segments,
        }

    def metrics_text(self) -> str:
        """One Prometheus exposition for the whole cluster: every shard
        sample gains a ``shard`` label; router-local series are appended
        under ``maxson_router_*`` / ``maxson_metadata_cache_*``."""
        by_shard = {
            shard_id: self._shard_for(shard_id).conn.call("metrics_text")[
                "text"
            ]
            for shard_id in self.ring.nodes
        }
        meta = self.metacache.snapshot()
        with self._lock:
            router_lines = [
                "# HELP maxson_router_requests_total Requests routed by outcome",
                "# TYPE maxson_router_requests_total counter",
                f'maxson_router_requests_total{{outcome="completed"}} {float(self._completed)}',
                f'maxson_router_requests_total{{outcome="failed"}} {float(self._failed)}',
                f'maxson_router_requests_total{{outcome="shed"}} {float(self._shed)}',
                f'maxson_router_requests_total{{outcome="crash_failed"}} {float(self._crash_failed)}',
                "# HELP maxson_router_shard_respawns_total Crashed shards respawned by the supervisor",
                "# TYPE maxson_router_shard_respawns_total counter",
                f"maxson_router_shard_respawns_total {float(self._respawns)}",
            ]
        router_lines += [
            "# HELP maxson_metadata_cache_hits_total Coordinator metadata-cache hits",
            "# TYPE maxson_metadata_cache_hits_total counter",
            f"maxson_metadata_cache_hits_total {float(meta['hits'])}",
            "# HELP maxson_metadata_cache_misses_total Coordinator metadata-cache misses",
            "# TYPE maxson_metadata_cache_misses_total counter",
            f"maxson_metadata_cache_misses_total {float(meta['misses'])}",
            "# HELP maxson_metadata_cache_invalidations_total Shard version-vector invalidations",
            "# TYPE maxson_metadata_cache_invalidations_total counter",
            f"maxson_metadata_cache_invalidations_total {float(meta['invalidations'])}",
            "# HELP maxson_metadata_cache_entries Entries held by the coordinator metadata cache",
            "# TYPE maxson_metadata_cache_entries gauge",
            f"maxson_metadata_cache_entries {float(meta['entries'])}",
        ]
        return aggregate_expositions(by_shard, extra_lines=router_lines)

    def audit_system_queries(self) -> dict:
        """The shard-aware ``system.queries`` reconciliation: per-shard
        status breakdowns plus their cluster-wide sum (the figure the
        replay audit compares against accounted requests)."""
        per_shard: dict[int, dict[str, int]] = {}
        for shard_id in self.ring.nodes:
            shard = self._shard_for(shard_id)
            rows = shard.conn.call(
                "sql",
                sql=(
                    "SELECT status, count(*) AS n FROM system.queries "
                    "GROUP BY status"
                ),
            )["rows"]
            per_shard[shard_id] = {
                str(row["status"]): int(row["n"]) for row in rows
            }
        totals: dict[str, int] = {}
        for breakdown in per_shard.values():
            for status, count in breakdown.items():
                totals[status] = totals.get(status, 0) + count
        return {
            "per_shard": per_shard,
            "totals": totals,
            "total_rows": sum(totals.values()),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=False)
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            try:
                shard.conn.call("shutdown", timeout=_SHUTDOWN_GRACE)
            except (ShardConnectionError, Exception):
                pass
            shard.conn.close()
        for shard in shards:
            if shard.process is not None:
                _stop_process(shard.process)
        self._listener.close()
        # Anything a hard-killed shard left in /dev/shm is ours to reap.
        reap_orphan_segments()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ---------------------------------------------------------------------------
# exposition aggregation
# ---------------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)


def aggregate_expositions(
    by_shard: dict[int, str], extra_lines: list[str] | None = None
) -> str:
    """Merge per-shard Prometheus expositions into one.

    Every sample gains a ``shard="<id>"`` label (prepended, so existing
    labels survive untouched); ``# HELP`` / ``# TYPE`` headers are
    emitted once per metric family, in the order the first shard's
    exposition declares them. ``extra_lines`` (router-local series) are
    appended verbatim.
    """
    families: list[str] = []  # family order of first appearance
    headers: dict[str, list[str]] = {}  # family -> HELP/TYPE lines
    samples: dict[str, list[str]] = {}  # family -> labelled samples
    for shard_id in sorted(by_shard):
        family = ""
        for line in by_shard[shard_id].splitlines():
            if not line.strip():
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                name = line.split(" ", 3)[2]
                if name != family:
                    family = name
                    if family not in headers:
                        families.append(family)
                        headers[family] = []
                if line not in headers[family]:
                    headers[family].append(line)
                continue
            if line.startswith("#"):
                continue
            match = _SAMPLE_LINE.match(line)
            if match is None:
                continue
            name = match.group("name")
            labels = match.group("labels")
            shard_label = f'shard="{shard_id}"'
            body = f"{shard_label},{labels}" if labels else shard_label
            base = family if name.startswith(family) else name
            if base not in headers:
                families.append(base)
                headers[base] = []
            samples.setdefault(base, []).append(
                f"{name}{{{body}}} {match.group('value')}"
            )
    lines: list[str] = []
    for family in families:
        lines.extend(headers[family])
        lines.extend(samples.get(family, []))
    if extra_lines:
        lines.extend(extra_lines)
    return "\n".join(lines) + "\n" if lines else ""
