"""The shard process: one full MaxsonServer over its slice of traffic.

A shard is spawned by the :class:`~repro.cluster.router.ClusterRouter`
with a JSON-safe :class:`ShardSpec`, rebuilds the (deterministic)
warehouse from it — every shard materialises the same Table II tables,
so any shard can answer any table bit-identically; *which* shard a
``(tenant, table)`` pair actually hits is the ring's decision — and
then serves length-prefixed RPC requests over the socket it dialled
back to the router (result sets leave as lane frames, never as JSON rows).

Everything that was process-global in single-server mode is now
**shard-local by construction**: the admission controller, deadline
shedding, breaker state, memory watchdog, maintenance scheduler and
every cache budget (result/plan/document tiers plus the generation's
JSONPath tables) live inside this process's ``MaxsonServer``, exactly
as PR 1–8 built them. The router never reaches into any of it; it only
speaks the small op set below.

Ops: ``execute`` (runs on the shard's own thread pool, responses return
out of order), ``ingest``, ``advance_to`` / ``midnight`` / ``refresh``
(maintenance), ``status`` / ``metrics_text`` / ``sql`` (observability
and the shard-aware ``system.queries`` audit), ``metadata`` (a table's
schema: the coordinator cache's loader), ``ping``, ``shutdown``, and
``crash`` — ``os._exit`` mid-flight, the chaos hook the supervision
tests use.

Every response carries the shard's metadata **version vector**
``{"catalog": ..., "generation": ...}`` so the router's
:class:`~repro.cluster.metacache.MetadataCache` invalidates on
DDL/append/generation-swap without polling.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import asdict, dataclass, field

from ..workload.trace import PathKey
from .rpc import encode_error, recv_frame, send_frame

__all__ = [
    "ShardSpec",
    "build_shard_server",
    "shard_main",
    "metadata_payload",
    "spec_queries",
]


@dataclass
class ShardSpec:
    """Everything a shard process needs to rebuild its server.

    JSON-safe by design: it crosses the spawn boundary as a plain dict.
    The warehouse fields are deterministic generators (not data), so a
    respawned shard reconstructs byte-identical tables.
    """

    shard_id: int = 0
    rows_per_table: int = 200
    days: int = 3
    row_group_size: int = 100
    table_ids: list[str] | None = None
    """Subset of Table II query ids (``["Q2", "Q5"]``); None = all ten."""
    fault_profile: str = ""
    read_latency_seconds: float = 0.0
    model: str = "always"
    server: dict = field(default_factory=dict)
    """Keyword arguments for :class:`~repro.server.config.ServerConfig` —
    the shard's admission, deadline and telemetry settings and its
    overrides of the engine knobs (``scan_workers``, ``build_workers``…)."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        return cls(**data)


def _load_warehouse(spec: ShardSpec, catalog):
    """Materialise the spec's (deterministic) Table II tables into
    ``catalog``; returns the document factory per query id."""
    from ..workload import load_tables
    from ..workload.tables import TABLE_SPECS

    specs = None
    if spec.table_ids is not None:
        wanted = set(spec.table_ids)
        specs = [s for s in TABLE_SPECS if s.query_id in wanted]
    return load_tables(
        catalog,
        rows_per_table=spec.rows_per_table,
        days=spec.days,
        row_group_size=spec.row_group_size,
        specs=specs,
    )


def build_shard_server(spec: ShardSpec):
    """Build (system, server) for a spec: the one recipe for a served
    warehouse — the shard child's core, the differential tests'
    single-server twin and the command line's in-process server."""
    from ..core import MaxsonConfig, MaxsonSystem, PredictorConfig
    from ..engine import Session
    from ..server import MaxsonServer, ServerConfig
    from ..storage import BlockFileSystem

    config = ServerConfig(**spec.server)  # a bad spec fails before the load
    if spec.fault_profile:
        from ..faults import FaultPolicy, FaultyFileSystem, parse_fault_profile

        # Quiet policy while fixtures load; arm afterwards so raw data
        # on disk is intact and a baseline read of it is trustworthy.
        session = Session(fs=FaultyFileSystem(policy=FaultPolicy()))
    else:
        session = Session(
            fs=BlockFileSystem(
                read_latency_seconds=spec.read_latency_seconds
            )
        )
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model=spec.model)),
    )
    _load_warehouse(spec, system.catalog)
    if spec.fault_profile:
        system.session.fs.policy = parse_fault_profile(spec.fault_profile)
    return system, MaxsonServer(system, config)


def spec_queries(spec: ShardSpec):
    """The representative queries a spec's warehouse answers.

    The router holds no warehouse of its own, so workload generation
    rebuilds the (deterministic) table factories into a throwaway
    catalog — the loader :func:`build_shard_server` uses, hence the same
    SQL text every shard compiled its tables for.
    """
    from ..engine import Session
    from ..workload import build_queries

    return build_queries(_load_warehouse(spec, Session().catalog))


# ---------------------------------------------------------------------------
# metadata (the coordinator cache's loader)
# ---------------------------------------------------------------------------
def metadata_payload(system, kind: str, database: str, table: str) -> dict:
    """One shard-side metadata answer, JSON-safe. ``schema`` is the only
    kind: the coordinator caches what its hot path reads."""
    if kind != "schema":
        raise ValueError(f"unknown metadata kind {kind!r}")
    info = system.catalog.get_table(database, table)
    return {
        "columns": [[f.name, f.dtype.name] for f in info.schema.fields],
        "location": info.location,
    }


# ---------------------------------------------------------------------------
# the child process
# ---------------------------------------------------------------------------
def _version_vector(system) -> dict:
    return {
        "catalog": system.catalog.version,
        "generation": system.generation,
    }


def shard_main(spec_dict: dict, host: str, port: int) -> None:
    """Child-process entrypoint: dial the router, serve until shutdown.

    Spawn-safe: reached by module path, rebuilds all state from the
    JSON spec, and touches nothing of the router's memory.
    """
    spec = ShardSpec.from_dict(spec_dict)
    sock = socket.create_connection((host, port))
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    system, server = build_shard_server(spec)
    write_lock = threading.Lock()

    def respond(request_id, payload=None, error=None, result=None) -> None:
        """Answer one request. ``result`` makes it the reply that carries
        rows (``execute`` and ``sql`` alike): its names join the envelope
        and its lane frame is the body — a result-cache hit's stored bytes
        as they are, no rows built and nothing re-encoded."""
        response: dict = {"id": request_id, "v": _version_vector(system)}
        body = None
        if error is not None:
            response["ok"] = False
            response["error"] = encode_error(error)
        else:
            response["ok"] = True
            response.update(payload or {})
            if result is not None:
                names, _, body = result.frame()
                response["names"] = list(names)
        with write_lock:
            send_frame(sock, response, body)

    # Tell the router who connected (hello carries the shard id + pid so
    # the supervisor can map sockets to processes and reap SHM by pid).
    with write_lock:
        send_frame(
            sock,
            {
                "hello": spec.shard_id,
                "pid": os.getpid(),
                "v": _version_vector(system),
            },
        )

    def finish_execute(request_id, future) -> None:
        try:
            result = future.result()
            metrics, extra = result.metrics, result.metrics.extra
            payload = {
                "total_seconds": metrics.total_seconds,
                "parse_documents": metrics.parse_documents,
                "cache_hits": metrics.cache_hits,
                "cache_misses": metrics.cache_misses,
                "result_cache_hits": int(extra.get("result_cache_hits", 0)),
                "plan_cache_hits": int(extra.get("plan_cache_hits", 0)),
            }
            respond(request_id, {"metrics": payload}, result=result)
        except BaseException as exc:  # typed envelope, never a hang
            respond(request_id, error=exc)

    running = True
    while running:
        try:
            request = recv_frame(sock)
        except Exception:
            break  # router went away: exit quietly
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "execute":
                future = server.submit(
                    request["sql"],
                    tenant=request.get("tenant"),
                    day=request.get("day"),
                    deadline_ms=request.get("deadline_ms"),
                )
                future.add_done_callback(
                    lambda f, rid=request_id: finish_execute(rid, f)
                )
                continue  # response sent by the callback
            if op == "ping":
                respond(request_id, {"pid": os.getpid()})
            elif op == "ingest":
                paths = tuple(
                    PathKey(*entry) for entry in request.get("paths", ())
                )
                server.ingest(int(request["day"]), paths)
                respond(request_id, {})
            elif op == "advance_to":
                events = server.scheduler.advance_to(
                    float(request["seconds"])
                )
                respond(request_id, {"events": events})
            elif op == "midnight":
                report = server.run_midnight_cycle(day=request.get("day"))
                respond(
                    request_id,
                    {
                        "day": report.day,
                        "selected": len(report.selected),
                        "build_failed": report.build.failed,
                        "generation": system.generation,
                    },
                )
            elif op == "refresh":
                report = server.refresh_cache()
                respond(request_id, {"build_failed": report.failed})
            elif op == "status":
                respond(request_id, {"status": server.status().to_dict()})
            elif op == "metrics_text":
                respond(request_id, {"text": server.metrics_text()})
            elif op == "sql":
                respond(request_id, result=system.session.sql(request["sql"]))
            elif op == "metadata":
                payload = metadata_payload(
                    system,
                    request["kind"],
                    request["database"],
                    request["table"],
                )
                respond(request_id, {"payload": payload})
            elif op == "crash":
                # Chaos hook: die like a SIGKILLed process — no drain,
                # no response, no flushed telemetry.
                os._exit(3)
            elif op == "shutdown":
                respond(request_id, {})
                running = False
            else:
                respond(
                    request_id, error=ValueError(f"unknown op {op!r}")
                )
        except Exception as exc:
            respond(request_id, error=exc)
    try:
        server.shutdown(wait=True, drain_timeout=1.0)
    finally:
        sock.close()
