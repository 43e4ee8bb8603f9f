"""Process-pool morsel backend with shared-memory ColumnBatch transport.

The thread backend (:mod:`repro.engine.parallel`) overlaps per-split
*I/O*, but every byte of per-split *CPU* — raw JSON parsing, ORC
decoding, predicate evaluation — still serialises on one core behind
the GIL. :class:`ProcessMorselPool` is a drop-in replacement for the
session's ``ThreadPoolExecutor`` that executes each split's whole
scan→prefilter→filter→project/partial-aggregate pipeline in one of a
persistent pool of **spawned worker processes**, so ``scan_workers``
scales to core count.

Design (DESIGN.md §14):

* **Warm read-only snapshots.** Each worker holds a private replica of
  the coordinator's in-memory file system, catalog and (seeded) fault
  policy. The snapshot ships once per pool (re)build and is invalidated
  by ``catalog.version`` — never re-shipped per split — mirroring
  Presto's worker-side metadata cache. Workers never write, so replicas
  cannot drift inside one version.
* **One split runner.** A worker runs its split through
  :func:`repro.engine.parallel._run_split`, as inline and thread splits
  do, and ships the result.
* **Typed shared-memory framing.** A split's :class:`ColumnBatch`
  result returns through a ``multiprocessing.shared_memory`` segment
  holding a JSON header (the names) and the typed lane frame of
  :mod:`repro.engine.frame` — the codec result-cache entries and RPC
  replies use too. Row data is never pickled on the hot path; only small
  control metadata (per-split metrics with their span subtree, fallback
  flags, aggregate partials) crosses the pipe. Column aliasing (several
  names sharing one list) survives the trip, which ``_concat_batches``'s
  identity-based merge depends on.
* **Deterministic adoption + reaping.** The coordinator adopts each
  segment, decodes it and unlinks it in a ``finally`` — completion,
  failure and cancellation all release SHM. Segments are named
  ``mxshm_<coordinator-pid>_…`` so :func:`reap_orphan_segments` at
  server startup can unlink anything left behind by a crashed
  coordinator, mirroring PR 2's orphan-generation recovery.
* **Cooperative cancellation.** ``CancelToken.cancel()`` on the
  coordinator flips one byte in a shared cancel-flag slab; workers poll
  it from the existing ``check()`` sites via :class:`_WorkerCancelToken`.
  Deadlines ship as remaining-seconds at dispatch and are enforced on
  the worker's own monotonic clock.
* **One settle.** A split's metrics — with its cache failures and
  span subtree — come home in its reply, or on its error when it fails,
  and :func:`repro.engine.parallel._settle` applies them on the
  coordinator in split order, as for inline and thread splits — results
  and accounting are identical to serial and thread execution at any
  worker count.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import pickle
import queue
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_context, shared_memory

from .batch import ColumnBatch
from .cancel import CancelToken
from .errors import ExecutionError
from .frame import decode_batch_frame, encode_batch
from .parallel import _gather, _run_split
from .physical import ExecState, compile_plan

__all__ = ["ProcessMorselPool", "reap_orphan_segments", "SHM_PREFIX"]

#: Every segment this module creates starts with this prefix followed by
#: the *coordinator* pid — the reaper keys liveness off that pid.
SHM_PREFIX = "mxshm"

#: Concurrent queries a pool can flag for cancellation at once; queries
#: beyond this simply wait for a slot (they are about to run splits
#: anyway, so the wait is bounded by split execution).
_CANCEL_SLOTS = 512


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap_orphan_segments(prefix: str = SHM_PREFIX) -> int:
    """Unlink shared-memory segments abandoned by dead coordinators.

    Mirrors PR 2's orphan-generation recovery: run once at server
    startup. A segment is an orphan iff its embedded coordinator pid is
    no longer alive — segments of live processes (including this one)
    are never touched, so concurrently running servers are safe.
    Returns the number of segments reaped.
    """
    base = "/dev/shm"
    if not os.path.isdir(base):
        return 0
    reaped = 0
    for entry in os.listdir(base):
        if not entry.startswith(prefix + "_"):
            continue
        parts = entry.split("_")
        if len(parts) < 2 or not parts[1].isdigit():
            continue
        if _pid_alive(int(parts[1])):
            continue
        try:
            segment = shared_memory.SharedMemory(name=entry)
        except FileNotFoundError:
            continue
        try:
            segment.close()
            segment.unlink()
            reaped += 1
        except FileNotFoundError:
            pass
    return reaped


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


class _WorkerCancelToken(CancelToken):
    """Token a worker builds per task: polls the coordinator's shared
    cancel-flag byte inside every existing ``check()`` site, and
    enforces the shipped remaining-deadline on its own clock."""

    def __init__(self, flag_buf, slot: int | None, remaining: float | None):
        super().__init__(deadline_seconds=remaining)
        self._flag_buf = flag_buf
        self._slot = slot

    def check(self) -> None:
        if (
            self._flag_buf is not None
            and self._slot is not None
            and self._flag_buf[self._slot]
        ):
            from .errors import QueryCancelledError

            raise QueryCancelledError(
                "query cancelled: coordinator cancel flag"
            )
        super().check()


class _WorkerEnv:
    """A worker process's warm snapshot: fs/catalog/policy replicas plus
    the parser factories — everything :meth:`ExecState.fork` would give
    a thread worker, rebuilt process-locally once per catalog version."""

    def __init__(self, snapshot: dict):
        from ..storage.fs import _File
        from .catalog import Catalog

        fs_cls = snapshot["fs_class"]
        fs = fs_cls(
            block_size=snapshot["block_size"],
            read_latency_seconds=snapshot["read_latency_seconds"],
        )
        policy_spec = snapshot["policy"]
        if policy_spec is not None:
            policy_cls, policy_kwargs = policy_spec
            # Reconstructing from public fields re-runs __post_init__,
            # re-seeding the RNG: the fault sequence is reproducible
            # per worker, exactly as ISSUE'd fault matrices need.
            fs.policy = policy_cls(**policy_kwargs)
        fs._files = {
            path: _File(data=data, modification_time=mtime)
            for path, (data, mtime) in snapshot["files"].items()
        }
        catalog = Catalog(fs, warehouse_root=snapshot["warehouse_root"])
        for info in snapshot["tables"]:
            catalog._tables[(info.database, info.name)] = info
        catalog._version = snapshot["catalog_version"]
        self.catalog = catalog
        #: The session's context as shipped; each task runs on a sibling.
        self.context = snapshot["context"]
        self._plan_cache: tuple | None = None
        flag_name = snapshot["flag_slab"]
        self.flag_buf = None
        self._flag_segment = None
        if flag_name is not None:
            try:
                self._flag_segment = shared_memory.SharedMemory(
                    name=flag_name
                )
                self.flag_buf = self._flag_segment.buf
            except FileNotFoundError:
                self.flag_buf = None

    def plan_for(self, blob: bytes):
        """``(pipeline, json_paths, program)`` for the split's shipped
        ``(pipeline, json_paths)``, memoising the last plan: all splits of
        one query — and every execution of a cached plan — ship identical
        bytes, so the plan is unpickled and compiled on the first split
        and later splits reuse both. The program is never pickled."""
        cached = self._plan_cache
        if cached is None or cached[0] != blob:
            plan, json_paths = pickle.loads(blob)
            cached = self._plan_cache = (blob, plan, json_paths, compile_plan(plan))
        return cached[1:]


def _create_segment(name_prefix: str, size: int) -> shared_memory.SharedMemory:
    for attempt in range(64):
        name = f"{name_prefix}{os.getpid()}_{uuid.uuid4().hex[:8]}"
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, size)
            )
        except FileExistsError:
            continue
        # The coordinator owns the segment's lifetime (it unlinks after
        # adoption); keep this worker's resource tracker out of it so
        # worker exit does not double-unlink or warn.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
        return segment
    raise ExecutionError("could not allocate a shared-memory segment name")


def _run_task(env: _WorkerEnv, task: dict) -> dict:
    token = _WorkerCancelToken(
        env.flag_buf, task["slot"], task["remaining"]
    )
    plan, json_paths, program = env.plan_for(task["plan"])
    worker = ExecState(
        catalog=env.catalog,
        context=env.context.fresh(json_paths),
        cancel_token=token,
        program=program,
    )
    name = f"pid-{os.getpid()}"
    payload, fallback, metrics, seconds = _run_split(
        worker, plan, task["unit"], task["trace"], "process", name
    )
    reply = {
        "fallback": fallback,
        "metrics": metrics,
        "seconds": seconds,
        "shm": None,
        "shm_bytes": 0,
    }
    if not isinstance(payload, ColumnBatch):
        # Partial aggregates are tiny group->accumulator maps, not
        # ColumnBatches; they travel on the pipe.
        reply["kind"] = "agg"
        reply["partials"] = payload
        return reply
    reply["kind"] = "batch"
    frame = encode_batch(payload)
    segment = _create_segment(task["shm_prefix"], len(frame))
    try:
        segment.buf[: len(frame)] = frame
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    segment_name = segment.name
    segment.close()
    reply["shm"] = segment_name
    reply["shm_bytes"] = len(frame)
    return reply


def _worker_main(conn) -> None:
    """Entry point of one spawned worker process: a snapshot/task loop."""
    env: _WorkerEnv | None = None
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = message[0]
        try:
            if kind == "exit":
                return
            if kind == "snapshot":
                env = _WorkerEnv(message[1])
                conn.send_bytes(pickle.dumps(("ok", None)))
                continue
            if kind == "task":
                if env is None:
                    raise ExecutionError("worker has no snapshot")
                reply = _run_task(env, message[1])
                conn.send_bytes(pickle.dumps(("ok", reply)))
                continue
            raise ExecutionError(f"unknown worker message {kind!r}")
        except Exception as exc:  # noqa: BLE001 - shipped to coordinator
            try:
                blob = pickle.dumps(("err", exc))
            except Exception:  # noqa: BLE001 - unpicklable exception
                blob = pickle.dumps(
                    ("err", ExecutionError(f"{type(exc).__name__}: {exc}"))
                )
            try:
                conn.send_bytes(blob)
            except (OSError, BrokenPipeError):
                return


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _WorkerHandle:
    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.snapshot_version: int | None = None

    def send(self, blob: bytes) -> None:
        self.conn.send_bytes(blob)

    def recv(self):
        return pickle.loads(self.conn.recv_bytes())

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)


class ProcessMorselPool:
    """A persistent pool of spawned morsel worker processes.

    Duck-typed against the session's thread pool at the
    :func:`repro.engine.parallel._run_morsels` dispatch point: the
    scheduler detects :meth:`run_morsels` and hands over the whole
    split list plus the (declarative) pipeline instead of a closure.
    """

    def __init__(self, workers: int, snapshot_fn, observer=None):
        self.workers = workers
        self._snapshot_fn = snapshot_fn
        #: Optional callable ``(event: str, **fields)`` notified on
        #: worker lifecycle transitions (spawn/respawn/exit) — the
        #: server wires this into ``system.workers``. Must never raise
        #: into the pool; exceptions are swallowed.
        self._observer = observer
        self._ctx = get_context("spawn")
        self._handles: list[_WorkerHandle] = []
        self._free: queue.Queue[int] = queue.Queue()
        self._dispatch = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="procpool"
        )
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._snapshot_version: int | None = None
        self._snapshot_blob: bytes | None = None
        self._shm_prefix = f"{SHM_PREFIX}_{os.getpid()}_"
        self._flag_slab: shared_memory.SharedMemory | None = None
        self._flag_slots: queue.Queue[int] = queue.Queue()
        self._live_lock = threading.Lock()
        self._live_segments: dict[str, int] = {}
        atexit.register(self.close)

    # -- lifecycle ------------------------------------------------------
    def _notify(self, event: str, **fields) -> None:
        if self._observer is None:
            return
        try:
            self._observer(event, **fields)
        except Exception:  # noqa: BLE001 - telemetry must not fail the pool
            pass

    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        self._notify("spawn", worker=f"pid-{process.pid}")
        return _WorkerHandle(process, parent_conn)

    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise ExecutionError("process morsel pool is closed")
            if self._started:
                return
            self._flag_slab = shared_memory.SharedMemory(
                name=f"{SHM_PREFIX}_{os.getpid()}_flags_{uuid.uuid4().hex[:8]}",
                create=True,
                size=_CANCEL_SLOTS,
            )
            for slot in range(_CANCEL_SLOTS):
                self._flag_slots.put(slot)
            for index in range(self.workers):
                self._handles.append(self._spawn_worker())
                self._free.put(index)
            self._started = True

    def ensure_snapshot(self, version: int) -> None:
        """(Re)build the warm snapshot if the catalog moved on.

        The blob is pickled once here; each worker receives it lazily on
        its next dispatch (per-handle version check), so a refresh never
        blocks behind other queries' in-flight splits.
        """
        self._ensure_started()
        with self._lock:
            if self._snapshot_version == version:
                return
            snapshot = self._snapshot_fn()
            snapshot["flag_slab"] = (
                self._flag_slab.name if self._flag_slab is not None else None
            )
            self._snapshot_blob = pickle.dumps(("snapshot", snapshot))
            self._snapshot_version = version

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
            self._handles = []
        for handle in handles:
            try:
                handle.send(pickle.dumps(("exit",)))
            except (OSError, BrokenPipeError):
                pass
        for handle in handles:
            handle.process.join(timeout=1.0)
            handle.kill()
            self._notify("exit", worker=f"pid-{handle.process.pid}")
        self._dispatch.shutdown(wait=False)
        if self._flag_slab is not None:
            try:
                self._flag_slab.close()
                self._flag_slab.unlink()
            except FileNotFoundError:
                pass
            self._flag_slab = None
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover
            pass

    # -- observability --------------------------------------------------
    @property
    def live_shm_bytes(self) -> int:
        """Bytes of result segments currently adopted but not yet
        unlinked (plus the cancel slab) — the watchdog charges these
        against the memory soft limit."""
        with self._live_lock:
            total = sum(self._live_segments.values())
        if self._flag_slab is not None:
            total += _CANCEL_SLOTS
        return total

    def _track_segment(self, name: str, nbytes: int) -> None:
        with self._live_lock:
            self._live_segments[name] = nbytes

    def _untrack_segment(self, name: str) -> None:
        with self._live_lock:
            self._live_segments.pop(name, None)

    # -- execution ------------------------------------------------------
    def run_morsels(self, state, plan, units: list) -> tuple:
        """Execute every unit in worker processes: ``(completed,
        first_error)`` as :func:`~repro.engine.parallel._gather` returns
        them, each split the ``(payload, fallback, metrics, seconds)`` of
        its worker's :func:`~repro.engine.parallel._run_split`.
        """
        self.ensure_snapshot(state.catalog.version)
        # The plan's JSONPath set rides with the pipeline, so a worker's
        # context projects the same paths the coordinator's would.
        plan_blob = pickle.dumps((plan, state.context.json_paths))
        token = state.cancel_token
        traced = state.tracer is not None
        slot = self._flag_slots.get()
        flag_buf = self._flag_slab.buf
        flag_buf[slot] = 0

        def raise_flag() -> None:
            try:
                flag_buf[slot] = 1
            except (ValueError, IndexError):  # slab closed mid-cancel
                pass

        if token is not None:
            token.on_cancel(raise_flag)
        try:
            futures = [
                self._dispatch.submit(
                    self._run_unit, plan_blob, unit, slot, token, traced
                )
                for unit in units
            ]
            # At the first error, unstick any worker still mid-split.
            return _gather(futures, on_error=raise_flag)
        finally:
            if token is not None:
                token.remove_cancel_callback(raise_flag)
            try:
                flag_buf[slot] = 0
            except (ValueError, IndexError):
                pass
            self._flag_slots.put(slot)

    def _run_unit(self, plan_blob, unit, slot, token, traced=False):
        dispatched = time.perf_counter()
        index = self._free.get()
        # Capture the snapshot (version, blob) pair atomically: a
        # concurrent ensure_snapshot() swaps both under the lock, and
        # stamping the handle with a version other than the one whose
        # blob was actually shipped would mark the worker current while
        # it holds a stale catalog/fs replica.
        with self._lock:
            if self._closed:
                self._free.put(index)
                raise ExecutionError("process morsel pool is closed")
            handle = self._handles[index]
            version = self._snapshot_version
            blob = self._snapshot_blob
        try:
            if handle.snapshot_version != version:
                handle.send(blob)
                kind, detail = handle.recv()
                if kind == "err":
                    raise detail
                handle.snapshot_version = version
            remaining = (
                token.remaining_seconds() if token is not None else None
            )
            handle.send(
                pickle.dumps(
                    (
                        "task",
                        {
                            "plan": plan_blob,
                            "unit": unit,
                            "slot": slot,
                            "remaining": remaining,
                            "shm_prefix": self._shm_prefix,
                            "trace": traced,
                        },
                    )
                )
            )
            kind, detail = handle.recv()
            if (
                kind == "ok"
                and isinstance(detail, dict)
                and detail.get("shm")
            ):
                # Track the segment while we still hold the handle: the
                # dead-worker sweep only runs while holding this
                # worker's handle, so anything tracked here can never be
                # reaped out from under adoption.
                self._track_segment(detail["shm"], detail["shm_bytes"])
        except (EOFError, OSError, BrokenPipeError):
            replacement = self._respawn(handle)
            with self._lock:
                pool_closed = self._closed
                if not pool_closed:
                    self._handles[index] = replacement
            if pool_closed:
                replacement.kill()
            raise ExecutionError(
                "morsel worker process died mid-split; pool respawned"
            ) from None
        finally:
            self._free.put(index)
        if kind == "err":
            raise detail
        return self._adopt(detail, time.perf_counter() - dispatched)

    def _respawn(self, dead: _WorkerHandle) -> _WorkerHandle:
        pid = dead.process.pid
        dead.kill()
        self._reap_worker_segments(pid)
        self._notify("crash", worker=f"pid-{pid}")
        return self._spawn_worker()

    def _reap_worker_segments(self, pid: int | None) -> int:
        """Unlink result segments a dead worker wrote but never reported.

        A worker that dies after ``_create_segment`` but before replying
        would otherwise orphan the segment until a *future* coordinator's
        startup reaper finds it. Segment names embed the writer's pid
        right after this pool's prefix, so the respawn path sweeps
        exactly that worker's leftovers. Segments already adopted
        (tracked in ``_live_segments``) are skipped — they were tracked
        while the handle was held, before it returned to the free queue.
        """
        base = "/dev/shm"
        if pid is None or not os.path.isdir(base):
            return 0
        prefix = f"{self._shm_prefix}{pid}_"
        with self._live_lock:
            adopted = set(self._live_segments)
        reaped = 0
        for entry in os.listdir(base):
            if not entry.startswith(prefix) or entry in adopted:
                continue
            try:
                segment = shared_memory.SharedMemory(name=entry)
            except FileNotFoundError:
                continue
            try:
                segment.close()
                segment.unlink()
                reaped += 1
            except FileNotFoundError:
                pass
        return reaped

    def _adopt(self, reply: dict, elapsed: float):
        """Adopt the worker's segment into a batch; it is copied out and
        unlinked on every path before anything is decoded."""
        metrics = reply["metrics"]
        fallback = reply["fallback"]
        seconds = reply["seconds"]
        extra = metrics.extra
        extra["proc_dispatch_seconds"] = extra.get(
            "proc_dispatch_seconds", 0.0
        ) + max(0.0, elapsed - seconds)
        kind = reply["kind"]
        if kind == "agg":
            return reply["partials"], fallback, metrics, seconds
        name = reply["shm"]
        nbytes = reply["shm_bytes"]
        # Already tracked by _run_unit (while the worker handle was
        # held); this adoption is the matching untrack.
        try:
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                raise ExecutionError(
                    f"worker result segment {name} vanished before adoption"
                ) from None
            try:
                if kind != "batch":
                    raise ExecutionError(
                        f"worker reply of unknown kind {kind!r}"
                    )
                frame = bytes(segment.buf[:nbytes])
            finally:
                segment.close()
                segment.unlink()
        finally:
            self._untrack_segment(name)
        extra["shm_bytes"] = extra.get("shm_bytes", 0) + nbytes
        return decode_batch_frame(frame), fallback, metrics, seconds


def build_snapshot(session) -> dict:
    """The warm read-only worker snapshot for ``session``'s current
    catalog version: file bytes, table metadata, seeded fault-policy
    config and parser factories. Called under the pool's refresh path
    only — never per split."""
    fs = session.fs
    policy = getattr(fs, "policy", None)
    policy_spec = None
    if policy is not None:
        policy_spec = (
            type(policy),
            {
                f.name: getattr(policy, f.name)
                for f in dataclasses.fields(policy)
                if f.name != "counters"
            },
        )
    with fs._lock:
        files = {
            path: (f.data, f.modification_time)
            for path, f in fs._files.items()
        }
    return {
        "fs_class": type(fs),
        "block_size": fs.block_size,
        "read_latency_seconds": fs.read_latency_seconds,
        "policy": policy_spec,
        "files": files,
        "warehouse_root": session.catalog.warehouse_root,
        "tables": session.catalog.list_tables(None),
        "catalog_version": session.catalog.version,
        "context": session._context_factory(),
        "flag_slab": None,  # filled in by the pool
    }
