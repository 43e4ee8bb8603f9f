"""Length-prefixed RPC between the router and its shard processes.

A message is a JSON **envelope** — one object preceded by its 4-byte
little-endian length — optionally followed by a binary **body**.
Requests are ``{"id": n, "op": ..., **kwargs}``; responses echo the
``id`` (queries execute on the shard's thread pool, so responses return
out of order and one socket multiplexes a whole day's concurrency) and
are either ``{"id": n, "ok": true, "v": <version-vector>, ...payload}``
or an **error envelope**::

    {"id": n, "ok": false, "v": ..., "error": {"type": "QueryShedError",
     "message": "...", "retry_after_seconds": 0.25}}

Rows never travel as JSON: a reply that carries a result set is an
envelope with the column ``names`` and ``"body": <byte length>``, then
that many bytes of lane frame (:mod:`repro.engine.frame`) — for a
result-cache hit the entry's stored bytes, forwarded as they are. The
reader thread parses only the envelope; :meth:`RpcConnection.call`
decodes the body into ``rows`` on the *calling* thread, so one large
reply never stalls the other callers multiplexed on the socket.

``v`` is the shard's metadata version vector (see
:mod:`repro.cluster.metacache`), piggybacked on *every* response so the
router's metadata cache learns about DDL/append/generation-swap without
a dedicated poll.

Error envelopes round-trip the server's admission and engine exception
types **including their fields** — a ``QueryShedError`` raised inside a
shard reaches the router's client with the same ``retry_after_seconds``
and shed-reason message it would have carried in single-process mode,
so client backoff behaviour is identical either way (regression-tested
in ``tests/cluster/test_rpc.py``).
"""

from __future__ import annotations

import json
import socket
import struct
import threading

from ..engine.errors import (
    DeadlineExceededError,
    EngineError,
    ExecutionError,
    QueryCancelledError,
)
from ..engine.frame import frame_rows
from ..server.admission import (
    AdmissionError,
    AdmissionTimeout,
    QueryShedError,
    QueueFullError,
)

__all__ = [
    "RpcError",
    "ShardConnectionError",
    "send_frame",
    "recv_frame",
    "encode_error",
    "decode_error",
    "RpcConnection",
]

_LENGTH = struct.Struct("<I")

#: Frames above this are refused — nothing the cluster ships (rows of a
#: simulator-scale result set, a status snapshot) comes near it, and the
#: cap turns a corrupt length prefix into a clean error instead of an
#: unbounded allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class RpcError(RuntimeError):
    """A shard returned an error the router could not map to a typed
    exception (the generic envelope)."""


class ShardConnectionError(ConnectionError):
    """The shard's socket died mid-conversation (crash, kill, close)."""


#: Exception classes that cross the RPC boundary by name. Anything else
#: degrades to :class:`RpcError` with the original type in the message.
_WIRE_TYPES: dict[str, type[Exception]] = {
    "QueryShedError": QueryShedError,
    "QueueFullError": QueueFullError,
    "AdmissionTimeout": AdmissionTimeout,
    "AdmissionError": AdmissionError,
    "DeadlineExceededError": DeadlineExceededError,
    "QueryCancelledError": QueryCancelledError,
    "ExecutionError": ExecutionError,
    "EngineError": EngineError,
}


def send_frame(sock: socket.socket, obj: dict, body: bytes | None = None) -> None:
    """Send one envelope; with a ``body`` the envelope declares its length
    under ``"body"`` and the bytes follow it."""
    if body is not None:
        obj = {**obj, "body": len(body)}
    elif "body" in obj:  # the peer would wait for that many bytes
        raise ValueError('"body" is reserved for the envelope\'s body length')
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    try:
        sock.sendall(b"".join((_LENGTH.pack(len(payload)), payload, body or b"")))
    except OSError as exc:
        raise ShardConnectionError(f"send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, nbytes: int) -> bytearray:
    buffer = bytearray(nbytes)
    view = memoryview(buffer)
    while view:
        try:
            received = sock.recv_into(view)
        except OSError as exc:
            raise ShardConnectionError(f"recv failed: {exc}") from exc
        if not received:
            raise ShardConnectionError("peer closed the connection")
        view = view[received:]
    return buffer


def recv_frame(sock: socket.socket) -> dict:
    """Receive one envelope; a declared body arrives under ``"body"`` as
    the raw bytes, undecoded."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise ShardConnectionError(f"frame of {length} bytes exceeds cap")
    try:
        envelope = json.loads(_recv_exact(sock, length))
    except ValueError as exc:
        raise ShardConnectionError(f"envelope is not JSON: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ShardConnectionError("envelope is not a JSON object")
    if "body" in envelope:
        length = envelope["body"]
        if type(length) is not int or not 0 <= length <= MAX_FRAME_BYTES:
            raise ShardConnectionError(f"bad body length {length!r}")
        envelope["body"] = _recv_exact(sock, length)
    return envelope


# ---------------------------------------------------------------------------
# error envelopes
# ---------------------------------------------------------------------------
def encode_error(exc: BaseException) -> dict:
    """The wire form of an exception, fields included."""
    payload: dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after_seconds", None)
    if retry_after is not None:
        payload["retry_after_seconds"] = retry_after
    return payload


def decode_error(payload: dict) -> Exception:
    """Rebuild the typed exception a shard shipped (fields restored)."""
    name = str(payload.get("type", "RpcError"))
    message = str(payload.get("message", ""))
    cls = _WIRE_TYPES.get(name)
    if cls is None:
        return RpcError(f"{name}: {message}")
    if cls is QueryShedError:
        return QueryShedError(
            message,
            retry_after_seconds=float(payload.get("retry_after_seconds", 0.0)),
        )
    return cls(message)


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------
class RpcConnection:
    """One router→shard connection, multiplexing concurrent requests.

    Requests carry a monotonically increasing ``id``; the shard answers
    each when *its* work completes (queries run on the shard's own
    thread pool), so responses come back out of order and one socket
    carries a whole day's concurrent fan-in to the shard. A reader
    thread parks each response with its waiting caller; a writer lock
    keeps frames atomic on the send side.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, dict] = {}  # id -> {event, response}
        self._ids = 0
        self.closed = False
        #: Called with the shard's version vector after every response.
        self.version_observer = None
        self._reader = threading.Thread(
            target=self._read_loop, name="shard-rpc-reader", daemon=True
        )
        self._reader.start()

    # -- reader ---------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            while True:
                response = recv_frame(self._sock)
                with self._pending_lock:
                    waiter = self._pending.pop(response.get("id"), None)
                if waiter is not None:
                    waiter["response"] = response
                    waiter["event"].set()
        except ShardConnectionError:
            pass
        finally:  # however the loop ends, nobody is left waiting on it
            self._fail_pending()

    def _fail_pending(self) -> None:
        self.closed = True
        with self._pending_lock:
            waiters = list(self._pending.values())
            self._pending.clear()
        for waiter in waiters:
            waiter["event"].set()

    # -- caller ---------------------------------------------------------
    def call(self, op: str, timeout: float | None = None, **kwargs) -> dict:
        """Send one request; return the payload or raise the shipped
        (typed) exception. A dead socket (shard crash) raises
        :class:`ShardConnectionError` for every in-flight caller."""
        if self.closed:
            raise ShardConnectionError("connection already closed")
        waiter = {"event": threading.Event(), "response": None}
        with self._pending_lock:
            self._ids += 1
            request_id = self._ids
            self._pending[request_id] = waiter
        request = {"id": request_id, "op": op}
        request.update(kwargs)
        try:
            with self._write_lock:
                send_frame(self._sock, request)
        except ShardConnectionError:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            self._fail_pending()
            raise
        if not waiter["event"].wait(timeout):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ShardConnectionError(f"rpc {op!r} timed out")
        response = waiter["response"]
        if response is None:
            raise ShardConnectionError("shard connection lost mid-call")
        if self.version_observer is not None and "v" in response:
            self.version_observer(response["v"])
        if response.get("ok"):
            if "body" in response:  # decoded here, on the caller's thread
                response["rows"] = frame_rows(
                    response.pop("body"), response.pop("names", ())
                )
            return response
        raise decode_error(response.get("error", {}))

    def close(self) -> None:
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
