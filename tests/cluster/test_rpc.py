"""RPC framing, multiplexing, and typed error envelopes.

The regression contract of satellite concern #1: a ``QueryShedError``
crossing the router keeps its ``retry_after_seconds`` and message, so a
cluster client backs off exactly like a single-server client.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.cluster.rpc import (
    MAX_FRAME_BYTES,
    RpcConnection,
    RpcError,
    ShardConnectionError,
    decode_error,
    encode_error,
    recv_frame,
    send_frame,
)
from repro.engine.batch import ColumnBatch
from repro.engine.errors import (
    DeadlineExceededError,
    ExecutionError,
    QueryCancelledError,
)
from repro.engine.frame import FrameError, encode_frame
from repro.server.admission import (
    AdmissionTimeout,
    QueryShedError,
    QueueFullError,
)

BODY = encode_frame(ColumnBatch(["x"], {"x": [1, None, 3]}, 3))


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "ping", "id": 3})
            assert recv_frame(b) == {"op": "ping", "id": 3}
        finally:
            a.close()
            b.close()

    def test_peer_close_raises_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(ShardConnectionError):
            recv_frame(b)
        b.close()

    def test_oversized_frame_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ShardConnectionError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_body_follows_the_envelope_undecoded(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"id": 1, "names": ["x"]}, BODY)
            send_frame(a, {"id": 2})
            assert recv_frame(b) == {"id": 1, "names": ["x"], "body": BODY}
            assert recv_frame(b) == {"id": 2}  # framing stayed in sync
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "envelope, rest",
        [
            (b"[]", b""),  # valid JSON, not an object
            (b"{nope", b""),
            (json.dumps({"body": MAX_FRAME_BYTES + 1}).encode(), b""),
            (b'{"body":-1}', b""),
            (b'{"body":"12"}', b"x" * 12),
            (b'{"body":100}', b"x" * 50),  # peer closes inside the body
        ],
        ids=["array", "not-json", "oversized", "negative", "string", "cut"],
    )
    def test_bad_envelopes_and_bodies_refused(self, envelope, rest):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("<I", len(envelope)) + envelope + rest)
            a.close()
            with pytest.raises(ShardConnectionError):
                recv_frame(b)
        finally:
            b.close()


class TestErrorEnvelopes:
    def test_query_shed_error_fields_round_trip(self):
        original = QueryShedError(
            "tenant 'x': queue cannot drain in time",
            retry_after_seconds=0.375,
        )
        rebuilt = decode_error(encode_error(original))
        assert isinstance(rebuilt, QueryShedError)
        assert rebuilt.retry_after_seconds == 0.375
        assert str(rebuilt) == str(original)

    def test_shed_reason_text_survives(self):
        for reason in (
            "queue full",
            "admission timed out",
            "memory pressure: shedding cold queries",
        ):
            rebuilt = decode_error(
                encode_error(QueryShedError(reason, retry_after_seconds=1.5))
            )
            assert str(rebuilt) == reason
            assert rebuilt.retry_after_seconds == 1.5

    @pytest.mark.parametrize(
        "exc_type",
        [
            QueueFullError,
            AdmissionTimeout,
            DeadlineExceededError,
            QueryCancelledError,
            ExecutionError,
        ],
    )
    def test_typed_errors_round_trip(self, exc_type):
        rebuilt = decode_error(encode_error(exc_type("boom")))
        assert type(rebuilt) is exc_type
        assert "boom" in str(rebuilt)

    def test_unknown_type_degrades_to_rpc_error(self):
        rebuilt = decode_error({"type": "WeirdError", "message": "m"})
        assert isinstance(rebuilt, RpcError)
        assert "WeirdError" in str(rebuilt)


def _echo_shard(sock: socket.socket, reorder: bool = False) -> None:
    """A fake shard: echoes requests, optionally answering out of order,
    raising a shed error when asked."""
    pending = []
    while True:
        try:
            request = recv_frame(sock)
        except ShardConnectionError:
            return
        if request.get("op") == "shed":
            response = {
                "id": request["id"],
                "ok": False,
                "v": {"catalog": 1, "generation": 0},
                "error": encode_error(
                    QueryShedError("deadline too tight", 0.25)
                ),
            }
        else:
            response = {
                "id": request["id"],
                "ok": True,
                "v": {"catalog": 1, "generation": 0},
                "echo": request.get("value"),
            }
        if request.get("op") == "raw":  # bytes as given, then one answer
            sock.sendall(bytes.fromhex(request["hex"]))
        if request.get("op") == "rows":
            send_frame(
                sock,
                {**response, "names": ["x"]},
                bytes.fromhex(request.get("payload", BODY.hex())),
            )
        elif reorder:
            pending.append(response)
            if len(pending) < 2:
                continue
            pending.reverse()
            for queued in pending:
                send_frame(sock, queued)
            pending = []
        else:
            send_frame(sock, response)


class TestRpcConnection:
    def test_call_returns_payload(self):
        a, b = socket.socketpair()
        threading.Thread(target=_echo_shard, args=(b,), daemon=True).start()
        conn = RpcConnection(a)
        assert conn.call("echo", value=41)["echo"] == 41
        conn.close()

    def test_out_of_order_responses_reach_their_callers(self):
        a, b = socket.socketpair()
        threading.Thread(
            target=_echo_shard, args=(b, True), daemon=True
        ).start()
        conn = RpcConnection(a)
        results = {}

        def call(value):
            results[value] = conn.call("echo", value=value)["echo"]

        threads = [
            threading.Thread(target=call, args=(v,)) for v in (1, 2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == {1: 1, 2: 2}
        conn.close()

    def test_shed_error_raises_typed_with_fields(self):
        a, b = socket.socketpair()
        threading.Thread(target=_echo_shard, args=(b,), daemon=True).start()
        conn = RpcConnection(a)
        with pytest.raises(QueryShedError) as info:
            conn.call("shed")
        assert info.value.retry_after_seconds == 0.25
        conn.close()

    def test_version_observer_sees_every_response(self):
        a, b = socket.socketpair()
        threading.Thread(target=_echo_shard, args=(b,), daemon=True).start()
        conn = RpcConnection(a)
        seen = []
        conn.version_observer = seen.append
        conn.call("echo", value=1)
        conn.call("echo", value=2)
        assert seen == [{"catalog": 1, "generation": 0}] * 2
        conn.close()

    def test_dead_socket_fails_in_flight_calls(self):
        a, b = socket.socketpair()
        conn = RpcConnection(a)
        errors = []

        def call():
            try:
                conn.call("echo", value=1, timeout=10)
            except ShardConnectionError as exc:
                errors.append(exc)

        thread = threading.Thread(target=call)
        thread.start()
        b.close()
        thread.join(timeout=10)
        assert len(errors) == 1
        conn.close()

    def test_non_object_frame_fails_callers_at_once_and_closes(self):
        """``[]`` is JSON but no envelope: the reader must not die with
        the connection left open and its callers waiting."""
        a, b = socket.socketpair()
        threading.Thread(target=_echo_shard, args=(b,), daemon=True).start()
        conn = RpcConnection(a)
        started = time.monotonic()
        raw = struct.pack("<I", 2) + b"[]"
        with pytest.raises(ShardConnectionError, match="lost mid-call|closed"):
            conn.call("raw", hex=raw.hex(), timeout=5)
        assert time.monotonic() - started < 4 and conn.closed
        with pytest.raises(ShardConnectionError):
            conn.call("echo", value=1, timeout=5)

    def test_oversized_body_length_closes_the_connection(self):
        a, b = socket.socketpair()
        threading.Thread(target=_echo_shard, args=(b,), daemon=True).start()
        conn = RpcConnection(a)
        envelope = json.dumps({"id": 1, "ok": True, "body": MAX_FRAME_BYTES + 1})
        raw = struct.pack("<I", len(envelope)) + envelope.encode()
        with pytest.raises(ShardConnectionError):
            conn.call("raw", hex=raw.hex(), timeout=5)
        assert conn.closed

    def test_reply_body_is_decoded_for_the_caller(self):
        a, b = socket.socketpair()
        threading.Thread(target=_echo_shard, args=(b,), daemon=True).start()
        conn = RpcConnection(a)
        reply = conn.call("rows", timeout=5)
        assert reply["rows"] == [{"x": 1}, {"x": None}, {"x": 3}]
        assert "body" not in reply and "names" not in reply
        conn.close()

    @pytest.mark.parametrize(
        "body",
        [
            BODY[:-1],  # truncated: the last lane runs past the end
            BODY + b"\x00",  # longer than its lanes declare
            BODY.replace(b"i", b"?", 1),  # unknown lane tag
            b"",
        ],
        ids=["truncated", "trailing", "unknown-tag", "empty"],
    )
    def test_undecodable_body_fails_that_call_only(self, body):
        """The declared length was honoured, so framing is intact: a typed
        error for this caller, the next call on the socket is served."""
        a, b = socket.socketpair()
        threading.Thread(target=_echo_shard, args=(b,), daemon=True).start()
        conn = RpcConnection(a)
        with pytest.raises(FrameError) as info:
            conn.call("rows", payload=body.hex(), timeout=5)
        assert isinstance(info.value, ExecutionError) and not conn.closed
        assert conn.call("rows", timeout=5)["rows"][2] == {"x": 3}
        conn.close()

    def test_shard_answers_a_reply_it_cannot_encode(self, monkeypatch):
        """Whatever building a reply raises becomes an error envelope: a
        Future's done-callback swallows exceptions, so anything else would
        leave the router's caller waiting for ever."""
        from repro.cluster.shard import ShardSpec, shard_main
        from repro.engine.session import QueryResult

        spec = ShardSpec(rows_per_table=10, days=1, table_ids=["Q7"])
        with socket.create_server(("127.0.0.1", 0)) as listener:
            shard = threading.Thread(
                target=shard_main,
                args=(spec.to_dict(), *listener.getsockname()),
                daemon=True,
            )
            shard.start()
            listener.settimeout(60)
            sock, _ = listener.accept()
        assert recv_frame(sock)["hello"] == 0
        conn = RpcConnection(sock)
        sql = "SELECT id FROM prod.t_q7 LIMIT 2"
        assert len(conn.call("execute", sql=sql, timeout=30)["rows"]) == 2
        monkeypatch.setattr(
            QueryResult, "frame", lambda self: [].pop()  # an IndexError
        )
        with pytest.raises(RpcError, match="IndexError"):
            conn.call("execute", sql=sql, timeout=30)
        with pytest.raises(RpcError, match="IndexError"):
            conn.call("sql", sql=sql, timeout=30)
        conn.call("shutdown", timeout=30)
        shard.join(timeout=30)
        assert not shard.is_alive()
        conn.close()
