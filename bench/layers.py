"""Direct per-layer probes: one layer's public functions on the workload's
own data, nothing else in the way.

Each probe repeats a fixed piece of work a few times, each repetition
through ``run_ticked``, and reports the normalised median — the same
estimator as the end-to-end metrics.
"""

from __future__ import annotations

import socket
from statistics import median

from .estimators import run_ticked

__all__ = ["timed_median", "probe_parse", "probe_scan", "probe_encode", "probe_plan", "probe_rpc"]

_REPEATS = 5


def timed_median(fn, repeats: int = _REPEATS) -> float:
    """Normalised median seconds of ``fn()`` over ``repeats`` runs."""
    return median(run_ticked(fn)[2] for _ in range(repeats))


def _raw_documents(session, limit: int = 2000) -> list[str]:
    """Up to ``limit`` JSON documents spread evenly over the raw tables."""
    from repro.storage.orc import OrcFileReader

    catalog = session.catalog
    tables = catalog.list_tables("prod")
    per_table = max(1, limit // max(1, len(tables)))
    documents: list[str] = []
    for info in tables:
        taken = 0
        for path in catalog.table_files(info.database, info.name):
            columns, _ = OrcFileReader(catalog.fs.read(path)).read_columns(["payload"])
            for text in columns["payload"]:
                if taken >= per_table:
                    break
                documents.append(text)
                taken += 1
    return documents


def probe_parse(session) -> float:
    """``jsonlib.parse_mb_per_s``: ``jsonlib.jackson.parse`` over sampled
    documents of every raw table."""
    from repro.jsonlib.jackson import parse

    documents = _raw_documents(session)
    megabytes = sum(len(d.encode("utf-8")) for d in documents) / 1e6

    def run():
        for text in documents:
            parse(text)

    return megabytes / timed_median(run, repeats=3)


def probe_scan(session) -> float:
    """``storage.scan_mb_per_s``: ``OrcFileReader.read_columns`` of every
    column of every file (raw and cache tables)."""
    from repro.storage.orc import OrcFileReader

    catalog = session.catalog
    blobs = [
        catalog.fs.read(path)
        for info in catalog.list_tables()
        if info.database != "system"
        for path in catalog.table_files(info.database, info.name)
    ]
    megabytes = sum(len(b) for b in blobs) / 1e6

    def run():
        for blob in blobs:
            reader = OrcFileReader(blob)
            reader.read_columns([f.name for f in reader.schema.fields])

    return megabytes / timed_median(run)


def probe_encode(session) -> float:
    """``storage.encode_mb_per_s``: ``OrcWriter.write_rows`` + ``finish``
    re-encoding the first file of every raw table."""
    from repro.storage.orc import OrcFileReader, OrcWriter

    catalog = session.catalog
    inputs = []
    for info in catalog.list_tables("prod"):
        files = catalog.table_files(info.database, info.name)
        if files:
            reader = OrcFileReader(catalog.fs.read(files[0]))
            inputs.append((info.schema, reader.read_rows()))
    written = []

    def run():
        written.clear()
        for schema, rows in inputs:
            writer = OrcWriter(schema, row_group_size=100)
            writer.write_rows(rows)
            written.append(len(writer.finish()))

    seconds = timed_median(run)
    return sum(written) / 1e6 / seconds


def probe_plan(session, statements: list[str], recorder) -> dict[str, float | None]:
    """Planning cost per class, plan cache cold and warm.

    ``Session.explain`` runs exactly the prepare step of ``Session.sql``
    (plan-cache probe → compile → modifiers); with the recorder's
    wrappers installed its ``engine.plan`` and ``core.rewrite`` spans
    give the two parts of a cold plan.
    """
    cold, warm = [], []
    first_span = len(recorder.spans)
    recorder.install(["engine.plan", "core.rewrite"])
    try:
        for sql in statements:
            def cold_plan():
                session.invalidate_plan_cache()
                session.explain(sql)

            cold.append(timed_median(cold_plan, repeats=3))
            session.explain(sql)
            warm.append(timed_median(lambda: session.explain(sql), repeats=3))
    finally:
        recorder.uninstall()
    spans = recorder.spans[first_span:]
    del recorder.spans[first_span:]
    rewrite = [s[2] - s[1] for s in spans if s[0] == "core.rewrite"]
    return {
        "plan_ms": median(cold) * 1000.0,
        "plan_cached_ms": median(warm) * 1000.0,
        "rewrite_ms": median(rewrite) * 1000.0 if rewrite else None,
    }


def probe_rpc(response: dict, rounds: int = 200) -> float:
    """``cluster.rpc_roundtrip_ms``: one captured reply framed, sent and
    decoded over a socketpair with ``send_frame``/``recv_frame`` — the
    codec and socket cost of a reply, no shard behind it."""
    import json

    from repro.cluster.rpc import recv_frame, send_frame

    # Sender and receiver share this thread, so a frame must fit the
    # socket buffer or ``sendall`` would wait for a reader forever.
    response = dict(response)
    while len(json.dumps(response)) > 64 * 1024:
        response["rows"] = response["rows"][: len(response["rows"]) // 2]
    left, right = socket.socketpair()
    try:
        def run():
            for _ in range(rounds):
                send_frame(left, response)
                recv_frame(right)

        seconds = timed_median(run)
    finally:
        left.close()
        right.close()
    return seconds / rounds * 1000.0
