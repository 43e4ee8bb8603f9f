"""Outside-in tracing: spans recorded by wrappers the benchmark installs.

The program is not edited. For a traced batch the benchmark replaces the
public callables at each layer boundary (``JacksonParser.parse``,
``BlockFileSystem.read``, ``MaxsonScanExec.execute_batch``, ...) with
wrappers that record a span, and puts the originals back afterwards, so
untraced batches run the pristine code. Spans stay in memory until the
run ends.

A layer's **self time** is its spans' duration minus the part their child
spans cover; self times of all spans under a batch sum to the batch time.
"""

from __future__ import annotations

import importlib
import json
import threading
import time

__all__ = ["BOUNDARIES", "SpanRecorder", "self_times", "layer_of"]

#: span name → (module, owner class or None for a module function, attribute)
BOUNDARIES: dict[str, list[tuple[str, str | None, str]]] = {
    "jsonlib.parse": [("repro.jsonlib.jackson", "JacksonParser", "parse")],
    "jsonlib.extract": [
        ("repro.engine.expressions", "EvalContext", "get_json_objects")
    ],
    "storage.fs_read": [("repro.storage.fs", "BlockFileSystem", "read")],
    "storage.read_columns": [("repro.storage.orc", "OrcFileReader", "read_columns")],
    "storage.encode": [
        ("repro.storage.orc", "OrcWriter", "write_rows"),
        ("repro.storage.orc", "OrcWriter", "finish"),
    ],
    "engine.query": [("repro.engine.session", "Session", "sql")],
    "engine.plan": [("repro.engine.session", "Session", "compile")],
    "engine.resultcache_probe": [
        ("repro.engine.resultcache", "ResultCache", "canonicalize"),
        ("repro.engine.resultcache", "ResultCache", "fetch"),
    ],
    "core.rewrite": [("repro.core.maxson_parser", "MaxsonPlanModifier", "modify")],
    "core.stitch": [
        ("repro.core.combiner", "MaxsonScanExec", "execute_batch"),
        ("repro.core.combiner", "MaxsonScanExec", "run_morsel"),
    ],
    "core.midnight": [("repro.server.scheduler", "MaintenanceScheduler", "advance_to")],
    "core.predict": [("repro.core.predictor", "JsonPathPredictor", "predict")],
    "core.score": [("repro.core.scoring", "ScoringFunction", "score")],
    "core.build": [("repro.core.cacher", "JsonPathCacher", "populate")],
    "server.execute": [("repro.server.service", "MaxsonServer", "execute")],
    "server.admission": [("repro.server.admission", "AdmissionController", "acquire")],
    "cluster.route": [("repro.cluster.router", "ClusterRouter", "execute")],
    "cluster.rpc_call": [("repro.cluster.rpc", "RpcConnection", "call")],
    "cluster.rpc_send": [("repro.cluster.rpc", None, "send_frame")],
}

# span = [name, start, end, parent span or None, query id]
_NAME, _START, _END, _PARENT, _QUERY = range(5)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span store plus the wrapper installer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        #: The client-side span of the request in flight. With one
        #: closed-loop client there is exactly one, so a span opened on a
        #: worker thread with an empty stack is its child.
        self.request_span: list | None = None
        self.query_id = ""

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.request_span
        span = [name, time.perf_counter(), 0.0, parent, self.query_id]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._local.stack.pop()

    def begin_request(self, query_id: str) -> list:
        self.query_id = query_id
        span = self.begin("bench.request")
        self.request_span = span
        return span

    def end_request(self, span: list) -> None:
        self.end(span)
        self.request_span = None
        self.query_id = ""

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, original):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end(span)

        traced.__wrapped__ = original
        return traced

    def install(self, names=None) -> None:
        """Wrap the boundary callables (all, or the given span names)."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        for name, targets in BOUNDARIES.items():
            if names is not None and name not in names:
                continue
            for module_name, owner_name, attribute in targets:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = owner.__dict__[attribute]
                if isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"{owner_name}.{attribute} is not a plain function")
                setattr(owner, attribute, self._wrap(name, original))
                self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- output --------------------------------------------------------
    def write(self, path) -> int:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = span[_PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[_NAME],
                            "start": span[_START],
                            "end": span[_END],
                            "parent": ids[id(parent)] if parent is not None else None,
                            "query": span[_QUERY],
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the union of child cover.

    Children on the same thread nest and never overlap; a child on
    another thread (the server's worker under the client's request span)
    may, so cover is the union of child intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[_PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[_START], span[_END]))
    out: dict[str, float] = {}
    for span in spans:
        start, end = span[_START], span[_END]
        covered = 0.0
        edge = start
        for child_start, child_end in sorted(children.get(id(span), ())):
            child_start = max(child_start, edge)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                edge = child_end
        out[span[_NAME]] = out.get(span[_NAME], 0.0) + (end - start) - covered
    return out
