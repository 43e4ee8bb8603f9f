"""Per-query trace contexts: span trees and JSONL export.

A :class:`Tracer` records one tree of :class:`Span` objects for a unit
of work — a query (``query → plan → rewrite → execute → scan → …``) or a
midnight maintenance cycle (``midnight → collect → predict → score →
build → swap``). Spans carry wall-clock bounds plus free-form numeric
attributes (rows, bytes, parse counts, cache hits), which is what the
``EXPLAIN ANALYZE`` renderer and the span-vs-:class:`~repro.engine.
metrics.QueryMetrics` reconciliation tests consume.

Design constraints, in order:

* **Zero cost when off.** Nothing in the engine holds a tracer by
  default: plans are only instrumented (wrapped in
  :class:`~repro.obs.instrument.TracedExec` nodes) when a query is
  handed an explicit tracer, so the disabled path executes the exact
  same operator code as before this module existed.
* **Single-threaded per tracer.** One tracer belongs to one query (or
  one maintenance cycle) on one thread; the server creates one per
  traced request. Cross-thread aggregation happens in the
  :class:`~repro.obs.metrics.MetricsRegistry`, not here.
* **Flat JSONL export.** :class:`TraceSink` appends one JSON object per
  span (``trace_id``/``span_id``/``parent_id`` reconstruct the tree), so
  trace files stream and concatenate like logs.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = ["Span", "Tracer", "TraceSink", "export_subtree", "span_if"]

_trace_ids = itertools.count(1)


class Span:
    """One timed node of a trace tree."""

    __slots__ = (
        "name",
        "label",
        "span_id",
        "parent_id",
        "started_seconds",
        "ended_seconds",
        "attributes",
        "children",
    )

    def __init__(
        self,
        name: str,
        label: str = "",
        span_id: int = 0,
        parent_id: int | None = None,
    ) -> None:
        self.name = name
        self.label = label or name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_seconds = 0.0
        self.ended_seconds = 0.0
        self.attributes: dict[str, object] = {}
        self.children: list[Span] = []

    @property
    def wall_seconds(self) -> float:
        return max(0.0, self.ended_seconds - self.started_seconds)

    def find(self, name: str) -> "Span | None":
        """First descendant (depth-first, self included) named ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant (self included) named ``name``, depth-first."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find_all(name))
        return out

    def walk(self):
        """Depth-first iteration over self and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total(self, attribute: str) -> float:
        """Sum of a numeric attribute over this subtree's *leaf-most*
        carriers: spans whose own attributes include it. Callers summing
        inclusive counters should instead read the root's attribute."""
        value = self.attributes.get(attribute, 0) or 0
        return float(value) + sum(c.total(attribute) for c in self.children)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "label": self.label,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_seconds": self.started_seconds,
            "wall_seconds": self.wall_seconds,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Records one span tree. Not thread-safe by design (one per query)."""

    #: Instrumentation hooks check this instead of ``isinstance``; a
    #: subclass can flip it to drop span recording while keeping the API.
    enabled = True

    def __init__(self, trace_id: str | None = None, clock=time.perf_counter) -> None:
        self.trace_id = trace_id or f"trace-{next(_trace_ids)}"
        self.clock = clock
        self.root: Span | None = None
        self._stack: list[Span] = []
        self._next_span_id = 1

    # ------------------------------------------------------------------
    def begin(self, name: str, label: str = "", **attributes) -> Span:
        """Open a span as a child of the current innermost span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            label=label,
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent is not None else None,
        )
        self._next_span_id += 1
        if attributes:
            span.attributes.update(attributes)
        span.started_seconds = self.clock()
        if parent is not None:
            parent.children.append(span)
        elif self.root is None:
            self.root = span
        else:  # a second root: wrap is missing; attach to keep the tree
            self.root.children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` (and anything opened inside it but left open)."""
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            top.ended_seconds = now
            if top is span:
                break
        return span

    @contextmanager
    def span(self, name: str, label: str = "", **attributes):
        span = self.begin(name, label=label, **attributes)
        try:
            yield span
        finally:
            self.end(span)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes) -> None:
        """Merge attributes into the current innermost span (no-op when
        no span is open)."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """All recorded spans, depth-first from the root."""
        if self.root is None:
            return []
        return list(self.root.walk())

    def to_dicts(self) -> list[dict[str, object]]:
        out = []
        for span in self.spans():
            payload = span.to_dict()
            payload["trace_id"] = self.trace_id
            out.append(payload)
        return out

    # ------------------------------------------------------------------
    # cross-tracer propagation (morsel workers → coordinator)
    # ------------------------------------------------------------------
    def graft(self, tree: dict) -> Span:
        """Attach a worker-exported subtree (see :func:`export_subtree`)
        under the current innermost span.

        Span ids are reassigned from this tracer's counter so the merged
        tree has no duplicates regardless of which worker produced the
        subtree. Timestamps are rebased onto this tracer's clock: worker
        clocks (another thread's or process's ``perf_counter``) share no
        epoch with ours, so the subtree is shifted to *end now* — at the
        moment the coordinator received it — which preserves every
        relative offset and duration inside the subtree.
        """
        parent = self._stack[-1] if self._stack else None
        now = self.clock()
        try:
            span_end = float(tree["start"]) + float(tree["wall"])
        except (KeyError, TypeError, ValueError):
            span_end = now
        shift = now - span_end

        def build(node: dict, parent_id: int | None) -> Span:
            span = Span(
                str(node.get("name", "span")),
                label=str(node.get("label", "")),
                span_id=self._next_span_id,
                parent_id=parent_id,
            )
            self._next_span_id += 1
            attributes = node.get("attributes")
            if isinstance(attributes, dict):
                span.attributes.update(attributes)
            try:
                span.started_seconds = float(node["start"]) + shift
                span.ended_seconds = span.started_seconds + float(node["wall"])
            except (KeyError, TypeError, ValueError):
                span.started_seconds = span.ended_seconds = now
            for child in node.get("children") or ():
                if isinstance(child, dict):
                    span.children.append(build(child, span.span_id))
            return span

        root = build(tree, parent.span_id if parent is not None else None)
        if parent is not None:
            parent.children.append(root)
        elif self.root is None:
            self.root = root
        else:
            root.parent_id = self.root.span_id
            self.root.children.append(root)
        return root


def span_if(tracer: Tracer | None, name: str, label: str = "", **attributes):
    """``tracer.span(name, …)``, or a no-op context when ``tracer`` is None."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, label=label, **attributes)


def export_subtree(span: Span) -> dict:
    """A self-contained, JSON-serialisable copy of ``span``'s subtree.

    The format :meth:`Tracer.graft` consumes: ``start`` is the worker
    clock's absolute start (meaningless across processes on its own —
    graft rebases it), ``wall`` the duration, ids deliberately omitted
    (the receiving tracer assigns fresh ones).
    """
    return {
        "name": span.name,
        "label": span.label,
        "start": span.started_seconds,
        "wall": span.wall_seconds,
        "attributes": dict(span.attributes),
        "children": [export_subtree(child) for child in span.children],
    }


class TraceSink:
    """Appends finished traces to a JSONL file, one span per line.

    Thread-safe: server worker threads write completed query traces
    concurrently with the maintenance thread writing midnight traces.
    ``max_spans`` bounds the file (oldest-first truncation is *not*
    attempted — the sink simply stops writing and counts drops), so a
    long replay cannot fill the disk.
    """

    def __init__(
        self,
        directory: str | Path,
        filename: str = "traces.jsonl",
        max_spans: int = 250_000,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / filename
        self.max_spans = max_spans
        self.spans_written = 0
        self.traces_written = 0
        self.spans_dropped = 0
        self._lock = threading.Lock()

    def write(self, tracer: Tracer, **metadata) -> int:
        """Append every span of ``tracer``; returns spans written.

        ``metadata`` (query id, tenant, generation, …) is merged into
        each exported line so a flat grep can slice by any of them.
        """
        payloads = tracer.to_dicts()
        if not payloads:
            return 0
        lines = []
        for payload in payloads:
            if metadata:
                payload.update(metadata)
            lines.append(json.dumps(payload, sort_keys=True))
        with self._lock:
            budget = self.max_spans - self.spans_written
            if budget <= 0:
                self.spans_dropped += len(lines)
                return 0
            kept = lines[:budget]
            self.spans_dropped += len(lines) - len(kept)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(kept) + "\n")
            self.spans_written += len(kept)
            self.traces_written += 1
            return len(kept)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "path": str(self.path),
                "traces_written": self.traces_written,
                "spans_written": self.spans_written,
                "spans_dropped": self.spans_dropped,
            }
