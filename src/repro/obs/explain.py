"""``EXPLAIN ANALYZE`` rendering: an annotated plan from a query trace.

Turns the span tree recorded by an instrumented execution into the
familiar per-operator breakdown: one line per physical operator, indented
by plan depth, annotated with actual wall time, row counts and the
Maxson-specific counters (parse documents/bytes, cache hits, row groups
skipped). The renderer reads only span names and attributes.
"""

from __future__ import annotations

from .trace import Span

__all__ = ["render_explain_analyze", "operator_root"]

#: Attribute -> (display key, formatter). Order is display order.
_ANNOTATIONS = (
    ("rows_out", "rows", lambda v: f"{int(v)}"),
    ("read_seconds", "read", lambda v: f"{v * 1000:.2f}ms"),
    ("parse_seconds", "parse", lambda v: f"{v * 1000:.2f}ms"),
    ("parse_documents", "docs", lambda v: f"{int(v)}"),
    ("parse_bytes", "parse_bytes", lambda v: f"{int(v)}"),
    ("bytes_read", "bytes", lambda v: f"{int(v)}"),
    ("rows_scanned", "scanned", lambda v: f"{int(v)}"),
    ("cache_hits", "cache_hits", lambda v: f"{int(v)}"),
    ("cache_misses", "cache_misses", lambda v: f"{int(v)}"),
    ("row_groups_skipped", "rg_skipped", lambda v: f"{int(v)}"),
    ("row_groups_total", "rg_total", lambda v: f"{int(v)}"),
    ("shared_parse_hits", "shared_parse_hits", lambda v: f"{int(v)}"),
    (
        "duplicate_extractions_eliminated",
        "dup_elim",
        lambda v: f"{int(v)}",
    ),
    ("fallback_splits", "fallback_splits", lambda v: f"{int(v)}"),
    ("degraded", "degraded", lambda v: "yes" if v else "no"),
    ("error", "error", str),
)

#: Span names that are interior detail of an operator, not operators
#: themselves; they render one level deeper with a ``+`` marker.
_DETAIL_SPANS = {"combine", "parse"}


def operator_root(root: Span) -> Span | None:
    """The top operator span under a query trace (or ``root`` itself
    when the caller hands the operator subtree directly)."""
    if root is None:
        return None
    execute = root.find("execute")
    if execute is not None:
        return execute.children[0] if execute.children else None
    if root.name in ("query", "midnight"):
        return None
    return root


def _format_annotations(span: Span) -> str:
    parts = [f"time={span.wall_seconds * 1000:.2f}ms"]
    for attribute, display, fmt in _ANNOTATIONS:
        value = span.attributes.get(attribute)
        if value is None:
            continue
        parts.append(f"{display}={fmt(value)}")
    return " ".join(parts)


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    marker = "+ " if span.name in _DETAIL_SPANS else "-> " if depth else ""
    title = span.label if span.label != span.name else span.name
    if span.name not in _DETAIL_SPANS and not title.lower().startswith(
        span.name
    ):
        title = f"{span.name}: {title}"
    lines.append(
        f"{'  ' * depth}{marker}{title}  [{_format_annotations(span)}]"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_explain_analyze(
    root: Span,
    metrics=None,
    sql: str = "",
) -> str:
    """Render a query trace as an ``EXPLAIN ANALYZE`` report.

    ``root`` is the ``query`` span (as produced by
    ``Session.explain_analyze``) or any operator span subtree.
    ``metrics`` (a :class:`~repro.engine.metrics.QueryMetrics`) adds the
    query-level read/parse/compute footer the paper's evaluation plots.
    """
    lines: list[str] = []
    lines.append("EXPLAIN ANALYZE")
    if sql:
        lines.append(f"query: {sql.strip()}")
    if root is not None and root.name == "query":
        lines.append(f"total: {root.wall_seconds * 1000:.2f}ms")
        for stage in ("plan", "rewrite"):
            span = root.find(stage)
            if span is not None:
                lines.append(
                    f"{stage}: {span.wall_seconds * 1000:.2f}ms"
                )
    top = operator_root(root)
    if top is None:
        lines.append("(no operator spans recorded)")
    else:
        execute = root.find("execute") if root is not None else None
        if execute is not None:
            lines.append(
                f"execute: {execute.wall_seconds * 1000:.2f}ms"
            )
        lines.append("")
        _render_span(top, 0, lines)
    if metrics is not None:
        lines.append("")
        lines.append(
            "metrics: read={:.2f}ms parse={:.2f}ms compute={:.2f}ms "
            "parse_fraction={:.1%} docs={} cache_hits={} "
            "rg_skipped={}/{}".format(
                metrics.read_seconds * 1000,
                metrics.parse_seconds * 1000,
                metrics.compute_seconds * 1000,
                metrics.parse_fraction,
                metrics.parse_documents,
                metrics.cache_hits,
                metrics.row_groups_skipped,
                metrics.row_groups_total,
            )
        )
    return "\n".join(lines)
