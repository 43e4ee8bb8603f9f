"""Physical-plan instrumentation: wrap operators in tracing decorators.

``instrument_plan`` rewrites a compiled physical plan so every operator
node is wrapped in a :class:`TracedExec` that records a span (wall time
plus *inclusive* counter deltas — read/parse seconds, bytes, documents,
cache hits, row groups) around the node's execution. Because
instrumentation is a plan rewrite performed only when a query carries a
tracer, the untraced path executes the original operator objects with
zero added branches — the "near-zero overhead when disabled" contract is
structural, not measured.

Counter deltas are taken against a combined snapshot of the execution's
:class:`~repro.engine.metrics.QueryMetrics` and the live parser stats of
its :class:`~repro.engine.expressions.EvalContext` (parse time accrues
in the parsers until the session folds it into the metrics at query
end). Deltas are inclusive of children; ``EXPLAIN ANALYZE`` and the
reconciliation tests subtract child spans where they need self-time.
"""

from __future__ import annotations

from ..engine.metrics import QueryMetrics
from ..engine.parallel import MorselPipelineExec, _fold_context_stats
from ..engine.physical import (
    AggregateExec,
    ExecState,
    FilterExec,
    HashJoinExec,
    LimitExec,
    PhysicalPlan,
    ProjectExec,
    ScanExec,
    SortExec,
)

__all__ = ["TracedExec", "instrument_plan", "stage_of", "COUNTER_KEYS"]

#: Inclusive per-span counters, in snapshot order.
COUNTER_KEYS = (
    "read_seconds",
    "parse_seconds",
    "parse_documents",
    "parse_bytes",
    "bytes_read",
    "rows_scanned",
    "row_groups_total",
    "row_groups_skipped",
    "row_groups_proven",
    "cache_hits",
    "cache_misses",
    "shared_parse_hits",
    "duplicate_extractions_eliminated",
)

_STAGE_BY_TYPE = {
    ScanExec: "scan",
    FilterExec: "filter",
    ProjectExec: "project",
    AggregateExec: "aggregate",
    SortExec: "sort",
    LimitExec: "limit",
    HashJoinExec: "join",
}


def stage_of(node: PhysicalPlan) -> str:
    """The span name for an operator (subclass-aware: MaxsonScanExec is
    a scan; unknown operators fall back to their lowercased class name)."""
    for node_type, stage in _STAGE_BY_TYPE.items():
        if isinstance(node, node_type):
            return stage
    return type(node).__name__.replace("Exec", "").lower()


def counter_snapshot(state: ExecState) -> tuple[float, ...]:
    """Current inclusive counter values, parsers folded in live."""
    metrics = state.metrics
    live = QueryMetrics()
    _fold_context_stats(live, state.context)
    return (
        metrics.read_seconds,
        metrics.parse_seconds + live.parse_seconds,
        metrics.parse_documents + live.parse_documents,
        metrics.parse_bytes + live.parse_bytes,
        metrics.bytes_read,
        metrics.rows_scanned,
        metrics.row_groups_total,
        metrics.row_groups_skipped,
        metrics.row_groups_proven,
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.shared_parse_hits + live.shared_parse_hits,
        metrics.duplicate_extractions_eliminated,
    )


class TracedExec(PhysicalPlan):
    """Transparent tracing decorator around one physical operator.

    Delegates the plan-shape queries (children, labels, output names) to
    the wrapped node, so ``describe`` output is unchanged, and nothing
    else: whoever needs the operator itself reads ``inner`` (the morsel
    pipeline does, for the coordinator half of its scan's morsel API).
    Only the three ways a node runs differ, each recording a span around
    the inner call: ``execute_batch`` (an operator pulled by its parent),
    ``apply`` (a pipeline stage, once per split) and ``run_morsel`` (a
    pipeline's scan, once per split). The span goes to ``state.tracer`` —
    the query's tracer on the coordinator, the split's own on a thread or
    process worker — so a wrapped plan holds no tracer and pickles to
    process workers as the plain one-field object it is.
    """

    def __init__(self, inner: PhysicalPlan) -> None:
        self.inner = inner

    # -- plan-shape passthrough ----------------------------------------
    def children(self) -> tuple[PhysicalPlan, ...]:
        return self.inner.children()

    def output_names(self) -> set[str]:
        return self.inner.output_names()

    def describe(self, indent: int = 0) -> str:
        return self.inner.describe(indent)

    def _label(self) -> str:
        return self.inner._label()

    # -- traced execution ----------------------------------------------
    def _traced(self, state: ExecState, run, *args):
        tracer = state.tracer
        span = tracer.begin(stage_of(self.inner), label=self.inner._label())
        before = counter_snapshot(state)
        try:
            result = run(state, *args)
        except Exception as exc:
            span.attributes["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            after = counter_snapshot(state)
            for key, b, a in zip(COUNTER_KEYS, before, after):
                delta = a - b
                if delta:
                    span.attributes[key] = delta
            tracer.end(span)
        batch = result[0] if isinstance(result, tuple) else result
        span.attributes["rows_out"] = batch.length
        return result

    def execute_batch(self, state: ExecState):
        return self._traced(state, self.inner.execute_batch)

    def apply(self, state: ExecState, batch):
        return self._traced(state, self.inner.apply, batch)

    def run_morsel(self, state: ExecState, unit):
        return self._traced(state, self.inner.run_morsel, unit)


def instrument_plan(plan: PhysicalPlan) -> PhysicalPlan:
    """Wrap every node of ``plan`` (bottom-up) in :class:`TracedExec`,
    a morsel pipeline's scan and absorbed stages included.

    Run *after* plan modifiers and ``parallelize_plan`` so the plan that
    is served is what gets timed. Idempotence guard: an already-wrapped
    node is left alone, so double instrumentation cannot double-count.
    """

    def wrap(node: PhysicalPlan) -> PhysicalPlan | None:
        if isinstance(node, TracedExec):
            return None
        pipeline = getattr(node, "pipeline", node)
        if isinstance(pipeline, MorselPipelineExec):
            pipeline.scan = TracedExec(pipeline.scan)
            pipeline.stages = [TracedExec(stage) for stage in pipeline.stages]
        return TracedExec(node)

    return plan.transform_nodes(wrap)

