"""Morsel-driven split-level parallel execution.

The paper's Value Combiner (Algorithm 2) and predicate pushdown
(Algorithm 3) are both *file/split aligned*, which makes a file split the
natural morsel of intra-query parallelism (HyPer-style): each split runs
the whole scan→Sparser-prefilter→filter→project pipeline — including the
combiner's cache/raw stitching and its per-split degraded fallback — as
one work unit on a worker thread, and the coordinator merges the
per-split results **in split-index order**. Aggregations lower to
per-split partial aggregates merged the same way.

Determinism contract
--------------------
Results are bit-identical at any worker count, including 1, because
nothing about the computation depends on completion order:

* each worker gets a forked :class:`~repro.engine.physical.ExecState`
  (private parser and parse-once document cache) and reads the plan's
  one immutable expression program, whose per-batch results live on the
  split's own batches, so no shared mutable evaluation state exists;
* batches, metrics and partial aggregates are merged in split
  order, so concatenation order and float-sum association are fixed;
* group order and group representatives follow first occurrence across
  ordered splits — the same rows serial execution would pick;
* per-split fallback stays split-local (the combiner's morsel API), and
  whole-scan accounting (cache hits, breaker close, degraded counters)
  settles once on the coordinator (``finish_morsels``).

One runner
----------
Every split on every backend — inline, thread pool, process worker —
runs through :func:`_run_split`, the only place a ``split`` span opens;
the split's span subtree rides home in its metrics. Pooled splits are
collected by one :func:`_gather`, and a failing query grafts what
completed through one :func:`_graft_completed`.

``scan_workers == 1`` runs the identical morsel path inline, so "serial"
and "parallel" differ only in which thread executes a split. There is no
other scan path: the pipeline applies the absorbed operators' own bodies
(``UnaryExec.apply``), and a traced plan is this plan with its nodes
wrapped (:mod:`repro.obs.instrument`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .batch import ColumnBatch
from .expressions import CachedField, Column, Expression, split_conjuncts, walk
from .metrics import QueryMetrics
from .physical import (
    AggregateExec,
    ExecState,
    FilterExec,
    GroupedAggregation,
    PhysicalPlan,
    ProjectExec,
    ScanExec,
    UnaryExec,
    _Accumulator,
    concat_batches,
    expression_slots,
    slot_expression,
)
from .rawfilter import SparserPrefilterExec

__all__ = ["MorselPipelineExec", "MorselAggregateExec", "parallelize_plan"]


def _fold_context_stats(metrics: QueryMetrics, context) -> None:
    """Fold a context's parser and sharing counters into ``metrics`` —
    the one place they meet. A context is folded once, when its work is
    over: the coordinator's by the session, a split's by its worker, a
    degraded split's fallback context by the combiner."""
    metrics.shared_parse_hits += context.shared_parse_hits()
    metrics.doc_cache_evictions += context.doc_cache_evictions()
    for parser in (context.parser, context.projection_parser, context.xml_parser):
        stats = getattr(parser, "stats", None)
        if stats is None:
            continue
        metrics.parse_seconds += stats.seconds
        metrics.parse_documents += stats.documents
        metrics.parse_bytes += stats.bytes_scanned


def _unwrapped(node):
    """The operator itself: a traced plan runs its nodes through wrappers
    (:class:`repro.obs.instrument.TracedExec`) that keep it in ``inner``."""
    return getattr(node, "inner", node)


def _scan_of(plan) -> ScanExec | None:
    """The scan feeding a morsel plan (pipeline or partial aggregate) —
    unwrapped, for the coordinator half of the morsel API and the scan's
    own fields; only ``run_morsel`` goes through ``pipeline.scan``."""
    if plan is None:
        return None
    pipeline = getattr(plan, "pipeline", plan)
    return _unwrapped(getattr(pipeline, "scan", None))


def _reads_live_segments(plan) -> bool:
    """True when the plan scans ``system.*`` telemetry segments.

    Telemetry appends deliberately never bump the catalog version, so a
    process worker's warm snapshot would miss segments written since it
    was built and silently return stale rows. Such scans stay in this
    process (thread pool or inline), where the live file system is
    visible.
    """
    scan = _scan_of(plan)
    return scan is not None and scan.database.lower() == "system"


def _run_split(
    worker: ExecState, plan, unit, traced: bool, backend: str, name: str
) -> tuple:
    """Run one split of ``plan`` on the worker-local state ``worker`` —
    a fork on the coordinator (inline or thread pool), the warm snapshot
    in a process worker. The one place a ``split`` span opens: when
    ``traced``, the worker gets its own tracer and the split's subtree
    rides home in ``metrics.extra["span_tree"]``. Returns ``(payload,
    fallback, metrics, seconds)``."""
    worker.check_cancelled()
    span = None
    if traced:
        from ..obs.trace import Tracer

        worker.tracer = Tracer(clock=time.perf_counter)
        span = worker.tracer.begin("split", backend=backend, worker=name)
    started = time.perf_counter()
    payload, fallback = plan.run_split(worker, unit)
    _fold_context_stats(worker.metrics, worker.context)
    seconds = time.perf_counter() - started
    if span is not None:
        from ..obs.trace import export_subtree

        worker.tracer.end(span)
        worker.metrics.extra["span_tree"] = export_subtree(span)
    return payload, fallback, worker.metrics, seconds


def _gather(futures: list, on_error=None) -> tuple[list, BaseException | None]:
    """``(completed, first_error)`` of split futures, in split order.

    At the first error ``on_error`` runs, splits not yet started are
    cancelled and running ones drained, so no split of the query is still
    running when the error surfaces; a drained split that completed is
    kept, so its subtree is grafted and its cache failures replayed."""
    completed: list = []
    first_error: BaseException | None = None
    for future in futures:
        if first_error is not None and future.cancelled():
            continue
        try:
            completed.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - returned to the caller
            if first_error is None:
                first_error = exc
                if on_error is not None:
                    on_error()
                for later in futures:
                    later.cancel()
    return completed, first_error


def _graft_completed(state: ExecState, completed: list) -> None:
    """The failure path: graft completed splits' span subtrees, so the
    coordinator tree stays well-formed (every recorded split appears
    exactly once) when the query is about to fail, and fold their
    transport accounting into the query's own metrics."""
    extra = state.metrics.extra
    for _, _, metrics, _ in completed:
        subtree = metrics.extra.pop("span_tree", None)
        for key in ("proc_dispatch_seconds", "shm_bytes"):
            value = metrics.extra.get(key)
            if value:
                extra[key] = extra.get(key, 0) + value
        if state.tracer is not None and subtree is not None:
            state.tracer.graft(subtree)


def _run_morsels(state: ExecState, plan, units: list) -> list:
    """Run every split of ``plan``; results in split order.

    Inline when the state carries no worker pool or there is one split,
    else on the session's pool: a thread pool runs :func:`_run_split` on
    forked states, a process pool (:mod:`repro.engine.procpool`) ships
    the plan itself to workers that run it on their snapshots. The
    returned tuples carry each split's metrics so the coordinator merges
    them deterministically.
    """
    traced = state.tracer is not None

    def task(unit):
        name = threading.current_thread().name
        return _run_split(state.fork(), plan, unit, traced, "thread", name)

    pool = state.scan_pool
    run_in_processes = getattr(pool, "run_morsels", None)
    # Process snapshots cannot see live telemetry appends, so a process
    # pool leaves system-table scans inline on the coordinator.
    if pool is None or len(units) < 2 or (
        run_in_processes is not None and _reads_live_segments(plan)
    ):
        return [task(unit) for unit in units]
    state.check_cancelled()
    if run_in_processes is None:
        completed, error = _gather([pool.submit(task, unit) for unit in units])
    else:
        completed, error = run_in_processes(state, plan, units)
    if error is not None:
        _graft_completed(state, completed)
        raise error
    return completed


def _settle(state: ExecState, scan: ScanExec, results: list, row_counts: list) -> int:
    """Coordinator-side merge: metrics in split order, per-split spans,
    then the scan's whole-scan accounting. Returns fallback split count."""
    fallback_splits = 0
    for index, (_, fallback, metrics, seconds) in enumerate(results):
        # The worker's exported span subtree is transport, not a counter:
        # pop it before the merge (merge would try to add dicts).
        subtree = metrics.extra.pop("span_tree", None)
        state.metrics.merge(metrics)
        if fallback:
            fallback_splits += 1
        if state.tracer is not None:
            span = state.tracer.graft(subtree)
            span.attributes["index"] = index
            span.attributes["rows"] = row_counts[index]
            span.attributes["fallback"] = bool(fallback)
            span.attributes["seconds"] = seconds
            # Process-backend transport accounting, when present.
            shm_bytes = metrics.extra.get("shm_bytes")
            if shm_bytes is not None:
                span.attributes["shm_bytes"] = shm_bytes
            dispatch = metrics.extra.get("proc_dispatch_seconds")
            if dispatch is not None:
                span.attributes["dispatch_seconds"] = dispatch
    scan.finish_morsels(state, fallback_splits)
    return fallback_splits


@dataclass
class MorselPipelineExec(PhysicalPlan):
    """Scan→prefilter→filter→project, executed one split at a time.

    ``stages`` are the operators absorbed from above the scan, in the
    order they apply; each keeps its one body (``UnaryExec.apply``) and
    its ``child`` pointer — the operator below it — so the chain still
    describes itself. The attribute names deliberately avoid ``child`` so
    later plan rewrites treat the pipeline as one opaque operator.
    """

    scan: ScanExec
    stages: list[UnaryExec] = field(default_factory=list)

    @property
    def top(self) -> PhysicalPlan:
        """The last operator a split's batch passes through."""
        return self.stages[-1] if self.stages else self.scan

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.top,)

    def output_names(self) -> set[str]:
        return self.top.output_names()

    def _label(self) -> str:
        return "MorselPipeline"

    def bind(self, binder) -> PhysicalPlan:
        top = self.top.bind(binder)
        if top is self.top:
            return self
        chain = [top]  # the bound stages, top down, re-linked by child
        for _ in self.stages:
            chain.append(chain[-1].child)
        return MorselPipelineExec(scan=chain[-1], stages=chain[-2::-1])

    def run_split(self, worker: ExecState, unit) -> tuple[ColumnBatch, bool]:
        """One split on a worker-local state: the scan's morsel, then
        every stage's body."""
        batch, fallback = self.scan.run_morsel(worker, unit)
        worker.check_cancelled()
        for stage in self.stages:
            batch = stage.apply(worker, batch)
        return batch, fallback

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        scan = _scan_of(self)
        results = _run_morsels(state, self, scan.morsel_units(state))
        batches = [batch for batch, _, _, _ in results]
        _settle(state, scan, results, [b.length for b in batches])
        if batches:
            return concat_batches(batches)
        # No split ran, so the plan alone shapes the (empty) output: a
        # projection's SELECT-list names, else the scan's columns.
        top = _unwrapped(self.top)
        if isinstance(top, ProjectExec):
            names = dict.fromkeys(e.output_name() for e in top.expressions)
        else:
            names = scan.morsel_output_names()
        return concat_batches([], list(names))


@dataclass
class MorselAggregateExec(GroupedAggregation, PhysicalPlan):
    """Per-split partial aggregation with an ordered final merge.

    Each worker runs the pipeline stages over its split and accumulates
    group→accumulator partials; the coordinator merges partials in
    split-index order (:meth:`_Accumulator.merge`), so GROUP BY
    parallelizes without serializing rows at the sink and without
    perturbing float sums or group order.
    """

    pipeline: MorselPipelineExec
    group_keys: list[Expression]
    output: list[Expression]

    def children(self) -> tuple[PhysicalPlan, ...]:
        # This operator is what runs the pipeline's splits (the pipeline's
        # own execute_batch never does), so the plan lists the chain here.
        return self.pipeline.children()

    def _label(self) -> str:
        keys = ", ".join(e.sql() for e in self.group_keys) or "<global>"
        return f"MorselAggregate keys=[{keys}]"

    def run_split(self, worker: ExecState, unit):
        """One split's partial aggregates: the pipeline's batch,
        accumulated."""
        batch, fallback = self.pipeline.run_split(worker, unit)
        return (*self.accumulate(worker, batch), batch.length), fallback

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        scan = _scan_of(self)
        results = _run_morsels(state, self, scan.morsel_units(state))
        payloads = [payload for payload, _, _, _ in results]
        _settle(state, scan, results, [p[2] for p in payloads])
        merged: dict[tuple, list[_Accumulator]] = {}
        representatives: dict[tuple, dict] = {}
        for groups, reps, _ in payloads:
            for key, accumulators in groups.items():
                mine = merged.get(key)
                if mine is None:
                    # First occurrence across ordered splits: both group
                    # order and the representative row match what serial
                    # execution over the concatenated table would pick.
                    merged[key] = accumulators
                    representatives[key] = reps[key]
                else:
                    for acc, other in zip(mine, accumulators):
                        acc.merge(other)
        return self.finalise(state, merged, representatives)


def _names_read(expr: Expression) -> set[str]:
    """The batch columns an expression reads."""
    return {
        node.env_key if isinstance(node, CachedField) else node.name
        for node in walk(expr)
        if isinstance(node, (Column, CachedField))
    }


def _settle_filter_only(node: FilterExec, scan: ScanExec, plan) -> None:
    """Mark the columns of ``plan`` that only the scan's SARG-paired
    conjuncts read (``ScanExec.filter_only``): a split that proves those
    conjuncts does not decode them, and the filter drops them in every
    split."""
    pairs = (*scan.sargs, *getattr(scan, "cache_sargs", ()))
    if not pairs:
        return
    paired = {conjunct for conjunct, _ in pairs}
    elsewhere = set().union(
        *(
            _names_read(slot_expression(holder, slot))
            for holder, slot in expression_slots(plan)
            if holder is not node
        ),
        *(
            _names_read(conjunct)
            for conjunct in split_conjuncts(node.condition)
            if conjunct not in paired
        ),
    )
    # A bare name qualifies only if its qualified spelling does too.
    prefix = f"{scan.alias}." if scan.alias else ""
    node.drop = scan.filter_only = frozenset(
        name
        for name in scan.morsel_output_names()
        if name not in elsewhere and prefix + name not in elsewhere
    )


def parallelize_plan(plan: PhysicalPlan) -> PhysicalPlan:
    """Rewrite a physical plan onto the morsel execution path.

    Bottom-up absorption: every scan becomes a bare pipeline; a
    Sparser prefilter, a filter and a projection directly above a
    pipeline fold into it (in that stage order); an aggregation over a
    projection-less pipeline becomes a partial-aggregate operator.
    Anything else — sorts, limits, joins, filters over aggregates —
    keeps its operator and simply pulls from morselized inputs.
    """
    # The stage kinds a pipeline may already hold when it absorbs a node.
    absorbable = {
        SparserPrefilterExec: (),
        FilterExec: (SparserPrefilterExec,),
        ProjectExec: (SparserPrefilterExec, FilterExec),
    }

    def visit(node: PhysicalPlan) -> PhysicalPlan | None:
        if isinstance(node, ScanExec):
            return MorselPipelineExec(scan=node)
        child = getattr(node, "child", None)
        if not isinstance(child, MorselPipelineExec):
            return None
        below = absorbable.get(type(node))
        if below is not None:
            if not all(isinstance(stage, below) for stage in child.stages):
                return None
            # The bottom-up rewrite made the node's child the pipeline
            # itself; re-point it at the operator below it.
            node.child = child.top
            child.stages.append(node)
            if isinstance(node, FilterExec):
                _settle_filter_only(node, child.scan, plan)
            return child
        if isinstance(node, AggregateExec) and not isinstance(
            child.top, ProjectExec
        ):
            return MorselAggregateExec(
                pipeline=child, group_keys=node.group_keys, output=node.output
            )
        return None

    return plan.transform_nodes(visit)
