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
  (private parser, parse-once document cache, compiled-expression
  cache), so no shared mutable evaluation state exists;
* batches, metrics and partial aggregates are merged in split
  order, so concatenation order and float-sum association are fixed;
* group order and group representatives follow first occurrence across
  ordered splits — the same rows serial execution would pick;
* per-split fallback stays split-local (the combiner's morsel API), and
  whole-scan accounting (cache hits, breaker close, degraded counters)
  settles once on the coordinator (``finish_morsels``).

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
from .expressions import Expression
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


def _graft_worker_spans(state: ExecState, results: list) -> None:
    """Attach completed workers' span subtrees on an error path, so the
    coordinator tree stays well-formed (every recorded split appears
    exactly once) even when the query is about to fail."""
    if state.tracer is None:
        return
    for entry in results:
        if entry is None:
            continue
        metrics = entry[2]
        subtree = metrics.extra.pop("span_tree", None)
        if isinstance(subtree, dict):
            state.tracer.graft(subtree)


def _run_morsels(state: ExecState, units: list, fn, plan=None) -> list:
    """Run ``fn(worker_state, unit)`` for every unit; results in unit order.

    Dispatches to the session's worker pool when the state carries one
    and there is genuine parallelism to exploit; otherwise runs inline.
    Each invocation gets a forked state; the returned tuples carry the
    worker's metrics so the coordinator can merge them deterministically.

    ``plan`` describes the same work declaratively for the process
    backend (:mod:`repro.engine.procpool`), whose workers cannot run the
    ``fn`` closure and instead ship the pipeline itself.
    """

    def task(unit):
        worker = state.fork()
        worker.check_cancelled()
        split_span = None
        if state.tracer is not None:
            from ..obs.trace import Tracer, export_subtree

            tracer = Tracer(clock=time.perf_counter)
            worker.tracer = tracer
            split_span = tracer.begin(
                "split",
                backend="thread",
                worker=threading.current_thread().name,
            )
        started = time.perf_counter()
        try:
            payload, fallback = fn(worker, unit)
        finally:
            if split_span is not None:
                tracer.end(split_span)
        _fold_context_stats(worker.metrics, worker.context)
        if split_span is not None:
            worker.metrics.extra["span_tree"] = export_subtree(split_span)
        return payload, fallback, worker.metrics, time.perf_counter() - started

    pool = state.scan_pool
    if pool is not None and len(units) > 1:
        state.check_cancelled()
        run_in_processes = getattr(pool, "run_morsels", None)
        if run_in_processes is not None and plan is not None:
            if _reads_live_segments(plan):
                # Process snapshots cannot see live telemetry appends;
                # run system-table scans inline on the coordinator.
                return [task(unit) for unit in units]
            return run_in_processes(state, plan, units)
        futures = [pool.submit(task, unit) for unit in units]
        results = []
        first_error: BaseException | None = None
        for future in futures:
            if first_error is not None:
                # Free workers promptly: unstarted morsels are dropped;
                # running ones unwind at their next cancellation check.
                future.cancel()
                continue
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                first_error = exc
        if first_error is not None:
            # Drain stragglers so no morsel of this query is still
            # running when the error surfaces to the caller.
            for future in futures:
                if not future.cancel():
                    try:
                        future.result()
                    except BaseException:  # noqa: BLE001 - already failing
                        pass
            _graft_worker_spans(state, results)
            raise first_error
        return results
    return [task(unit) for unit in units]


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

    def _process(self, worker: ExecState, unit) -> tuple[ColumnBatch, bool]:
        """One split on a worker-local state: the scan's morsel, then
        every stage's body."""
        batch, fallback = self.scan.run_morsel(worker, unit)
        worker.check_cancelled()
        for stage in self.stages:
            batch = stage.apply(worker, batch)
        return batch, fallback

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        scan = _scan_of(self)
        results = _run_morsels(
            state, scan.morsel_units(state), self._process, plan=self
        )
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

    def _partials(self, worker: ExecState, unit):
        batch, fallback = self.pipeline._process(worker, unit)
        return (*self.accumulate(worker, batch), batch.length), fallback

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        scan = _scan_of(self)
        results = _run_morsels(
            state, scan.morsel_units(state), self._partials, plan=self
        )
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
            return child
        if isinstance(node, AggregateExec) and not isinstance(
            child.top, ProjectExec
        ):
            return MorselAggregateExec(
                pipeline=child, group_keys=node.group_keys, output=node.output
            )
        return None

    return plan.transform_nodes(visit)
