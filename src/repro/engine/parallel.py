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
* per-split fallback stays split-local (the combiner's morsel API): a
  split's cache failures, metrics and span subtree come home as values
  and :func:`_settle` applies them on the coordinator, in split order,
  whether the query succeeds or fails; whole-scan accounting (cache
  hits, breaker close, degraded counters) follows once
  (``finish_morsels``).

One runner, one settle
----------------------
Every split on every backend — inline, thread pool, process worker —
runs through :func:`_run_split`, the only place a ``split`` span opens;
a failing split's result rides home on its error. Inline and pooled
splits are collected alike (:func:`_failed` keeps a failing split's
result) and settled by one :func:`_settle`.

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


def _scan_of(plan) -> ScanExec:
    """The scan feeding a morsel plan (pipeline or partial aggregate) —
    unwrapped, for the coordinator half of the morsel API and the scan's
    own fields; only ``run_morsel`` goes through ``pipeline.scan``."""
    return _unwrapped(getattr(plan, "pipeline", plan).scan)


def _run_split(
    worker: ExecState, plan, unit, traced: bool, backend: str, name: str
) -> tuple:
    """Run one split of ``plan`` on the worker-local state ``worker`` —
    a fork on the coordinator (inline or thread pool), the warm snapshot
    in a process worker. The one place a ``split`` span opens: when
    ``traced``, the worker gets its own tracer and the split's subtree
    rides home in ``metrics.extra["span_tree"]``, beside the split's
    cache failures (``"cache_failures"``). Returns ``(payload, fallback,
    metrics, seconds)``; a split that fails raises its error carrying that
    tuple (payload ``None``) as ``split_result``, so what it did before
    failing comes home with the error on every backend."""
    worker.check_cancelled()
    span = None
    if traced:
        from ..obs.trace import Tracer

        worker.tracer = Tracer(clock=time.perf_counter)
        span = worker.tracer.begin("split", backend=backend, worker=name)
    started = time.perf_counter()
    payload, fallback, error = None, False, None
    try:
        payload, fallback = plan.run_split(worker, unit)
    except BaseException as exc:  # noqa: BLE001 - re-raised below
        error = exc
    _fold_context_stats(worker.metrics, worker.context)
    seconds = time.perf_counter() - started
    if span is not None:
        from ..obs.trace import export_subtree

        span.attributes.update(fallback=bool(fallback), seconds=seconds)
        if error is not None:
            span.attributes["error"] = f"{type(error).__name__}: {error}"
        worker.tracer.end(span)
        worker.metrics.extra["span_tree"] = export_subtree(span)
    result = (payload, fallback, worker.metrics, seconds)
    if error is not None:
        error.split_result = result
        raise error
    return result


def _failed(completed: list, error: BaseException) -> BaseException:
    """A split's ``error``, after appending to ``completed`` the
    ``split_result`` it carries — what the split did before failing."""
    done = vars(error).pop("split_result", None)
    if done is not None:
        completed.append(done)
    return error


def _gather(futures: list, on_error=None) -> tuple[list, BaseException | None]:
    """``(completed, first_error)`` of split futures, in split order.

    At the first error ``on_error`` runs, splits not yet started are
    cancelled and running ones drained, so no split of the query is still
    running when the error surfaces. Pools start splits in order, so the
    splits that ran are a prefix of the split order."""
    completed: list = []
    first_error: BaseException | None = None
    for future in futures:
        if first_error is not None and future.cancelled():
            continue
        try:
            completed.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - returned to the caller
            _failed(completed, exc)
            if first_error is None:
                first_error = exc
                if on_error is not None:
                    on_error()
                for later in futures:
                    later.cancel()
    return completed, first_error


#: Process-backend transport extras → the split span attribute showing them.
_TRANSPORT = (("shm_bytes", "shm_bytes"), ("proc_dispatch_seconds", "dispatch_seconds"))


def _settle(state: ExecState, scan: ScanExec, completed: list) -> int:
    """Settle every split that ran, on the coordinator and in split
    order, whether the query succeeds or fails: merge its metrics, graft
    its span subtree (with its index and transport extras) and replay its
    cache failures — the only way a split reaches the breaker. Returns
    the fallback split count."""
    fallback_splits = 0
    for index, (_, fallback, metrics, _) in enumerate(completed):
        extra = metrics.extra
        subtree = extra.pop("span_tree", None)
        failures = extra.pop("cache_failures", None)
        if failures:
            scan.replay_cache_failures(failures)
        state.metrics.merge(metrics)
        if fallback:
            fallback_splits += 1
        if subtree is not None:
            span = state.tracer.graft(subtree)
            span.attributes["index"] = index
            for key, attribute in _TRANSPORT:
                if key in extra:
                    span.attributes[attribute] = extra[key]
    return fallback_splits


def _run_morsels(state: ExecState, plan) -> list:
    """Run every split of ``plan``'s scan; payloads in split order.

    Inline when the state carries no worker pool or there is one split,
    else on the session's pool: a thread pool runs :func:`_run_split` on
    forked states, a process pool (:mod:`repro.engine.procpool`) ships
    the plan itself to workers that run it on their snapshots. Every
    split that ran is then settled (:func:`_settle`); the first error is
    raised after that, else the scan's whole-scan accounting runs.
    """
    scan = _scan_of(plan)
    units = scan.morsel_units(state)
    traced = state.tracer is not None

    def task(unit):
        name = threading.current_thread().name
        return _run_split(state.fork(), plan, unit, traced, "thread", name)

    pool = state.scan_pool
    run_in_processes = getattr(pool, "run_morsels", None)
    # Telemetry appends never bump the catalog version, so a process
    # worker's snapshot would miss new ``system.*`` segments and return
    # stale rows: a process pool leaves system-table scans inline.
    if pool is None or len(units) < 2 or (
        run_in_processes is not None and scan.database.lower() == "system"
    ):
        completed, error = [], None
        for unit in units:
            try:
                completed.append(task(unit))
            except BaseException as exc:  # noqa: BLE001 - raised once settled
                error = _failed(completed, exc)
                break
    else:
        state.check_cancelled()
        if run_in_processes is None:
            completed, error = _gather([pool.submit(task, unit) for unit in units])
        else:
            completed, error = run_in_processes(state, plan, units)
    fallback_splits = _settle(state, scan, completed)
    if error is not None:
        raise error
    scan.finish_morsels(state, fallback_splits)
    return [payload for payload, _, _, _ in completed]


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
        every stage's body. A traced split span shows the rows out."""
        batch, fallback = self.scan.run_morsel(worker, unit)
        worker.check_cancelled()
        for stage in self.stages:
            batch = stage.apply(worker, batch)
        if worker.tracer is not None:
            worker.tracer.annotate(rows=batch.length)
        return batch, fallback

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        batches = _run_morsels(state, self)
        if batches:
            return concat_batches(batches)
        # No split ran, so the plan alone shapes the (empty) output: a
        # projection's SELECT-list names, else the scan's columns.
        top = _unwrapped(self.top)
        if isinstance(top, ProjectExec):
            names = dict.fromkeys(e.output_name() for e in top.expressions)
        else:
            names = _scan_of(self).morsel_output_names()
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
        return self.accumulate(worker, batch), fallback

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        merged: dict[tuple, list[_Accumulator]] = {}
        representatives: dict[tuple, dict] = {}
        for groups, reps in _run_morsels(state, self):
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
