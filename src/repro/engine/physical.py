"""Physical operators.

Operators are pull-at-once: ``execute_batch(ExecState)`` returns one
:class:`~repro.engine.batch.ColumnBatch`. The engine's data volumes are
single-node scale, so whole-operator materialisation keeps the code
straightforward while still letting us attribute time precisely (scans
time their own I/O; JSON parse time accrues inside the shared
:class:`EvalContext`'s parser stats).

``ScanExec`` is deliberately *replaceable*: Maxson's plan rewriter swaps it
for a cache-aware subclass (``MaxsonScanExec`` in
:mod:`repro.core.combiner`) that runs the dual-reader Value Combiner. The
rest of the plan never notices.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

from ..storage.readers import ReadResult, split_reader
from ..storage.sargs import Sarg, conjunction
from .batch import ColumnBatch, ExpressionProgram, conjunction_values
from .catalog import Catalog
from .errors import ExecutionError
from .expressions import (
    AggregateCall,
    Column,
    EvalContext,
    Expression,
    GetJsonObject,
    Literal,
    _null_safe_compare,
    split_conjuncts,
    transform,
    walk,
)
from .logical import SortKey
from .metrics import QueryMetrics

__all__ = [
    "ExecState",
    "PhysicalPlan",
    "UnaryExec",
    "ScanExec",
    "FilterExec",
    "ProjectExec",
    "AggregateExec",
    "SortExec",
    "LimitExec",
    "HashJoinExec",
    "bind_plan",
    "compile_plan",
    "walk_plan",
    "expression_slots",
    "slot_expression",
    "json_paths_of",
]


@dataclass
class ExecState:
    """Everything shared across the operators of one query execution."""

    catalog: Catalog
    context: EvalContext
    metrics: QueryMetrics = field(default_factory=QueryMetrics)
    #: The plan's compiled expressions, shared read-only by the
    #: coordinator and every fork (the session hands in the plan's own;
    #: a state driven by hand compiles into a private one as it runs).
    program: ExpressionProgram = field(default_factory=ExpressionProgram)
    #: Optional :class:`repro.obs.trace.Tracer` for this execution. None
    #: on the untraced path; operators that emit interior spans (e.g. the
    #: Maxson combiner) must guard on ``state.tracer is not None``.
    tracer: object | None = None
    #: The session's morsel worker pool (thread or process backend);
    #: ``None`` — a serial session — runs every split inline.
    scan_pool: object | None = None
    #: Optional :class:`repro.engine.cancel.CancelToken` shared by the
    #: coordinator and every morsel worker. Checked at split/batch
    #: boundaries via :meth:`check_cancelled`.
    cancel_token: object | None = None

    def check_cancelled(self) -> None:
        """Raise ``QueryCancelledError``/``DeadlineExceededError`` if due."""
        token = self.cancel_token
        if token is not None:
            token.check()

    def fork(self) -> "ExecState":
        """A worker-local state for one morsel.

        Shares the catalog (and through it the file system) and the
        plan's expression program, but gets a private context and
        metrics, so parser stats and parse-once document sharing stay
        split-local. Forks drop the coordinator's tracer — when a split
        is traced, the morsel runner attaches a worker-local tracer to
        the fork and grafts its subtree back afterwards. Workers never
        re-fork.
        """
        return ExecState(
            catalog=self.catalog,
            context=self.context.fresh(),
            cancel_token=self.cancel_token,
            program=self.program,
        )


class PhysicalPlan:
    """Base class for physical operators."""

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        """Run this operator over its inputs; every operator implements it."""
        raise ExecutionError(
            f"{type(self).__name__} does not implement execute_batch"
        )

    def children(self) -> tuple["PhysicalPlan", ...]:
        return ()

    def output_names(self) -> set[str]:
        """Row-environment keys this operator produces."""
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self._label()}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    #: The fields holding the operator's expressions: one, a list of
    #: expressions or sort keys, or ``None``.
    expression_fields: tuple[str, ...] = ()

    def lower(self, program: ExpressionProgram):
        """What the operator evaluates, compiled by ``program``; read back
        through ``state.program.of(self)``."""
        return None

    def bind(self, binder: "_Binder") -> "PhysicalPlan":
        """This operator with the literals in and under it bound (see
        :func:`bind_plan`); the operator itself when nothing changed."""
        fields = {
            name: child.bind(binder)
            for name in ("child", "left", "right", "pipeline")
            if isinstance(child := getattr(self, name, None), PhysicalPlan)
        }
        for name in self.expression_fields:
            fields[name] = binder.bound(getattr(self, name))
        return _rebuilt(self, **fields)

    def filtered_by(self, condition: Expression) -> "PhysicalPlan":
        """This operator under a re-bound filter ``condition``: what it
        derived from the filter above it, derived again."""
        return self

    def transform_nodes(self, fn) -> "PhysicalPlan":
        """Bottom-up plan rewrite; ``fn`` may return a replacement node."""
        for attr in ("child", "left", "right"):
            child = getattr(self, attr, None)
            if isinstance(child, PhysicalPlan):
                setattr(self, attr, child.transform_nodes(fn))
        replacement = fn(self)
        return replacement if replacement is not None else self


class UnaryExec(PhysicalPlan):
    """An operator with one input: :meth:`apply` is its whole body, batch
    in, batch out. ``execute_batch`` is that body over the child's batch;
    a morsel pipeline that absorbed the node calls the same body once per
    split (see :mod:`repro.engine.parallel`)."""

    child: PhysicalPlan

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def output_names(self) -> set[str]:
        return self.child.output_names()

    def apply(self, state: ExecState, batch: ColumnBatch) -> ColumnBatch:
        raise NotImplementedError

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        return self.apply(state, self.child.execute_batch(state))


def concat_batches(batches: list[ColumnBatch], names=()) -> ColumnBatch:
    """Concatenate per-split batches in order (``names`` shapes the empty
    result), preserving aliasing: names that share one list in every
    input share one list in the output (the qualified-alias invariant
    scans rely on)."""
    if not batches:
        return ColumnBatch(names, {name: [] for name in names}, 0)
    if len(batches) == 1:
        return batches[0]
    names = list(batches[0].names)
    merged_by_identity: dict[tuple, list] = {}
    columns: dict[str, list] = {}
    for name in names:
        identity = tuple(id(batch.columns[name]) for batch in batches)
        merged = merged_by_identity.get(identity)
        if merged is None:
            merged = []
            for batch in batches:
                merged.extend(batch.columns[name])
            merged_by_identity[identity] = merged
        columns[name] = merged
    return ColumnBatch(names, columns, sum(batch.length for batch in batches))


def _sarg_label(key: str, pairs: tuple) -> str:
    """EXPLAIN's mark of the conjuncts statistics can decide."""
    if not pairs:
        return ""
    return f" {key}=[{', '.join(c.sql() for c, _ in pairs)}]"


@dataclass
class ScanExec(PhysicalPlan):
    """Table scan with column pruning and optional SARG pushdown.

    Produces row dicts keyed by bare column names and, when the scan is
    aliased, also by ``alias.column`` so join conditions can disambiguate.
    """

    database: str
    table: str
    alias: str | None
    columns: list[str]
    sargs: tuple = ()
    """``(conjunct, SARG)`` per statistics-decidable conjunct of the
    filter above (see ``planner.conjunct_sargs``)."""
    filter_only: frozenset = frozenset()
    """Output columns that only those conjuncts read (set when the filter
    joins the scan's morsel pipeline): a split whose statistics prove
    every conjunct reading one does not decode it."""

    @property
    def sarg(self) -> Sarg | None:
        """The row-group test: the conjunction of the pushed SARGs."""
        return conjunction(sarg for _, sarg in self.sargs)

    def output_names(self) -> set[str]:
        names = set(self.columns)
        if self.alias:
            names |= {f"{self.alias}.{c}" for c in self.columns}
        return names

    def _label(self) -> str:
        return (
            f"Scan {self.database}.{self.table} cols={self.columns}"
            + _sarg_label("sarg", self.sargs)
        )

    def filtered_by(self, condition: Expression) -> PhysicalPlan:
        from .planner import _column_of, conjunct_sargs

        sargs = conjunct_sargs(condition, _column_of(self)) if self.sargs else ()
        return _rebuilt(self, sargs=sargs)

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        """A bare scan pulled on its own runs as a one-stage
        ``MorselPipelineExec``, the path served plans take."""
        from .parallel import MorselPipelineExec

        return MorselPipelineExec(scan=self).execute_batch(state)

    # -- morsel API (split-level parallel execution) -------------------
    def morsel_units(self, state: ExecState) -> list:
        """Opaque work units, one per file split, in split-index order.

        Units are interpreted only by the class that produced them
        (:meth:`run_morsel`); subclasses may attach companion files.
        Called on the coordinator thread.
        """
        return list(state.catalog.table_files(self.database, self.table))

    def morsel_output_names(self) -> list[str]:
        """Deterministic column order of a morsel batch (bare names
        first, then alias-qualified)."""
        names = list(self.columns)
        if self.alias:
            names.extend(f"{self.alias}.{name}" for name in self.columns)
        return names

    def run_morsel(self, state: ExecState, unit) -> tuple[ColumnBatch, bool]:
        """Scan one unit into a batch on a (possibly worker) thread.

        Returns ``(batch, used_fallback)``; the flag is always False for
        plain scans — cache-aware subclasses use it to report per-split
        degraded fallback.
        """
        state.check_cancelled()
        started = time.perf_counter()
        reader = split_reader(
            state.catalog.fs, unit, columns=self.columns, sarg=self.sarg
        )
        proven = self._proven(reader, self.sargs)
        reader.columns = self._decoded(self.columns, self.sargs, proven)
        result = self._read(state, reader)
        columns = {name: result.columns[name] for name in reader.columns}
        batch = self._morsel_batch(state, columns, result.rows_read, started)
        batch.proven = proven
        return batch, False

    @staticmethod
    def _proven(reader, pairs: tuple) -> frozenset:
        """The conjuncts whose SARGs hold on every row the reader reads."""
        return frozenset(c for c, sarg in pairs if reader.proves(sarg))

    def _decoded(self, names: list, pairs: tuple, proven, lane=None) -> list:
        """``names`` less the filter-only ones no unproven conjunct reads;
        ``lane`` maps a name to its statistics column (default: itself)."""
        needed = {c for j, sarg in pairs if j not in proven for c in sarg.columns()}
        lane = lane or {}
        return [
            name
            for name in names
            if name not in self.filter_only or lane.get(name, name) in needed
        ]

    @staticmethod
    def _read(state: ExecState, reader) -> ReadResult:
        """``reader.read()``, counted into the query's read metrics."""
        result = reader.read()
        metrics = state.metrics
        metrics.bytes_read += result.bytes_read
        metrics.row_groups_total += result.row_groups_total
        metrics.row_groups_skipped += result.row_groups_skipped
        metrics.row_groups_proven += result.row_groups_proven
        return result

    def _morsel_batch(
        self, state: ExecState, columns: dict, length: int, started: float
    ) -> ColumnBatch:
        """One split's columns as a batch, with the scan's row and
        read-time accounting. ``columns`` holds the decoded bare columns
        first, then whatever a subclass adds; qualified names (which alias
        the bare lists — no copies) go in between, which is
        :meth:`morsel_output_names` order less the undecoded columns."""
        names = list(columns)
        if self.alias:
            bare = [name for name in self.columns if name in columns]
            for name in bare:
                columns[f"{self.alias}.{name}"] = columns[name]
            names[len(bare):len(bare)] = [f"{self.alias}.{n}" for n in bare]
        state.metrics.rows_scanned += length
        state.metrics.read_seconds += time.perf_counter() - started
        return ColumnBatch(names, columns, length)

    def finish_morsels(self, state: ExecState, fallback_splits: int) -> None:
        """Coordinator hook after all morsels merged (no-op for plain
        scans; cache-aware subclasses settle whole-scan accounting)."""


@dataclass
class FilterExec(UnaryExec):
    """Keep rows where the condition evaluates to SQL TRUE; conjuncts in
    ``batch.proven`` are not evaluated. The ``drop`` columns (its scan's
    ``filter_only``) leave here, so every split's batch has one shape."""

    child: PhysicalPlan
    condition: Expression
    drop: frozenset = frozenset()
    expression_fields = ("condition",)

    def _label(self) -> str:
        return f"Filter {self.condition.sql()}"

    def bind(self, binder: "_Binder") -> PhysicalPlan:
        bound = super().bind(binder)
        if bound.condition is not self.condition:  # so ``bound`` is a copy
            bound.child = bound.child.filtered_by(bound.condition)
        return bound

    def lower(self, program: ExpressionProgram) -> tuple:
        return tuple((c, program.compile(c)) for c in split_conjuncts(self.condition))

    def apply(self, state: ExecState, batch: ColumnBatch) -> ColumnBatch:
        proven = batch.proven
        nodes = [
            node
            for conjunct, node in state.program.of(self)
            if not proven or conjunct not in proven
        ]
        names = [name for name in batch.names if name not in self.drop]
        indices = range(batch.length)
        if nodes:
            values = conjunction_values(nodes, batch, state)
            indices = [i for i, value in enumerate(values) if value is True]
        if len(indices) == batch.length and len(names) == len(batch.names):
            # Passing the child batch through unchanged lets downstream
            # operators reuse per-batch compiled results (CSE across
            # filter and projection).
            return batch
        return batch.take(indices, names)


@dataclass
class ProjectExec(UnaryExec):
    """Evaluate the SELECT list; output keys are the expressions' names."""

    child: PhysicalPlan
    expressions: list[Expression]
    expression_fields = ("expressions",)

    def output_names(self) -> set[str]:
        return {e.output_name() for e in self.expressions}

    def _label(self) -> str:
        return f"Project [{', '.join(e.sql() for e in self.expressions)}]"

    def lower(self, program: ExpressionProgram) -> list:
        return [(e.output_name(), program.compile(e)) for e in self.expressions]

    def apply(self, state: ExecState, batch: ColumnBatch) -> ColumnBatch:
        return _evaluated(state, state.program.of(self), batch)


def _evaluated(state: ExecState, outputs: list, batch: ColumnBatch) -> ColumnBatch:
    """The ``(name, compiled expression)`` outputs over ``batch``."""
    names: list[str] = []
    columns: dict[str, list] = {}
    for name, node in outputs:
        if name not in columns:
            names.append(name)
        # Duplicate output names keep the last expression's values.
        columns[name] = node.evaluate(batch, state)
    return ColumnBatch(names, columns, batch.length)


def _sort_token(value: object) -> tuple:
    """Total-order key: NULLs first, then by type family, then value."""
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, bool):
        return (1, "", float(value))
    if isinstance(value, (int, float)):
        return (2, "", float(value))
    return (3, str(value), 0.0)


@dataclass
class SortExec(UnaryExec):
    """ORDER BY with NULLS FIRST semantics (Hive default for ASC)."""

    child: PhysicalPlan
    keys: list[SortKey]
    expression_fields = ("keys",)

    def _label(self) -> str:
        keys = ", ".join(
            f"{k.expression.sql()} {'ASC' if k.ascending else 'DESC'}"
            for k in self.keys
        )
        return f"Sort [{keys}]"

    def lower(self, program: ExpressionProgram) -> list:
        return [(program.compile(k.expression), k.ascending) for k in reversed(self.keys)]

    def apply(self, state: ExecState, batch: ColumnBatch) -> ColumnBatch:
        indices = list(range(batch.length))
        # Same stable right-to-left multi-key sort, over row indices;
        # key columns are computed once per key instead of once per
        # comparison row.
        for node, ascending in state.program.of(self):
            values = node.evaluate(batch, state)
            indices.sort(key=lambda i: _sort_token(values[i]), reverse=not ascending)
        if indices == list(range(batch.length)):
            return batch
        return batch.take(indices)


@dataclass
class LimitExec(UnaryExec):
    """LIMIT n (``slot``: as :attr:`Literal.slot`)."""

    child: PhysicalPlan
    count: int
    slot: int | None = None

    def _label(self) -> str:
        return f"Limit {self.count}"

    def bind(self, binder: "_Binder") -> PhysicalPlan:
        count = binder.value(self.slot, self.count)
        return _rebuilt(super().bind(binder), count=count)

    def apply(self, state: ExecState, batch: ColumnBatch) -> ColumnBatch:
        if batch.length <= self.count:
            return batch
        return batch.take(range(self.count))


class _Accumulator:
    """Streaming accumulator for one AggregateCall.

    Also serves as the *partial aggregate* of morsel-parallel execution:
    per-split accumulators are combined with :meth:`merge` in split-index
    order, which keeps float sums bit-identical at any worker count.
    """

    __slots__ = ("func", "distinct", "count", "total", "minimum", "maximum", "seen")

    def __init__(self, func: str, distinct: bool) -> None:
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total: float | int = 0
        self.minimum: object = None
        self.maximum: object = None
        # Insertion-ordered so that merging partials replays distinct
        # values deterministically (a set would iterate by hash).
        self.seen: dict | None = {} if distinct else None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen[value] = None
        self.count += 1
        if self.func == "sum" or self.func == "avg":
            number = _to_number(value)
            if number is None:
                raise ExecutionError(
                    f"{self.func}() over non-numeric value {value!r}"
                )
            self.total += number
        elif self.func == "min":
            if self.minimum is None or _sort_token(value) < _sort_token(self.minimum):
                self.minimum = value
        elif self.func == "max":
            if self.maximum is None or _sort_token(value) > _sort_token(self.maximum):
                self.maximum = value

    def merge(self, other: "_Accumulator") -> None:
        """Fold another split's partial into this one.

        Distinct partials replay the other side's values through
        :meth:`add` (dedup against this side's ``seen``); plain partials
        combine counters directly. Merge order is the caller's contract —
        the morsel scheduler always merges in split-index order so sums
        stay deterministic.
        """
        if self.seen is not None:
            for value in other.seen:  # type: ignore[union-attr]
                self.add(value)
            return
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None
            or _sort_token(other.minimum) < _sort_token(self.minimum)
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None
            or _sort_token(other.maximum) > _sort_token(self.maximum)
        ):
            self.maximum = other.maximum

    def result(self) -> object:
        if self.func == "count":
            return self.count
        if self.count == 0:
            return None
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        if self.func == "min":
            return self.minimum
        return self.maximum


def _to_number(value: object) -> int | float | None:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return None
    return None


def collect_aggregates(output: list[Expression]) -> list[AggregateCall]:
    """The distinct AggregateCalls inside ``output``, in walk order."""
    aggregates: list[AggregateCall] = []
    for expr in output:
        for node in walk(expr):
            if isinstance(node, AggregateCall) and node not in aggregates:
                aggregates.append(node)
    return aggregates


class GroupedAggregation:
    """Hash aggregation as two steps over ``group_keys`` and ``output``:
    :meth:`accumulate` (batch → ordered partials) and :meth:`finalise`
    (partials → rows). ``AggregateExec`` runs one after the other;
    ``MorselAggregateExec`` accumulates per split and merges the partials
    in split order in between.

    Output expressions may mix group keys, aggregates and arithmetic over
    both; each compiles once, reading its aggregates' results from slot
    columns beside the group representatives' columns.
    """

    group_keys: list[Expression]
    output: list[Expression]
    expression_fields = ("group_keys", "output")

    def output_names(self) -> set[str]:
        return {e.output_name() for e in self.output}

    def lower(self, program: ExpressionProgram) -> tuple:
        """``(aggregates, group keys, aggregate arguments, outputs)``."""
        aggregates = collect_aggregates(self.output)
        slots = {agg: Column(_slot(i)) for i, agg in enumerate(aggregates)}

        def slotted(node: Expression) -> Expression | None:
            return slots[node] if isinstance(node, AggregateCall) else None

        return (
            aggregates,
            [program.compile(k) for k in self.group_keys],
            [None if a.argument is None else program.compile(a.argument)
             for a in aggregates],
            [(e.output_name(), program.compile(transform(e, slotted))) for e in self.output],
        )

    def accumulate(
        self, state: ExecState, batch: ColumnBatch
    ) -> tuple[dict[tuple, list[_Accumulator]], dict[tuple, dict]]:
        """``(groups, representatives)`` in first-occurrence order: per
        group key its accumulators and the first row that produced it."""
        aggregates, keys, arguments, _ = state.program.of(self)
        # Group keys and aggregate arguments evaluate as whole columns —
        # this is where repeated extractions share parses — then rows
        # stream through the accumulators.
        key_columns = [node.evaluate(batch, state) for node in keys]
        argument_columns = [
            None if node is None else node.evaluate(batch, state)
            for node in arguments
        ]
        groups: dict[tuple, list[_Accumulator]] = {}
        representatives: dict[tuple, dict] = {}
        for i in range(batch.length):
            key = tuple(_hashable(column[i]) for column in key_columns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [
                    _Accumulator(a.func, a.distinct) for a in aggregates
                ]
                representatives[key] = batch.row(i)
            for argument, acc in zip(argument_columns, accumulators):
                if argument is None:
                    acc.count += 1  # count(*) counts rows, NULLs included
                else:
                    acc.add(argument[i])
        return groups, representatives

    def finalise(
        self, state: ExecState, groups: dict, representatives: dict
    ) -> ColumnBatch:
        """One output row per group: the outputs over a batch of the
        representatives' columns plus one slot column per aggregate."""
        aggregates, _, _, outputs = state.program.of(self)
        if not groups:
            if self.group_keys:
                names = dict.fromkeys(name for name, _ in outputs)
                return ColumnBatch(names, {name: [] for name in names}, 0)
            # Global aggregate over zero rows still yields one row.
            groups = {(): [_Accumulator(a.func, a.distinct) for a in aggregates]}
            representatives = {(): {}}
        rows = list(representatives.values())
        names = list(rows[0])
        columns = {name: [row[name] for row in rows] for name in names}
        for i in range(len(aggregates)):
            names.append(_slot(i))
            columns[_slot(i)] = [acc[i].result() for acc in groups.values()]
        return _evaluated(state, outputs, ColumnBatch(names, columns, len(rows)))


@dataclass
class AggregateExec(GroupedAggregation, UnaryExec):
    """Hash aggregation over the group keys of the child's whole batch."""

    child: PhysicalPlan
    group_keys: list[Expression]
    output: list[Expression]

    def _label(self) -> str:
        keys = ", ".join(e.sql() for e in self.group_keys) or "<global>"
        return f"Aggregate keys=[{keys}]"

    def apply(self, state: ExecState, batch: ColumnBatch) -> ColumnBatch:
        return self.finalise(state, *self.accumulate(state, batch))


def _slot(index: int) -> str:
    """The column a finalised aggregate's results are read from (no SQL
    identifier can spell it)."""
    return f"\0aggregate{index}"


def _hashable(value: object) -> object:
    if isinstance(value, (list, dict)):
        from ..jsonlib.jackson import dumps

        return dumps(value)
    return value


def _sql_equal(left: object, right: object) -> bool:
    return _null_safe_compare("=", left, right) is True


def _join_key(value: object, strings: dict[str, object]) -> object:
    """A hash key that every pair ``=`` accepts shares.

    ``=`` compares a number with a numeric string by float value, so
    numbers and numeric strings hash by it; the probe re-checks pairs
    that collide without being equal (``'7'`` and ``'7.0'``) with ``=``.
    ``strings`` remembers each distinct string's key for one join.
    """
    if type(value) is str:
        key = strings.get(value)
        if key is None:
            try:
                key = float(value)
            except ValueError:
                key = value
            if key != key:  # NaN equals nothing, the text 'nan' itself
                key = value
            strings[value] = key
        return key
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            return value
    return _hashable(value)


@dataclass
class HashJoinExec(PhysicalPlan):
    """Inner equi-join: hash build on the right, probe from the left.

    ``left_keys``/``right_keys`` are the equi-join key expressions; any
    residual (non-equi) conjuncts are evaluated on the merged row.
    """

    left: PhysicalPlan
    right: PhysicalPlan
    left_keys: list[Expression]
    right_keys: list[Expression]
    residual: Expression | None = None
    expression_fields = ("left_keys", "right_keys", "residual")

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def output_names(self) -> set[str]:
        return self.left.output_names() | self.right.output_names()

    def _label(self) -> str:
        pairs = ", ".join(
            f"{l.sql()}={r.sql()}" for l, r in zip(self.left_keys, self.right_keys)
        )
        residual = f" residual={self.residual.sql()}" if self.residual else ""
        return f"HashJoin [{pairs}]{residual}"

    def lower(self, program: ExpressionProgram) -> tuple:
        return (
            [program.compile(k) for k in self.left_keys],
            [program.compile(k) for k in self.right_keys],
            None if self.residual is None else program.compile(self.residual),
        )

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        left_batch = self.left.execute_batch(state)
        right_batch = self.right.execute_batch(state)
        left_nodes, right_nodes, residual = state.program.of(self)
        right_keys = list(
            zip(*(node.evaluate(right_batch, state) for node in right_nodes))
        )
        table: dict[tuple, list[int]] = {}
        strings: dict[str, object] = {}
        for j, values in enumerate(right_keys):
            key = tuple([_join_key(value, strings) for value in values])
            if None not in key:  # NULL keys never join
                table.setdefault(key, []).append(j)
        left_keys = zip(*(node.evaluate(left_batch, state) for node in left_nodes))
        # Probe to index pairs first, then gather whole columns — the
        # joined batch is never materialised as per-row dicts.
        left_index: list[int] = []
        right_index: list[int] = []
        for i, values in enumerate(left_keys):
            key = tuple([_join_key(value, strings) for value in values])
            if None in key:
                continue
            for j in table.get(key, ()):
                other = right_keys[j]
                if values == other or all(map(_sql_equal, values, other)):
                    left_index.append(i)
                    right_index.append(j)
        left_taken = left_batch.take(left_index)
        right_taken = right_batch.take(right_index)
        # Merged-row semantics ({**right, **left}): every left column,
        # plus right columns not shadowed by a left name.
        names = list(left_taken.names)
        columns = dict(left_taken.columns)
        for name in right_taken.names:
            if name not in columns:
                names.append(name)
                columns[name] = right_taken.columns[name]
        joined = ColumnBatch(names, columns, len(left_index))
        if residual is not None and joined.length:
            values = residual.evaluate(joined, state)
            keep = [i for i, value in enumerate(values) if value is True]
            if len(keep) != joined.length:
                joined = joined.take(keep)
        return joined


# ----------------------------------------------------------------------
# binding a template plan to a statement's parameters
# ----------------------------------------------------------------------
def _rebuilt(node: PhysicalPlan, **fields) -> PhysicalPlan:
    """``node`` with ``fields`` set: the node itself when each is the
    object it holds (untouched nodes are shared), else a shallow copy —
    made without ``__init__``, which no operator needs to run twice."""
    if all(getattr(node, name) is value for name, value in fields.items()):
        return node
    clone = object.__new__(type(node))
    clone.__dict__.update(node.__dict__, **fields)
    return clone


class _Binder:
    """One bind pass: each slot-tagged literal takes its value from the
    parameter vector, and the slots met are recorded."""

    def __init__(self, params: tuple) -> None:
        self.params = params
        self.seen: set[int] = set()

    def value(self, slot: int | None, current: object) -> object:
        if slot is None:
            return current
        self.seen.add(slot)
        return self.params[slot][1]

    def _literal(self, node: Expression) -> Expression | None:
        if not isinstance(node, Literal) or node.slot is None:
            return None
        value = self.value(node.slot, node.value)
        return None if value is node.value else Literal(value, node.slot)

    def bound(self, value):
        """An expression, a sort key, a list of them or ``None``, bound:
        the value itself when nothing in it changed."""
        if value is None:
            return None
        if isinstance(value, SortKey):
            expr = self.bound(value.expression)
            return value if expr is value.expression else SortKey(expr, value.ascending)
        if isinstance(value, list):
            items = [self.bound(item) for item in value]
            return value if all(map(operator.is_, items, value)) else items
        return transform(value, self._literal)


def bind_plan(plan: PhysicalPlan, params: tuple) -> PhysicalPlan | None:
    """``plan`` for another statement of its template, with parameters
    ``params``: each literal set in its slot and what was derived from it
    re-derived, untouched operators shared. ``None`` when the plan lacks
    a slot: the planner matched a literal-bearing ``ORDER BY`` or
    ``HAVING`` term to a select item by its text, which another
    statement's literals need not repeat."""
    binder = _Binder(params)
    bound = plan.bind(binder)
    slots = {i for i, param in enumerate(params) if isinstance(param, tuple)}
    return bound if binder.seen == slots else None


# ----------------------------------------------------------------------
# plan-wide expression access (plan modifiers, path-set derivation)
# ----------------------------------------------------------------------
def walk_plan(plan: PhysicalPlan):
    """``plan`` and every operator below it, parents first."""
    yield plan
    for child in plan.children():
        yield from walk_plan(child)


def compile_plan(
    plan: PhysicalPlan, template: ExpressionProgram | None = None
) -> ExpressionProgram:
    """The program of ``plan``: every operator's expressions lowered once,
    before any split runs (a traced plan's operators sit in ``inner``).
    A plan bound from a template compiles from the ``template``'s program,
    lowering only what the bind replaced."""
    return ExpressionProgram(
        (getattr(op, "inner", op) for op in walk_plan(plan)), template
    )


def expression_slots(plan: PhysicalPlan):
    """Yield a ``(holder, slot)`` pair for every expression in the plan:
    ``holder[slot]`` for a list position, ``getattr(holder, slot)`` for
    an attribute. Read through :func:`slot_expression`."""
    for node in walk_plan(plan):
        for name in node.expression_fields:
            value = getattr(node, name)
            if isinstance(value, list):
                yield from ((value, i) for i in range(len(value)))
            elif value is not None:
                yield node, name


def slot_expression(holder, slot) -> Expression:
    value = holder[slot] if isinstance(slot, int) else getattr(holder, slot)
    if isinstance(value, SortKey):
        return value.expression
    return value


def json_paths_of(plan: PhysicalPlan) -> tuple[str, ...]:
    """Every distinct JSONPath a ``get_json_object`` call of the plan
    reads, in plan order — the path set one projection pass serves (see
    :attr:`EvalContext.json_paths`). Taken after the plan modifiers ran,
    so paths Maxson answers from its cache are not in it."""
    return tuple(
        dict.fromkeys(
            node.path
            for holder, slot in expression_slots(plan)
            for node in walk(slot_expression(holder, slot))
            if isinstance(node, GetJsonObject)
        )
    )
