"""The execution engine's data model: column batches and compiled expressions.

There is one engine. Evaluating an expression tree once per row would
re-parse the same JSON document once per ``get_json_object`` node per
row — exactly the duplicate-parsing pathology Maxson exists to remove —
so the loop is shaped the other way round:

* Operators exchange :class:`ColumnBatch` — parallel value lists keyed by
  column name — instead of lists of per-row dicts.
* An :class:`ExpressionProgram` lowers each :class:`~repro.engine.
  expressions.Expression` of a plan, once, to a closure over whole
  columns (a :class:`CompiledExpression`). Scalar semantics come from the
  kernel functions of :mod:`repro.engine.expressions` (``_apply_arith``
  etc.) and the :data:`~repro.engine.functions.SCALAR_FUNCTIONS`
  registry.
* A ``get_json_object`` reads one *projection node* per column: the
  split's context's ``project_json`` over the batch's texts, memoised
  on the batch like any node, which is one :class:`~repro.jsonlib.
  doccache.DocumentCache` lookup per row however many paths are read —
  the cache projects each distinct text once per query. Each extraction
  is one slot of those tuples. ``get_xml_object`` reads the context's
  ``get_xml_objects`` over a cache of parsed trees.
* The program memoises by expression *equality* (all expression nodes
  are frozen dataclasses), which is the engine's common-subexpression
  elimination: two textually identical ``get_json_object`` calls compile
  to one node and evaluate once per batch. Re-served results are counted
  into ``QueryMetrics.duplicate_extractions_eliminated``.

The program is the engine's only evaluator: expression nodes have no
row-wise ``evaluate``. Every node a plan can hold lowers — scalar
functions and ``IN`` over non-literal options included — and one that
has no row value (an aggregate call, ``*``) lowers to a closure that
raises :class:`~repro.engine.errors.ExecutionError` when evaluated. The
reference the differential tests compare this engine against is not
here: it is ``tests/reference_engine.py``, an interpreter over the
logical plan with its own expression evaluator.
"""

from __future__ import annotations

import threading
from itertools import repeat
from operator import itemgetter

from ..jsonlib.jsonpath import parse_path

from .errors import ExecutionError
from .expressions import (
    Alias,
    Between,
    BinaryOp,
    CachedField,
    CastExpr,
    Column,
    Expression,
    ExtractionCall,
    GetJsonObject,
    GetXmlObject,
    InList,
    Literal,
    UnaryOp,
    _apply_arith,
    _apply_cast,
    _apply_unary,
    _between_result,
    _combine_and,
    _combine_or,
    _COMPARE,
    _in_list_result,
    _LOGIC,
    _null_safe_compare,
    walk,
)
from .functions import SCALAR_FUNCTIONS, FunctionCall

__all__ = [
    "ColumnBatch",
    "CompiledExpression",
    "ExpressionProgram",
    "conjunction_values",
]


class ColumnBatch:
    """A horizontal slice of rows stored as parallel columns.

    ``names`` preserves column order (and may alias the same underlying
    list under two names — scans expose ``col`` and ``alias.col`` without
    copying). Row dicts are built only when asked for: ``row(i)`` one
    (an aggregate group's representative), ``to_rows()`` all of them (the
    final result rows).
    """

    __slots__ = ("names", "columns", "length", "origin", "proven", "memo", "_frame")

    def __init__(self, names, columns: dict, length: int) -> None:
        self.names = tuple(names)
        self.columns = columns
        self.length = length
        #: ``(parent_batch, indices)`` when this batch was ``take``n from
        #: another — the lineage CompiledExpression uses to re-serve
        #: cached results across a filter instead of re-evaluating.
        self.origin: tuple["ColumnBatch", list[int]] | None = None
        #: Conjuncts the split's statistics prove TRUE on every row (kept
        #: by ``take``: a subset keeps the proof); the filter skips them.
        self.proven: frozenset = frozenset()
        #: Each :class:`CompiledExpression` evaluated on this batch → its
        #: values. The memo lives here, not on the node, because a node
        #: serves concurrent splits while a batch belongs to one.
        self.memo: dict = {}
        #: Memo of :func:`repro.engine.frame.encode_frame`.
        self._frame: bytes | None = None

    @classmethod
    def from_rows(cls, rows: list[dict], names=None) -> "ColumnBatch":
        """Build a batch from row dicts (aggregate output rows; tests).

        ``names`` must be given when ``rows`` may be empty, otherwise the
        column set would be lost and downstream lookups would fail.
        """
        if names is None:
            names = tuple(rows[0]) if rows else ()
        else:
            names = tuple(names)
        columns: dict[str, list] = {name: [] for name in names}
        for row in rows:
            for name in names:
                columns[name].append(row[name])
        return cls(names, columns, len(rows))

    def column(self, name: str) -> list:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(
                f"column {name!r} not found in row; have {sorted(set(self.names))}"
            ) from None

    def row(self, index: int) -> dict:
        """A fresh dict of row ``index`` alone."""
        columns = self.columns
        return {name: columns[name][index] for name in self.names}

    def to_rows(self) -> list[dict]:
        """Fresh row dicts (callers may mutate them freely), built in one
        pass over the columns."""
        names = self.names
        if not names:
            return [{} for _ in range(self.length)]
        series = [self.columns[name] for name in names]
        return list(map(dict, map(zip, repeat(names), zip(*series))))

    def take(self, indices, names=None) -> "ColumnBatch":
        """A new batch holding the given row indices, in order, of the
        given columns (default: all).

        Columns aliased to the same list stay aliased in the result.
        """
        indices = list(indices)
        names = self.names if names is None else names
        copies: dict[int, list] = {}
        taken: dict[str, list] = {}
        for name in names:
            source = self.columns[name]
            key = id(source)
            copy = copies.get(key)
            if copy is None:
                copy = copies[key] = [source[i] for i in indices]
            taken[name] = copy
        batch = ColumnBatch(names, taken, len(indices))
        batch.origin = (self, indices)
        batch.proven = self.proven
        return batch

    def __len__(self) -> int:
        return self.length


class CompiledExpression:
    """A batch-lowered expression: ``evaluate(batch, state) -> list``.

    Immutable and context-free: ``fn(batch, state)`` reads the split's run
    state (an :class:`~repro.engine.physical.ExecState` — its ``context``
    extracts, its ``metrics`` count) instead of capturing one, so a node
    serves every split and every execution of its plan.

    Results are memoised on the batch (:attr:`ColumnBatch.memo`): when
    operators share a compiled node — the CSE case — the second
    evaluation on the same batch is served from the memo. The memo
    follows ``take`` lineage: a batch filtered down from one the node was
    evaluated on gathers those values by index (expressions are pure, so
    the surviving rows' values are unchanged), which keeps CSE alive
    across a selective filter — e.g. a predicate's extraction re-used in
    the projection. Every re-served extraction is counted into
    ``QueryMetrics.duplicate_extractions_eliminated``.
    """

    __slots__ = ("fn", "extractions")

    def __init__(self, fn, extractions: int) -> None:
        self.fn = fn
        #: Extraction calls in the expression, counted when it compiled.
        self.extractions = extractions

    def evaluate(self, batch: ColumnBatch, state) -> list:
        memo = batch.memo
        result = memo.get(self)
        if result is None:
            origin = batch.origin
            cached = None if origin is None else origin[0].memo.get(self)
            if cached is None:
                result = memo[self] = self.fn(batch, state)
                return result
            result = memo[self] = [cached[i] for i in origin[1]]
        if self.extractions:
            state.metrics.duplicate_extractions_eliminated += (
                self.extractions * batch.length
            )
        return result


def conjunction_values(nodes, batch: ColumnBatch, state) -> list:
    """The SQL AND of compiled conjuncts over ``batch``, left to right,
    each evaluated only on the rows the ones before it left undecided."""
    values = nodes[0].evaluate(batch, state)
    for node in nodes[1:]:
        values = _logic_step(_combine_and, False, values, node, batch, state)
    return values


def _logic_step(combine, decided, left_values: list, right: CompiledExpression,
                batch: ColumnBatch, state) -> list:
    """AND/OR with batch-level short-circuiting.

    SQL never needs the right operand on rows the left operand decides
    (False for AND, True for OR): the right side is evaluated only on the
    sub-batch of undecided rows, so its errors and parse costs on the
    decided ones are never paid.
    """
    pending = [i for i, value in enumerate(left_values) if value is not decided]
    if not pending:
        return [decided] * batch.length
    if len(pending) == batch.length:
        right_values = right.evaluate(batch, state)
        return [combine(a, b) for a, b in zip(left_values, right_values)]
    out = [decided] * batch.length
    right_values = right.evaluate(batch.take(pending), state)
    for i, value in zip(pending, right_values):
        out[i] = combine(left_values[i], value)
    return out


def _in_options(values: list, options: list, batch: ColumnBatch, state) -> list:
    """``value IN (options)`` over compiled options, in order, each
    evaluated only on the rows still undecided — the child not NULL and
    no earlier option matched — so an option's errors and parse costs on
    a decided row are never paid."""
    seen: list[list] = [[] for _ in values]
    pending = [i for i, value in enumerate(values) if value is not None]
    for option in options:
        if not pending:
            break
        rows = batch if len(pending) == batch.length else batch.take(pending)
        for i, other in zip(pending, option.evaluate(rows, state)):
            seen[i].append(other)
        pending = [
            i for i in pending if _in_list_result(values[i], seen[i][-1:]) is not True
        ]
    return [_in_list_result(value, others) for value, others in zip(values, seen)]


def _call(impl, arguments: tuple) -> object:
    """A scalar function on one row's arguments; an argument it cannot
    take (``TypeError``/``ValueError``) gives NULL, as in Hive."""
    try:
        return impl(*arguments)
    except (TypeError, ValueError):
        return None


class ExpressionProgram:
    """The expressions of one plan, each lowered once.

    Built on the coordinator before any split runs
    (:func:`repro.engine.physical.compile_plan`) and owned by the
    :class:`~repro.engine.planner.PlannedQuery`, so a cached plan carries
    its program to every execution and every fork reads the same one.
    Identical expression subtrees anywhere in the plan compile to the
    *same* :class:`CompiledExpression` (expression nodes are frozen
    dataclasses and compare by value) — the engine's
    common-subexpression elimination. Each operator's compiled form
    (``PhysicalPlan.lower``) is kept by operator identity, so a batch
    finds its nodes without hashing an expression tree.
    """

    def __init__(self, operators=(), template: "ExpressionProgram | None" = None) -> None:
        # A bound variant starts from its template's program: the operators
        # it shares are found lowered, its own reuse every equal expression.
        self._memo: dict[Expression, CompiledExpression] = (
            {} if template is None else template._memo.copy()
        )
        self._operators: dict[int, tuple] = (
            {} if template is None else template._operators.copy()
        )
        self._projections: dict[Expression, CompiledExpression] = (
            {} if template is None else template._projections.copy()
        )
        self._lock = threading.Lock()
        for operator in operators:
            self.of(operator)

    def of(self, operator):
        """``operator.lower(self)``, made once. An operator the program was
        not built over (a plan driven by hand) is lowered on first use."""
        entry = self._operators.get(id(operator))
        if entry is None or entry[0] is not operator:
            with self._lock:
                entry = self._operators.get(id(operator))
                if entry is None or entry[0] is not operator:
                    entry = (operator, operator.lower(self))
                    self._operators[id(operator)] = entry
        return entry[1]

    def compile(self, expr: Expression) -> CompiledExpression:
        memo = self._memo
        try:
            node = memo.get(expr)
        except TypeError:  # unhashable payload (e.g. Literal over a list)
            return self._lower(expr)
        if node is None:
            node = memo[expr] = self._lower(expr)
        return node

    def _lower(self, expr: Expression) -> CompiledExpression:
        extractions = sum(
            1 for node in walk(expr) if isinstance(node, ExtractionCall)
        )
        return CompiledExpression(self._lower_fn(expr), extractions)

    def _lower_fn(self, expr: Expression):
        if isinstance(expr, Literal):
            value = expr.value
            return lambda batch, state: [value] * batch.length
        if isinstance(expr, Column):
            name = expr.name
            return lambda batch, state: batch.column(name)
        if isinstance(expr, CachedField):
            key = expr.env_key

            def cached_field(batch: ColumnBatch, state) -> list:
                try:
                    return batch.columns[key]
                except KeyError:
                    raise ExecutionError(
                        f"cached field {key!r} missing from stitched row; "
                        "Value Combiner misconfigured"
                    ) from None

            return cached_field
        if isinstance(expr, Alias):
            return self.compile(expr.child).evaluate
        if isinstance(expr, GetJsonObject):
            column = self.compile(expr.column)
            path = parse_path(expr.path).raw
            # One node per column projects its texts over the context's
            # declared paths; it is no expression of the plan.
            projection = self._projections.get(expr.column)
            if projection is None:
                projection = self._projections[expr.column] = CompiledExpression(
                    lambda batch, state: state.context.project_json(
                        column.evaluate(batch, state)
                    ),
                    0,
                )

            def get_json_object(batch: ColumnBatch, state) -> list:
                context = state.context
                if context.projection_parser is not None:
                    return context.get_json_objects(column.evaluate(batch, state), path)
                slot = context.json_slot(path)
                origin = batch.origin
                shared = projection in batch.memo or (
                    origin is not None and projection in origin[0].memo
                )
                rows = projection.evaluate(batch, state)
                if rows and len(rows[0]) <= slot:
                    # Projected before a hand-driven context declared ``path``.
                    rows = batch.memo[projection] = projection.fn(batch, state)
                elif shared:  # another extraction projected them: shared parses
                    texts = column.evaluate(batch, state)
                    context.json_documents.hits += len(texts) - texts.count(None)
                return list(map(itemgetter(slot), rows))

            return get_json_object
        if isinstance(expr, GetXmlObject):
            column = self.compile(expr.column)
            path = expr.path
            return lambda batch, state: state.context.get_xml_objects(
                column.evaluate(batch, state), path
            )
        if isinstance(expr, BinaryOp):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            op = expr.op
            if op in _LOGIC:
                combine = _combine_and if op == "and" else _combine_or
                decided = op != "and"
                return lambda batch, state: _logic_step(
                    combine, decided, left.evaluate(batch, state), right,
                    batch, state,
                )
            if op in _COMPARE:
                return lambda batch, state: [
                    _null_safe_compare(op, a, b)
                    for a, b in zip(
                        left.evaluate(batch, state), right.evaluate(batch, state)
                    )
                ]
            return lambda batch, state: [
                _apply_arith(op, a, b)
                for a, b in zip(
                    left.evaluate(batch, state), right.evaluate(batch, state)
                )
            ]
        if isinstance(expr, UnaryOp):
            child = self.compile(expr.child)
            op = expr.op
            return lambda batch, state: [
                _apply_unary(op, value) for value in child.evaluate(batch, state)
            ]
        if isinstance(expr, CastExpr):
            child = self.compile(expr.child)
            target = expr.target
            return lambda batch, state: [
                _apply_cast(target, value) for value in child.evaluate(batch, state)
            ]
        if isinstance(expr, InList):
            child = self.compile(expr.child)
            if all(isinstance(option, Literal) for option in expr.options):
                values = tuple(option.value for option in expr.options)
                return lambda batch, state: [
                    _in_list_result(value, values)
                    for value in child.evaluate(batch, state)
                ]
            options = [self.compile(option) for option in expr.options]
            return lambda batch, state: _in_options(
                child.evaluate(batch, state), options, batch, state
            )
        if isinstance(expr, Between):
            child = self.compile(expr.child)
            low = self.compile(expr.low)
            high = self.compile(expr.high)
            return lambda batch, state: [
                _between_result(value, lo, hi)
                for value, lo, hi in zip(
                    child.evaluate(batch, state),
                    low.evaluate(batch, state),
                    high.evaluate(batch, state),
                )
            ]
        if isinstance(expr, FunctionCall):
            impl = SCALAR_FUNCTIONS[expr.name.lower()][0]
            arguments = [self.compile(argument) for argument in expr.arguments]
            return lambda batch, state: [
                _call(impl, values)
                for values in zip(*[a.evaluate(batch, state) for a in arguments])
            ]
        # No row value (an aggregate call, an unexpanded ``*``): compiling
        # succeeds, evaluating raises.
        def unlowerable(batch: ColumnBatch, state) -> list:
            raise ExecutionError(f"{expr.sql()} cannot be evaluated as a row expression")

        return unlowerable
