"""The execution engine's data model: column batches and compiled expressions.

There is one engine. Evaluating an expression tree once per row would
re-parse the same JSON document once per ``get_json_object`` node per
row — exactly the duplicate-parsing pathology Maxson exists to remove —
so the loop is shaped the other way round:

* Operators exchange :class:`ColumnBatch` — parallel value lists keyed by
  column name — instead of lists of per-row dicts.
* :class:`BatchCompiler` lowers each :class:`~repro.engine.expressions.
  Expression` to a closure over whole columns (a
  :class:`CompiledExpression`). Scalar semantics come from the kernel
  functions of :mod:`repro.engine.expressions` (``_apply_arith`` etc.),
  the same ones ``Expression.evaluate`` calls.
* Extraction calls route through the context's vectorized
  ``get_json_objects`` / ``get_xml_objects``, which share one parsed
  document per distinct text via :class:`~repro.jsonlib.doccache.
  DocumentCache` — parse-once sharing across every expression in the
  query.
* The compiler memoises by expression *equality* (all expression nodes
  are frozen dataclasses), which is the engine's common-subexpression
  elimination: two textually identical ``get_json_object`` calls compile
  to one node and evaluate once per batch. Re-served results are counted
  into ``QueryMetrics.duplicate_extractions_eliminated``.

The fallback contract: anything the compiler does not lower (scalar
functions, ``IN`` over non-literal options) becomes a closure that calls
the scalar ``Expression.evaluate`` over ``batch.rows()``, so no
expression is unsupported — only slower where not vectorized. The
reference the differential tests compare this engine against is not
here: it is ``tests/reference_engine.py``, an interpreter over the
logical plan that shares only those scalar kernels.
"""

from __future__ import annotations

import threading

from .errors import ExecutionError
from .expressions import (
    Alias,
    Between,
    BinaryOp,
    CachedField,
    CastExpr,
    Column,
    EvalContext,
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

__all__ = [
    "ColumnBatch",
    "CompiledExpression",
    "BatchCompiler",
    "ExpressionAnalysis",
]


class ExpressionAnalysis:
    """Immutable per-query expression facts, shared across worker forks.

    Every morsel fork builds its own :class:`BatchCompiler` (closures
    capture the fork's private context, and per-batch identity caches
    must never be shared between concurrently executing splits), but the
    *analysis* of an expression tree — today, its extraction-call count
    — is a pure function of the frozen expression and identical in every
    fork. The coordinator's ``ExecState`` owns one instance and hands it
    read-only to each fork, so a query with N splits walks each
    expression tree once instead of N times.
    """

    __slots__ = ("_extractions", "_lock")

    def __init__(self) -> None:
        self._extractions: dict[Expression, int] = {}
        self._lock = threading.Lock()

    def extraction_count(self, expr: Expression) -> int:
        table = self._extractions
        try:
            cached = table.get(expr)
            hashable = True
        except TypeError:  # unhashable payload (e.g. Literal over a list)
            cached = None
            hashable = False
        if cached is not None:
            return cached
        count = sum(
            1 for node in walk(expr) if isinstance(node, ExtractionCall)
        )
        if hashable:
            with self._lock:
                table[expr] = count
        return count


class ColumnBatch:
    """A horizontal slice of rows stored as parallel columns.

    ``names`` preserves column order (and may alias the same underlying
    list under two names — scans expose ``col`` and ``alias.col`` without
    copying). ``rows()`` materialises per-row dict views lazily — for
    the compiler's scalar fallback, aggregate representatives and the
    final result rows — and is cached: repeated fallbacks on the same
    batch pay the conversion once.
    """

    __slots__ = ("names", "columns", "length", "origin", "_rows", "_frame")

    def __init__(self, names, columns: dict, length: int) -> None:
        self.names = tuple(names)
        self.columns = columns
        self.length = length
        #: ``(parent_batch, indices)`` when this batch was ``take``n from
        #: another — the lineage CompiledExpression uses to re-serve
        #: cached results across a filter instead of re-evaluating.
        self.origin: tuple["ColumnBatch", list[int]] | None = None
        self._rows: list[dict] | None = None
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

    def rows(self) -> list[dict]:
        """Cached per-row dict views, for the compiler's scalar fallback
        and for materialising result rows."""
        if self._rows is None:
            names = self.names
            if not names:
                self._rows = [{} for _ in range(self.length)]
            else:
                series = [self.columns[name] for name in names]
                self._rows = [
                    dict(zip(names, values)) for values in zip(*series)
                ]
        return self._rows

    def row(self, index: int) -> dict:
        return self.rows()[index]

    def to_rows(self) -> list[dict]:
        """Fresh row dicts (callers may mutate them freely)."""
        return [dict(row) for row in self.rows()]

    def take(self, indices) -> "ColumnBatch":
        """A new batch holding the given row indices, in order.

        Columns aliased to the same list stay aliased in the result.
        """
        indices = list(indices)
        copies: dict[int, list] = {}
        taken: dict[str, list] = {}
        for name in self.names:
            source = self.columns[name]
            key = id(source)
            copy = copies.get(key)
            if copy is None:
                copy = copies[key] = [source[i] for i in indices]
            taken[name] = copy
        batch = ColumnBatch(self.names, taken, len(indices))
        batch.origin = (self, indices)
        return batch

    def __len__(self) -> int:
        return self.length


class CompiledExpression:
    """A batch-lowered expression: ``evaluate(batch) -> list`` of values.

    Results are cached per batch (by identity, holding a strong
    reference): when operator trees share a compiled node — the CSE case
    — the second evaluation on the same batch is served from cache.
    The cache follows ``take`` lineage: a batch filtered down from the
    last-evaluated one gathers the cached values by index (expressions
    are pure, so the surviving rows' values are unchanged), which keeps
    CSE alive across a selective filter — e.g. a predicate's extraction
    re-used in the projection. Every re-served extraction is counted
    into ``QueryMetrics.duplicate_extractions_eliminated``.
    """

    __slots__ = ("fn", "extractions", "compiler", "_last_batch", "_last_result")

    def __init__(self, fn, extractions: int, compiler: "BatchCompiler") -> None:
        self.fn = fn
        self.extractions = extractions
        self.compiler = compiler
        self._last_batch: ColumnBatch | None = None
        self._last_result: list | None = None

    def evaluate(self, batch: ColumnBatch) -> list:
        if self._last_batch is batch:
            self._count_eliminated(batch.length)
            return self._last_result
        origin = batch.origin
        if origin is not None and origin[0] is self._last_batch:
            cached = self._last_result
            result = [cached[i] for i in origin[1]]
            self._count_eliminated(batch.length)
        else:
            result = self.fn(batch)
        self._last_batch = batch
        self._last_result = result
        return result

    def _count_eliminated(self, length: int) -> None:
        metrics = self.compiler.metrics
        if metrics is not None and self.extractions:
            metrics.duplicate_extractions_eliminated += (
                self.extractions * length
            )


class BatchCompiler:
    """Lower expression trees to column closures, memoised by equality.

    One compiler serves a whole query execution, so identical expression
    subtrees — wherever they occur in the plan — compile to the *same*
    :class:`CompiledExpression` (expression nodes are frozen dataclasses
    and compare by value). That sharing is the engine's
    common-subexpression elimination.
    """

    def __init__(self, context: EvalContext, metrics=None, analysis=None) -> None:
        self.context = context
        self.metrics = metrics
        #: Shared read-only :class:`ExpressionAnalysis` (morsel forks of
        #: one query reuse the coordinator's); private when unshared.
        self.analysis = analysis if analysis is not None else ExpressionAnalysis()
        self._memo: dict[Expression, CompiledExpression] = {}

    def compile(self, expr: Expression) -> CompiledExpression:
        memo = self._memo
        try:
            node = memo.get(expr)
        except TypeError:  # unhashable payload (e.g. Literal over a list)
            return self._lower(expr)
        if node is not None:
            return node
        node = self._lower(expr)
        try:
            memo[expr] = node
        except TypeError:
            pass
        return node

    def _lower(self, expr: Expression) -> CompiledExpression:
        fn = self._lower_fn(expr)
        if fn is None:
            fn = self._fallback(expr)
        extractions = self.analysis.extraction_count(expr)
        return CompiledExpression(fn, extractions, self)

    def _fallback(self, expr: Expression):
        """Scalar escape hatch: evaluate ``expr`` row by row."""
        context = self.context
        return lambda batch: [expr.evaluate(row, context) for row in batch.rows()]

    def _lower_fn(self, expr: Expression):
        context = self.context
        if isinstance(expr, Literal):
            value = expr.value
            return lambda batch: [value] * batch.length
        if isinstance(expr, Column):
            name = expr.name
            return lambda batch: batch.column(name)
        if isinstance(expr, CachedField):
            key = expr.env_key

            def cached_field(batch: ColumnBatch) -> list:
                try:
                    return batch.columns[key]
                except KeyError:
                    raise ExecutionError(
                        f"cached field {key!r} missing from stitched row; "
                        "Value Combiner misconfigured"
                    ) from None

            return cached_field
        if isinstance(expr, Alias):
            child = self.compile(expr.child)
            return child.evaluate
        if isinstance(expr, GetJsonObject):
            column = self.compile(expr.column)
            path = expr.path
            return lambda batch: context.get_json_objects(
                column.evaluate(batch), path
            )
        if isinstance(expr, GetXmlObject):
            column = self.compile(expr.column)
            path = expr.path
            return lambda batch: context.get_xml_objects(
                column.evaluate(batch), path
            )
        if isinstance(expr, BinaryOp):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            op = expr.op
            if op in _LOGIC:
                return self._lower_logic(op, left, right)
            if op in _COMPARE:
                return lambda batch: [
                    _null_safe_compare(op, a, b)
                    for a, b in zip(left.evaluate(batch), right.evaluate(batch))
                ]
            return lambda batch: [
                _apply_arith(op, a, b)
                for a, b in zip(left.evaluate(batch), right.evaluate(batch))
            ]
        if isinstance(expr, UnaryOp):
            child = self.compile(expr.child)
            op = expr.op
            return lambda batch: [
                _apply_unary(op, value) for value in child.evaluate(batch)
            ]
        if isinstance(expr, CastExpr):
            child = self.compile(expr.child)
            target = expr.target
            return lambda batch: [
                _apply_cast(target, value) for value in child.evaluate(batch)
            ]
        if isinstance(expr, InList):
            if all(isinstance(option, Literal) for option in expr.options):
                child = self.compile(expr.child)
                options = tuple(option.value for option in expr.options)
                return lambda batch: [
                    _in_list_result(value, options)
                    for value in child.evaluate(batch)
                ]
            # Non-literal options must keep the interpreter's lazy,
            # in-order option evaluation; fall back whole-node.
            return None
        if isinstance(expr, Between):
            child = self.compile(expr.child)
            low = self.compile(expr.low)
            high = self.compile(expr.high)
            return lambda batch: [
                _between_result(value, lo, hi)
                for value, lo, hi in zip(
                    child.evaluate(batch),
                    low.evaluate(batch),
                    high.evaluate(batch),
                )
            ]
        return None  # unknown node type: scalar fallback

    def _lower_logic(self, op: str, left: CompiledExpression,
                     right: CompiledExpression):
        """AND/OR with batch-level short-circuiting.

        Scalar ``evaluate`` never evaluates the right operand on rows the
        left operand decides (False for AND, True for OR). The batch form
        preserves that: the right side is evaluated only on the sub-batch
        of undecided rows, so errors and parse costs it would have
        skipped row-wise stay skipped batch-wise.
        """
        combine = _combine_and if op == "and" else _combine_or
        decided = False if op == "and" else True

        def logic(batch: ColumnBatch) -> list:
            left_values = left.evaluate(batch)
            pending = [
                i for i, value in enumerate(left_values) if value is not decided
            ]
            if not pending:
                return [decided] * batch.length
            if len(pending) == batch.length:
                right_values = right.evaluate(batch)
                return [
                    combine(a, b) for a, b in zip(left_values, right_values)
                ]
            out = [decided] * batch.length
            sub = batch.take(pending)
            right_values = right.evaluate(sub)
            for i, value in zip(pending, right_values):
                out[i] = combine(left_values[i], value)
            return out

        return logic
