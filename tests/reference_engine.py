"""The reference the engine's differential tests compare against.

An interpreter over ``PlannedQuery.logical`` — the seven ``Logical*``
nodes, after the analyzer resolved identifier case and expanded ``*`` —
that shares as little as it can with the engine it checks: it reads
every row of every file (no pruning, no SARG, no row-group skipping),
applies no plan modifier, and has its own scan, join, grouping,
aggregates, sort and limit — and its own expression evaluator,
:func:`_eval` over one row dict, which restates comparison, three-valued
logic, arithmetic, ``IN`` and ``BETWEEN`` and extracts with
``jsonpath.evaluate`` from one whole-document parse per distinct text.
From ``repro.engine`` it takes the SQL front end, the Hive cast table
(``_apply_cast``) and the scalar function definitions
(``SCALAR_FUNCTIONS``) only; nothing from ``batch.py``, ``physical.py``,
``parallel.py``, ``rawfilter.py`` or ``core/combiner.py``.

Operators map lists of ``(out, env, members)``: the row produced, what
expressions above may read (a projection's inputs stay visible to ORDER
BY), and the input rows of a group, from which aggregates are folded.
"""

from __future__ import annotations

import operator

from repro.engine import expressions as ex
from repro.engine import logical as lp
from repro.engine.errors import ExecutionError
from repro.engine.expressions import AggregateCall, Literal, transform
from repro.engine.functions import SCALAR_FUNCTIONS, FunctionCall
from repro.jsonlib import JacksonParser, JsonParseError, dumps, jsonpath
from repro.storage.readers import split_reader

__all__ = ["reference_rows"]


def reference_rows(session, sql: str) -> list[dict]:
    """The rows ``sql`` must return over ``session``'s catalog."""
    logical = session.compile(sql).logical
    return [out for out, _, _ in _run(logical, session.catalog, _ParseOnce())]


class _ParseOnce(dict):
    """Document text → its parsed tree, or ``None`` for malformed JSON;
    each distinct text is parsed once per statement."""

    def __missing__(self, text: str) -> object:
        try:
            tree = self[text] = JacksonParser().parse(text)
        except JsonParseError:
            tree = self[text] = None
        return tree


_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "%": operator.mod}


def _numeric(value: object) -> int | float | None:
    """``value`` read as a number (a numeric string included), or None."""
    if isinstance(value, (bool, int, float)):
        return int(value) if isinstance(value, bool) else value
    for parse in (int, float):
        try:
            return parse(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
    return None


def _compare(op: str, a: object, b: object) -> bool | None:
    """Hive comparison: NULL if either side is; a string against a number,
    or a pair Python cannot order, compares as floats (NULL if one is not)."""
    if a is None or b is None:
        return None
    kinds = {type(a), type(b)}
    if not (str in kinds and kinds & {int, float}):
        try:
            return _COMPARE[op](a, b)
        except TypeError:
            pass
    try:
        return _COMPARE[op](float(a), float(b))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _eval(expr, row: dict, docs: _ParseOnce) -> object:
    """``expr``'s value on one row: one rule per node type."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ex.Column):
        return row[expr.name]
    if isinstance(expr, ex.Alias):
        return _eval(expr.child, row, docs)
    if isinstance(expr, ex.GetJsonObject):
        text = _eval(expr.column, row, docs)
        if text is not None and not isinstance(text, str):
            raise ExecutionError(f"get_json_object over {type(text).__name__}")
        return None if text is None else jsonpath.evaluate(expr.path, docs[text])
    if isinstance(expr, ex.BinaryOp) and expr.op in ("and", "or"):
        decided = expr.op == "or"  # the operand value that settles it
        left = _eval(expr.left, row, docs)
        right = decided if left is decided else _eval(expr.right, row, docs)
        if right is decided or left is None or right is None:
            return decided if right is decided else None
        return bool(left) or bool(right) if decided else bool(left) and bool(right)
    if isinstance(expr, ex.BinaryOp):
        a, b = _eval(expr.left, row, docs), _eval(expr.right, row, docs)
        if expr.op in _COMPARE:
            return _compare(expr.op, a, b)
        x, y = _numeric(a), _numeric(b)
        if a is None or b is None or x is None or y is None:
            both_text = isinstance(a, str) and isinstance(b, str)
            return a + b if expr.op == "+" and both_text else None
        return None if expr.op in "/%" and y == 0 else _ARITH[expr.op](x, y)
    if isinstance(expr, ex.UnaryOp):
        value = _eval(expr.child, row, docs)
        if expr.op in ("is null", "is not null"):
            return (value is None) == (expr.op == "is null")
        if value is None or expr.op == "not":
            return None if value is None else not value
        return None if _numeric(value) is None else -_numeric(value)  # neg
    if isinstance(expr, ex.CastExpr):
        return ex._apply_cast(expr.target, _eval(expr.child, row, docs))
    if isinstance(expr, ex.InList):
        value, saw_null = _eval(expr.child, row, docs), False
        for option in expr.options if value is not None else ():
            other = _eval(option, row, docs)  # in order, up to the first match
            if _compare("=", value, other) is True:
                return True
            saw_null = saw_null or other is None
        return None if value is None or saw_null else False
    if isinstance(expr, ex.Between):
        value, low, high = (_eval(e, row, docs) for e in expr.children())
        ge, le = _compare(">=", value, low), _compare("<=", value, high)
        return False if False in (ge, le) else None if None in (ge, le) else True
    if isinstance(expr, FunctionCall):
        values = [_eval(argument, row, docs) for argument in expr.arguments]
        try:
            return SCALAR_FUNCTIONS[expr.name.lower()][0](*values)
        except (TypeError, ValueError):  # an argument it cannot take: NULL
            return None
    raise AssertionError(f"no reference semantics for {type(expr).__name__}")


def _rank(value: object) -> tuple:
    """ORDER BY / MIN / MAX order: NULL, booleans, numbers, then text."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def _aggregate(call: AggregateCall, members: list[dict], docs) -> object:
    if call.argument is None:
        return len(members)
    values = [_eval(call.argument, row, docs) for row in members]
    values = [value for value in values if value is not None]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if call.func == "count":
        return len(values)
    if not values:
        return None
    if call.func in ("sum", "avg"):
        numbers = [_numeric(value) for value in values]
        if None in numbers:
            raise ExecutionError(f"aggregate over {values[numbers.index(None)]!r}")
        return sum(numbers) if call.func == "sum" else sum(numbers) / len(numbers)
    return (min if call.func == "min" else max)(values, key=_rank)


def _value(expr, triple, docs) -> object:
    _, env, members = triple
    if members is not None:
        expr = transform(
            expr,
            lambda node: Literal(_aggregate(node, members, docs))
            if isinstance(node, AggregateCall)
            else None,
        )
    return _eval(expr, env, docs)


def _scan(node: lp.LogicalScan, catalog) -> list:
    names = list(catalog.get_table(node.database, node.table).schema.names)
    triples = []
    for path in catalog.table_files(node.database, node.table):
        columns = split_reader(catalog.fs, path, columns=names).read().columns
        for values in zip(*(columns[name] for name in names)):
            row = dict(zip(names, values))
            if node.alias:
                row.update({f"{node.alias}.{n}": row[n] for n in names})
            triples.append((row, row, None))
    return triples


def _run(node, catalog, docs) -> list:
    if isinstance(node, lp.LogicalScan):
        return _scan(node, catalog)
    if isinstance(node, lp.LogicalJoin):
        left, right = _run(node.left, catalog, docs), _run(node.right, catalog, docs)
        rows = ({**r[0], **l[0]} for l in left for r in right)  # left shadows right
        return [(m, m, None) for m in rows if _eval(node.condition, m, docs) is True]
    child = _run(node.child, catalog, docs)
    if isinstance(node, lp.LogicalFilter):  # WHERE, or HAVING over groups
        return [t for t in child if _value(node.condition, t, docs) is True]
    if isinstance(node, lp.LogicalProject):
        outs = [
            {e.output_name(): _value(e, t, docs) for e in node.expressions}
            for t in child
        ]
        return [(out, {**t[1], **out}, t[2]) for out, t in zip(outs, child)]
    if isinstance(node, lp.LogicalAggregate):
        groups: dict[tuple, list[dict]] = {}
        for _, env, _ in child:
            key = tuple(
                dumps(v) if isinstance(v, (list, dict)) else v
                for v in (_eval(k, env, docs) for k in node.group_keys)
            )
            groups.setdefault(key, []).append(env)
        if not groups and not node.group_keys:
            groups[()] = []  # a global aggregate over nothing is one row
        # The planner appends HAVING's helper outputs to this node in
        # place; they are not part of the statement's result.
        visible = [
            e for e in node.output if not e.output_name().startswith("__having_")
        ]
        triples = []
        for members in groups.values():
            first = members[0] if members else {}
            out = {
                e.output_name(): _value(e, (None, first, members), docs)
                for e in visible
            }
            triples.append((out, {**first, **out}, members))
        return triples
    if isinstance(node, lp.LogicalSort):
        for key in reversed(node.keys):  # stable, last key first
            child.sort(
                key=lambda t: _rank(_value(key.expression, t, docs)),
                reverse=not key.ascending,
            )
        return child
    if isinstance(node, lp.LogicalLimit):
        return child[: node.count]
    raise AssertionError(f"no reference semantics for {type(node).__name__}")
