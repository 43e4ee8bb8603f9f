"""The reference the engine's differential tests compare against.

An interpreter over ``PlannedQuery.logical`` — the seven ``Logical*``
nodes, after the analyzer resolved identifier case and expanded ``*`` —
that shares as little as it can with the engine it checks: it reads
every row of every file (no pruning, no SARG, no row-group skipping),
applies no plan modifier, and has its own scan, join, grouping,
aggregates, sort and limit. From ``repro.engine`` it takes the SQL front
end and the *scalar* semantics only (``Expression.evaluate`` over one row
dict, one whole-document parse per distinct text); nothing from
``physical.py``, ``parallel.py``, ``rawfilter.py`` or ``core/combiner.py``.

Operators map lists of ``(out, env, members)``: the row produced, what
expressions above may read (a projection's inputs stay visible to ORDER
BY), and the input rows of a group, from which aggregates are folded.
"""

from __future__ import annotations

from repro.engine import logical as lp
from repro.engine.errors import ExecutionError
from repro.engine.expressions import AggregateCall, EvalContext, Literal, transform
from repro.jsonlib import JacksonParser, JsonParseError, dumps
from repro.storage.readers import split_reader

__all__ = ["reference_rows"]


def reference_rows(session, sql: str) -> list[dict]:
    """The rows ``sql`` must return over ``session``'s catalog."""
    logical = session.compile(sql).logical
    ctx = EvalContext(parser=_ParseOnce())
    return [out for out, _, _ in _run(logical, session.catalog, ctx)]


class _ParseOnce(JacksonParser):
    """Parses each distinct text once; a failure is kept and raised again."""

    def __init__(self) -> None:
        super().__init__()
        self.parsed: dict[str, object] = {}

    def parse(self, text: str) -> object:
        if text not in self.parsed:
            try:
                self.parsed[text] = super().parse(text)
            except JsonParseError as exc:
                self.parsed[text] = exc
        if isinstance(self.parsed[text], JsonParseError):
            raise self.parsed[text]
        return self.parsed[text]


def _rank(value: object) -> tuple:
    """ORDER BY / MIN / MAX order: NULL, booleans, numbers, then text."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def _number(value: object) -> int | float:
    if isinstance(value, (int, float)):  # bool included: True sums as 1
        return value
    for parse in (int, float):
        try:
            return parse(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
    raise ExecutionError(f"aggregate over non-numeric value {value!r}")


def _aggregate(call: AggregateCall, members: list[dict], ctx) -> object:
    if call.argument is None:
        return len(members)
    values = [call.argument.evaluate(row, ctx) for row in members]
    values = [value for value in values if value is not None]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if call.func == "count":
        return len(values)
    if not values:
        return None
    if call.func in ("sum", "avg"):
        total = sum(_number(value) for value in values)
        return total if call.func == "sum" else total / len(values)
    return (min if call.func == "min" else max)(values, key=_rank)


def _value(expr, triple, ctx) -> object:
    _, env, members = triple
    if members is not None:
        expr = transform(
            expr,
            lambda node: Literal(_aggregate(node, members, ctx))
            if isinstance(node, AggregateCall)
            else None,
        )
    return expr.evaluate(env, ctx)


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


def _run(node, catalog, ctx) -> list:
    if isinstance(node, lp.LogicalScan):
        return _scan(node, catalog)
    if isinstance(node, lp.LogicalJoin):
        left, right = _run(node.left, catalog, ctx), _run(node.right, catalog, ctx)
        rows = ({**r[0], **l[0]} for l in left for r in right)  # left shadows right
        return [(m, m, None) for m in rows if node.condition.evaluate(m, ctx) is True]
    child = _run(node.child, catalog, ctx)
    if isinstance(node, lp.LogicalFilter):  # WHERE, or HAVING over groups
        return [t for t in child if _value(node.condition, t, ctx) is True]
    if isinstance(node, lp.LogicalProject):
        outs = [
            {e.output_name(): _value(e, t, ctx) for e in node.expressions}
            for t in child
        ]
        return [(out, {**t[1], **out}, t[2]) for out, t in zip(outs, child)]
    if isinstance(node, lp.LogicalAggregate):
        groups: dict[tuple, list[dict]] = {}
        for _, env, _ in child:
            key = tuple(
                dumps(v) if isinstance(v, (list, dict)) else v
                for v in (k.evaluate(env, ctx) for k in node.group_keys)
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
                e.output_name(): _value(e, (None, first, members), ctx)
                for e in visible
            }
            triples.append((out, {**first, **out}, members))
        return triples
    if isinstance(node, lp.LogicalSort):
        for key in reversed(node.keys):  # stable, last key first
            child.sort(
                key=lambda t: _rank(_value(key.expression, t, ctx)),
                reverse=not key.ascending,
            )
        return child
    if isinstance(node, lp.LogicalLimit):
        return child[: node.count]
    raise AssertionError(f"no reference semantics for {type(node).__name__}")
