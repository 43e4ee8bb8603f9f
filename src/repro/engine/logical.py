"""Logical plan nodes.

The SQL parser produces this representation; the planner lowers it to
physical operators. The node set covers the plan shapes of the paper's
workload: scans with JSON extraction, filters, projections, group-by
aggregation, self-joins, sorts and limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expressions import Expression

__all__ = [
    "LogicalPlan",
    "LogicalScan",
    "LogicalJoin",
    "LogicalFilter",
    "LogicalProject",
    "LogicalAggregate",
    "LogicalSort",
    "LogicalLimit",
    "SortKey",
]


class LogicalPlan:
    """Base class; children() enables generic traversal."""

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def describe(self, indent: int = 0) -> str:
        """A readable plan tree (EXPLAIN-style)."""
        pad = "  " * indent
        lines = [f"{pad}{self._label()}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


@dataclass
class LogicalScan(LogicalPlan):
    """Scan of ``database.table`` with an optional alias."""

    database: str
    table: str
    alias: str | None = None

    def _label(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Scan {self.database}.{self.table}{alias}"


@dataclass
class LogicalJoin(LogicalPlan):
    """Inner equi-join (the only join kind the workload uses)."""

    left: LogicalPlan
    right: LogicalPlan
    condition: Expression

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def _label(self) -> str:
        return f"Join on {self.condition.sql()}"


@dataclass
class LogicalFilter(LogicalPlan):
    """WHERE (or HAVING, when above an aggregate)."""

    child: LogicalPlan
    condition: Expression

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"Filter {self.condition.sql()}"


@dataclass
class LogicalProject(LogicalPlan):
    """SELECT list."""

    child: LogicalPlan
    expressions: list[Expression]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def _label(self) -> str:
        cols = ", ".join(e.sql() for e in self.expressions)
        return f"Project [{cols}]"


@dataclass
class LogicalAggregate(LogicalPlan):
    """GROUP BY keys + aggregate/project output expressions."""

    child: LogicalPlan
    group_keys: list[Expression]
    output: list[Expression]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def _label(self) -> str:
        keys = ", ".join(e.sql() for e in self.group_keys) or "<global>"
        outs = ", ".join(e.sql() for e in self.output)
        return f"Aggregate keys=[{keys}] out=[{outs}]"


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY item."""

    expression: Expression
    ascending: bool = True


@dataclass
class LogicalSort(LogicalPlan):
    """ORDER BY."""

    child: LogicalPlan
    keys: list[SortKey] = field(default_factory=list)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def _label(self) -> str:
        keys = ", ".join(
            f"{k.expression.sql()} {'ASC' if k.ascending else 'DESC'}" for k in self.keys
        )
        return f"Sort [{keys}]"


@dataclass
class LogicalLimit(LogicalPlan):
    """LIMIT n (``slot``: as :attr:`Literal.slot`)."""

    child: LogicalPlan
    count: int
    slot: int | None = None

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"Limit {self.count}"
