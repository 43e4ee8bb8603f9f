"""Search ARGuments (SARGs): row-group elimination predicates.

ORC readers evaluate simplified predicate trees against the per-row-group
min/max statistics (paper §IV-F). A SARG answers one of ORC's truth values
per row group: ``NO`` (no row matches: skip the group), ``YES`` (every row
matches: its conjunct need not be evaluated) or ``MAYBE``. Neither may be
wrong, so ``YES`` asks more: no NULL in the group, and no float (a NaN
compares false with everything, so min/max never see it). Readers add a
third condition: every open checks the footer's CRC.

A SARG's :attr:`Sarg.key` is type-exact where ``==`` is not: the literals
``1``, ``1.0`` and ``True`` compare equal but may decide a row group
differently, so readers memoise truths on the key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "ColumnStats",
    "SargOp",
    "Sarg",
    "ComparisonSarg",
    "AndSarg",
    "OrSarg",
    "Truth",
    "always_true",
    "conjunction",
    "kleene_and",
]


@dataclass(frozen=True)
class ColumnStats:
    """Per-row-group statistics for one column."""

    minimum: object
    maximum: object
    null_count: int
    value_count: int
    float_domain: bool = field(default=False, compare=False)
    """The column may hold floats, so min/max may miss a NaN (not stored:
    a footer derives it from the column's type)."""

    @property
    def all_null(self) -> bool:
        return self.null_count == self.value_count

    @classmethod
    def of(cls, values: list[object]) -> "ColumnStats":
        """Compute stats over one row group's values."""
        non_null = [v for v in values if v is not None]
        if not non_null:
            return cls(None, None, len(values), len(values))
        return cls(
            minimum=min(non_null),
            maximum=max(non_null),
            null_count=len(values) - len(non_null),
            value_count=len(values),
            float_domain=any(isinstance(v, float) for v in non_null),
        )


class SargOp(enum.Enum):
    """Comparison operators expressible in a SARG."""

    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IS_NULL = "is null"
    IS_NOT_NULL = "is not null"


class Truth(enum.Enum):
    """ORC's SARG truth values for one row group."""

    NO = "no"
    MAYBE = "maybe"
    YES = "yes"


class Sarg:
    """Base class. ``truth(stats)`` is the row-group test."""

    def truth(self, stats_by_column: dict[str, ColumnStats]) -> Truth:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """The column names this SARG inspects."""
        raise NotImplementedError

    @cached_property
    def key(self) -> tuple:
        """Equal keys, equal truths on any statistics (see the module)."""
        return (type(self), *(child.key for child in getattr(self, "children", ())))


def _comparable(a: object, b: object) -> bool:
    """min/max comparisons are only meaningful within one type family."""
    numeric = (int, float)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, numeric) and isinstance(b, numeric):
        return True
    return type(a) is type(b)


#: op -> (no row of [lo, hi] can match, every row must), for literal x.
_DECIDE = {
    SargOp.EQ: lambda lo, hi, x: (not lo <= x <= hi, lo == hi == x),
    SargOp.LT: lambda lo, hi, x: (not lo < x, hi < x),
    SargOp.LE: lambda lo, hi, x: (not lo <= x, hi <= x),
    SargOp.GT: lambda lo, hi, x: (not hi > x, lo > x),
    SargOp.GE: lambda lo, hi, x: (not hi >= x, lo >= x),
}


@dataclass(frozen=True)
class ComparisonSarg(Sarg):
    """``column OP literal`` (or a null test when ``op`` is a null op)."""

    column: str
    op: SargOp
    literal: object = None

    def columns(self) -> set[str]:
        return {self.column}

    @cached_property
    def key(self) -> tuple:
        return (self.column, self.op.value, type(self.literal), self.literal)

    def truth(self, stats_by_column: dict[str, ColumnStats]) -> Truth:
        stats = stats_by_column.get(self.column)
        if stats is None:
            return Truth.MAYBE  # no statistics -> cannot decide
        if self.op is SargOp.IS_NULL:
            if stats.null_count == 0:
                return Truth.NO
            return Truth.YES if stats.all_null else Truth.MAYBE
        if self.op is SargOp.IS_NOT_NULL:
            if stats.all_null:
                return Truth.NO
            return Truth.YES if stats.null_count == 0 else Truth.MAYBE
        if stats.all_null:
            return Truth.NO  # comparisons with NULL never match
        lo, hi = stats.minimum, stats.maximum
        lit = self.literal
        if lit is None or lo != lo or hi != hi or not _comparable(lo, lit):
            return Truth.MAYBE  # NaN bounds or incomparable domains
        none, every = _DECIDE[self.op](lo, hi, lit)
        if none:
            return Truth.NO
        exact = not stats.null_count and not stats.float_domain
        if every and exact and not any(isinstance(v, float) for v in (lo, hi, lit)):
            return Truth.YES
        return Truth.MAYBE


@dataclass(frozen=True)
class AndSarg(Sarg):
    """Conjunction: NO if any conjunct is NO, YES if every one is YES."""

    children: tuple[Sarg, ...]

    def columns(self) -> set[str]:
        return set().union(*(c.columns() for c in self.children)) if self.children else set()

    def truth(self, stats_by_column: dict[str, ColumnStats]) -> Truth:
        return kleene_and(c.truth(stats_by_column) for c in self.children)


def kleene_and(truths) -> Truth:
    """NO if any of ``truths`` is NO, YES if every one is YES, else MAYBE."""
    truths = set(truths)
    if Truth.NO in truths:
        return Truth.NO
    return Truth.MAYBE if Truth.MAYBE in truths else Truth.YES


@dataclass(frozen=True)
class OrSarg(Sarg):
    """Disjunction: YES if any disjunct is YES, NO if every one is NO."""

    children: tuple[Sarg, ...]

    def columns(self) -> set[str]:
        return set().union(*(c.columns() for c in self.children)) if self.children else set()

    def truth(self, stats_by_column: dict[str, ColumnStats]) -> Truth:
        truths = {c.truth(stats_by_column) for c in self.children}
        if Truth.YES in truths:
            return Truth.YES
        return Truth.NO if truths == {Truth.NO} else Truth.MAYBE


class _AlwaysTrue(Sarg):
    def truth(self, stats_by_column: dict[str, ColumnStats]) -> Truth:
        return Truth.MAYBE

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return "Sarg(TRUE)"


def always_true() -> Sarg:
    """The SARG that never eliminates anything (no pushdown possible)."""
    return _AlwaysTrue()


def conjunction(sargs) -> Sarg | None:
    """One SARG for several conjuncts' (``None`` for none)."""
    sargs = tuple(sargs)
    if len(sargs) < 2:
        return sargs[0] if sargs else None
    return AndSarg(sargs)
