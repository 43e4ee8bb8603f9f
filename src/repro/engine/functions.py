"""Builtin scalar functions.

A small registry of Hive-style scalar functions usable anywhere an
expression is (SELECT list, WHERE, GROUP BY, ORDER BY). All functions
follow the SQL NULL convention — NULL in, NULL out — except ``coalesce``
and ``nvl``, whose purpose is to absorb NULLs. An argument a function
cannot take (its ``TypeError``/``ValueError``) gives NULL, as in Hive:
the expression compiler (:mod:`repro.engine.batch`) applies that rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PlanError
from .expressions import Expression

__all__ = ["FunctionCall", "SCALAR_FUNCTIONS", "is_scalar_function"]


def _null_safe(fn):
    """Wrap an implementation so any NULL argument yields NULL."""

    def wrapper(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapper


def _coalesce(*args):
    for a in args:
        if a is not None:
            return a
    return None


def _concat(*args):
    if any(a is None for a in args):
        return None
    return "".join(_stringify(a) for a in args)


def _stringify(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _substr(value, start, length=None):
    # Hive substr is 1-based; negative start counts from the end.
    text = _stringify(value)
    start = int(start)
    if start > 0:
        begin = start - 1
    elif start < 0:
        begin = max(len(text) + start, 0)
    else:
        begin = 0
    if length is None:
        return text[begin:]
    length = int(length)
    if length <= 0:
        return ""
    return text[begin : begin + length]


def _round(value, digits=0):
    return round(float(value), int(digits)) if digits else float(round(float(value)))


def _to_number(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    return float(value)


#: name -> (implementation, min_args, max_args). ``None`` max = variadic.
SCALAR_FUNCTIONS: dict[str, tuple] = {
    "length": (_null_safe(lambda v: len(_stringify(v))), 1, 1),
    "lower": (_null_safe(lambda v: _stringify(v).lower()), 1, 1),
    "upper": (_null_safe(lambda v: _stringify(v).upper()), 1, 1),
    "trim": (_null_safe(lambda v: _stringify(v).strip()), 1, 1),
    "abs": (_null_safe(lambda v: abs(_to_number(v))), 1, 1),
    "round": (_null_safe(_round), 1, 2),
    "concat": (_concat, 1, None),
    "coalesce": (_coalesce, 1, None),
    "nvl": (_coalesce, 2, 2),
    "substr": (_null_safe(_substr), 2, 3),
    "substring": (_null_safe(_substr), 2, 3),
}


def is_scalar_function(name: str) -> bool:
    return name.lower() in SCALAR_FUNCTIONS


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a registered scalar function."""

    name: str
    arguments: tuple[Expression, ...]

    def __post_init__(self) -> None:
        entry = SCALAR_FUNCTIONS.get(self.name.lower())
        if entry is None:
            raise PlanError(f"unknown function {self.name!r}")
        _, min_args, max_args = entry
        n = len(self.arguments)
        if n < min_args or (max_args is not None and n > max_args):
            expect = (
                f"{min_args}" if max_args == min_args
                else f"{min_args}..{max_args if max_args is not None else 'n'}"
            )
            raise PlanError(
                f"{self.name}() takes {expect} arguments, got {n}"
            )

    def children(self) -> tuple[Expression, ...]:
        return self.arguments

    def with_children(self, children: tuple[Expression, ...]) -> "FunctionCall":
        return FunctionCall(self.name, tuple(children))

    def output_name(self) -> str:
        return self.name.lower()

    def sql(self) -> str:
        inner = ", ".join(a.sql() for a in self.arguments)
        return f"{self.name.lower()}({inner})"
