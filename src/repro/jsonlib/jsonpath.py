"""JSONPath parsing and evaluation with ``get_json_object`` semantics.

The paper's queries access JSON fields through Hive/Spark's
``get_json_object(column, '$.a.b[0]')`` UDF. This module implements that
path dialect:

* ``$`` — the root document;
* ``.name`` / ``['name']`` — object member access;
* ``[i]`` — array index (non-negative);
* ``[*]`` — wildcard over array elements (result is a list);
* chained steps, e.g. ``$.items[*].price``.

Evaluation returns ``None`` for any missing step (Hive returns SQL NULL),
never raising, while *path parsing* errors raise :class:`JsonPathError` so
malformed queries fail loudly at plan time rather than silently returning
NULLs at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import JsonPathError

__all__ = [
    "Step",
    "Member",
    "Index",
    "Wildcard",
    "JsonPath",
    "parse_path",
    "evaluate",
    "get_json_object",
]


@dataclass(frozen=True, slots=True)
class Member:
    """Object member access ``.name`` or ``['name']``."""

    name: str


@dataclass(frozen=True, slots=True)
class Index:
    """Array index access ``[i]``."""

    index: int


@dataclass(frozen=True, slots=True)
class Wildcard:
    """Array wildcard ``[*]``; fans the evaluation out over elements."""


Step = Union[Member, Index, Wildcard]


@dataclass(frozen=True)
class JsonPath:
    """A parsed JSONPath: an ordered tuple of steps rooted at ``$``.

    Instances are hashable and therefore usable directly as cache keys —
    Maxson's cache tables key on ``(db, table, column, JsonPath)``.
    """

    raw: str
    steps: tuple[Step, ...]

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.raw

    @property
    def depth(self) -> int:
        """Number of member steps — the nesting level of the target field."""
        return sum(1 for step in self.steps if isinstance(step, Member))

    @property
    def leaf(self) -> str:
        """Name of the final member step, or '' if the path ends in an index."""
        for step in reversed(self.steps):
            if isinstance(step, Member):
                return step.name
        return ""

    def evaluate(self, document: object) -> object:
        """Evaluate this path against a decoded document."""
        return evaluate(self, document)


_IDENT_TERMINATORS = ".["


def _parse_bracket(raw: str, i: int) -> tuple[Step, int]:
    """Parse one ``[...]`` selector starting at the ``[`` in ``raw[i]``."""
    end = raw.find("]", i)
    if end == -1:
        raise JsonPathError("unterminated '['", raw)
    inner = raw[i + 1 : end].strip()
    if not inner:
        raise JsonPathError("empty bracket selector", raw)
    if inner == "*":
        return Wildcard(), end + 1
    if inner[0] in "'\"":
        if len(inner) < 2 or inner[-1] != inner[0]:
            raise JsonPathError("unterminated quoted member", raw)
        return Member(inner[1:-1]), end + 1
    try:
        index = int(inner)
    except ValueError as exc:
        raise JsonPathError(f"invalid index {inner!r}", raw) from exc
    if index < 0:
        raise JsonPathError("negative indices are not supported", raw)
    return Index(index), end + 1


@lru_cache(maxsize=4096)
def parse_path(raw: str) -> JsonPath:
    """Parse a JSONPath string such as ``$.a.b[0]`` into a :class:`JsonPath`.

    Results are memoised: workloads evaluate the same handful of paths
    millions of times, and path parsing must not show up in the parse-cost
    accounting.
    """
    text = raw.strip()
    if not text.startswith("$"):
        raise JsonPathError("path must start with '$'", raw)
    steps: list[Step] = []
    i = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ".":
            i += 1
            if i >= n:
                raise JsonPathError("trailing '.'", raw)
            if text[i] == "." or text[i] == "[":
                raise JsonPathError("empty member name", raw)
            j = i
            while j < n and text[j] not in _IDENT_TERMINATORS:
                j += 1
            steps.append(Member(text[i:j]))
            i = j
        elif ch == "[":
            step, i = _parse_bracket(text, i)
            steps.append(step)
        else:
            raise JsonPathError(f"unexpected character {ch!r}", raw)
    if not steps:
        raise JsonPathError("path selects the whole document; use at least one step", raw)
    return JsonPath(raw=text, steps=tuple(steps))


def evaluate(path: JsonPath | str, document: object) -> object:
    """Evaluate ``path`` against ``document``; missing steps yield ``None``."""
    if isinstance(path, str):
        path = parse_path(path)
    return _walk(document, path.steps, 0)


def _walk(node: object, steps: tuple[Step, ...], i: int) -> object:
    while i < len(steps):
        step = steps[i]
        if isinstance(step, Member):
            # A missing key reads as None, as does every step after it.
            node = node.get(step.name) if isinstance(node, dict) else None
        elif isinstance(step, Index):
            if not isinstance(node, list) or step.index >= len(node):
                return None
            node = node[step.index]
        else:  # Wildcard
            if not isinstance(node, list):
                return None
            fanned = [_walk(element, steps, i + 1) for element in node]
            return [value for value in fanned if value is not None]
        i += 1
    return node


def get_json_object(json_text: str | None, path: str, parser=None) -> object:
    """Hive-compatible ``get_json_object``: parse then evaluate.

    ``None`` input, malformed JSON and missing paths all yield ``None``
    (matching Hive's NULL-on-error contract). Pass a parser instance to
    attribute parse cost to a caller-owned :class:`~repro.jsonlib.jackson.ParseStats`.
    """
    if json_text is None:
        return None
    from .jackson import JacksonParser
    from .errors import JsonParseError

    if parser is None:
        parser = JacksonParser()
    try:
        document = parser.parse(json_text)
    except JsonParseError:
        return None
    return evaluate(path, document)
