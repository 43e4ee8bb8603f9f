"""Validated multi-path projection: read only the JSONPaths a query wants.

:class:`PathProjector` answers "the values at these paths" in **one
validating pass** over the document text, without building the tree the
:class:`~repro.jsonlib.jackson.JacksonParser` builds. Per distinct path
set it compiles (memoised, like ``parse_path``) a trie over the leading
member steps, and per trie node one regular expression that consumes, in
C, a whole run of well-formed ``"key":scalar`` members whose key is not
wanted. Unwanted containers are validate-skipped with the same
expressions, wanted values are decoded, and a wanted path that goes on
through an index or wildcard full-parses just that value and walks the
tail.

The contract is *accept a subset*: whatever the pass accepts, the
reference parser accepts with equal values at every wanted path.
Anything the pass does not recognise — an escape in a key it cannot rule
out, a number it would have to round, nesting at the depth limit, a
stray character — abandons the pass and re-runs
:meth:`JacksonParser.parse`, whose answer or
:class:`~repro.jsonlib.errors.JsonParseError` is authoritative. The
projector never decides that a document is malformed.
"""

from __future__ import annotations

import re
import sys
import time
from functools import lru_cache

from .errors import JsonParseError
from .jackson import JacksonParser
from .jsonpath import Member, _walk, evaluate, parse_path
from .tokens import scan_string

__all__ = ["PathProjector"]

# Possessive repeats (``re`` has them from 3.11) match exactly what the
# greedy ones do here — no repeat below can succeed by giving characters
# back — but spare the engine its backtracking records: 1.4x on long runs.
_Q = "+" if sys.version_info >= (3, 11) else ""
_WS = rf"[ \t\n\r]*{_Q}"
# Strings without a backslash are what ``scan_string`` returns by slicing;
# escapes are only ever skipped here, never decoded.
_CHARS = rf'[^"\\]*{_Q}'
_PLAIN = rf'"{_CHARS}"'
_STRING = rf'"{_CHARS}(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{{4}}){_CHARS})*{_Q}"'
# At most 301 integer digits: far inside ``int()``'s digit limit, which
# the reference turns into a parse error. Longer numbers take the
# reference's own ``scan_number``.
_INT = r"-?(?:0|[1-9][0-9]{0,300})"
_NUMBER = _INT + r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_SCALAR = rf"(?:{_STRING}|{_NUMBER}|true|false|null)"
_LITERALS = {"true": True, "false": False, "null": None}

_skip_ws = re.compile(_WS).match
_array_run = re.compile(rf"{_SCALAR}{_WS}(?:,{_WS}{_SCALAR}{_WS})*{_Q}").match


class _Irregular(Exception):
    """The pass met something it leaves to the reference parser."""


class _Node:
    """One trie node: the wanted member names below one object."""

    __slots__ = ("children", "leaves", "slots", "direct", "step")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        #: ``(slot, steps, start)``: output slots fed by walking
        #: ``steps[start:]`` from this node's value. A node with leaves
        #: has no children — its value is decoded whole.
        self.leaves: list[tuple[int, tuple, int]] = []
        self.slots: tuple[int, ...] = ()  # every slot at or below here
        self.direct: tuple[int, ...] = ()  # slots that are the value itself
        self.step = None

    def below(self, prefix: tuple = ()):
        """``(slot, steps)`` of every path ending at or under this node,
        the steps counted from this node's value."""
        for slot, steps, start in self.leaves:
            yield slot, (*prefix, *steps[start:])
        for name, child in self.children.items():
            yield from child.below((*prefix, Member(name)))

    def seal(self) -> None:
        """Fold paths below a wanted value into it, then compile."""
        if self.leaves and self.children:
            self.leaves = [(slot, steps, 0) for slot, steps in self.below()]
            self.children = {}
        for child in self.children.values():
            child.seal()
        self.slots = tuple(slot for slot, _, _ in self.leaves) + tuple(
            slot for child in self.children.values() for slot in child.slots
        )
        self.direct = tuple(
            slot for slot, steps, start in self.leaves if start == len(steps)
        )
        # One expression per object position: either a run of unwanted
        # scalar members (no group set), or one wanted member whose
        # scalar value lands in group 2 (plain string), 3 (integer),
        # 4 (other number) or 5 (literal); a wanted member with any
        # other value stops right before that value with only group 1.
        # A name with a quote or backslash has no escape-free spelling,
        # so only the decoded comparison can find it.
        names = [n for n in self.children if '"' not in n and "\\" not in n]
        wanted = "|".join(map(re.escape, names))
        key = rf'"(?!(?:{wanted})"){_CHARS}"' if names else _PLAIN
        unwanted = rf"{key}{_WS}:{_WS}{_SCALAR}{_WS}"
        pattern = rf"{unwanted}(?:,{_WS}{unwanted})*{_Q}"
        if names:
            pattern += (
                rf'|"({wanted})"{_WS}:{_WS}'
                rf'(?:"({_CHARS})"|({_INT})(?![0-9.eE])|({_NUMBER})'
                rf"|(true|false|null)|){_WS}"
            )
        self.step = re.compile(pattern).match


_NOTHING_WANTED = _Node()
_NOTHING_WANTED.seal()


@lru_cache(maxsize=1024)
def _compile(paths: tuple[str, ...]) -> _Node:
    """The sealed trie for one ordered tuple of canonical path strings."""
    root = _Node()
    for slot, raw in enumerate(paths):
        steps = parse_path(raw).steps
        node = root
        start = 0
        while start < len(steps) and isinstance(steps[start], Member):
            node = node.children.setdefault(steps[start].name, _Node())
            start += 1
        node.leaves.append((slot, steps, start))
    root.seal()
    return root


class PathProjector:
    """Project a fixed set of JSONPaths out of JSON documents.

    ``parse(text)`` returns a tuple with one value per path, in the order
    given (``index`` maps a canonical path string to its position) —
    each equal to ``evaluate(path, JacksonParser().parse(text))`` — or
    raises the reference parser's :class:`JsonParseError`. The method is
    named ``parse`` so a :class:`~repro.jsonlib.doccache.DocumentCache`
    can memoise projections exactly as it memoises trees.

    Cost is charged to ``parser.stats`` once per call (one document,
    ``len(text)`` bytes), whether the pass or the reference answered.
    """

    name = "projection"

    def __init__(self, paths, parser: JacksonParser | None = None) -> None:
        self.paths = tuple(dict.fromkeys(parse_path(p).raw for p in paths))
        self.index = {raw: slot for slot, raw in enumerate(self.paths)}
        self.parser = parser if parser is not None else JacksonParser()
        self.stats = self.parser.stats
        self._root = _compile(self.paths)

    def parse(self, text: str) -> tuple:
        """The values at the wanted paths of ``text``."""
        started = time.perf_counter()
        out = [None] * len(self.paths)
        stats = self.stats
        try:
            root = self._root
            i = _skip_ws(text, 0).end()
            if root.leaves or not text.startswith("{", i):
                raise _Irregular  # non-object root, or a path through it
            i = _skip_ws(text, self._object(text, i, 0, root, out)).end()
            if i != len(text):
                raise _Irregular
        except (_Irregular, JsonParseError):
            stats.seconds += time.perf_counter() - started
            document = self.parser.parse(text)  # charges itself; may raise
            return tuple(evaluate(raw, document) for raw in self.paths)
        stats.seconds += time.perf_counter() - started
        stats.documents += 1
        stats.bytes_scanned += len(text)
        return tuple(out)

    # ------------------------------------------------------------------
    def _object(self, text: str, i: int, depth: int, node: _Node, out) -> int:
        """Validate the object at ``text[i]``, filling ``out`` from the
        wanted members below ``node``; return the offset past its ``}``."""
        if depth >= self.parser.max_depth:
            raise _Irregular  # members would sit at the reference's limit
        depth += 1
        i = _skip_ws(text, i + 1).end()
        if text.startswith("}", i):
            return i + 1
        step = node.step
        children = node.children
        while True:
            match = step(text, i)
            if match is not None and match.lastindex is None:
                i = match.end()  # a run of unwanted scalar members
            else:
                if match is not None:
                    i = match.end()
                    kind = match.lastindex
                    child = children[match[1]]
                else:  # an escape in the key, or an unwanted container
                    name, i = scan_string(text, i)
                    i = _skip_ws(text, i).end()
                    if not text.startswith(":", i):
                        raise _Irregular
                    i = _skip_ws(text, i + 1).end()
                    kind = 1
                    child = children.get(name)
                if child is None:
                    i = self._skip(text, i, depth)
                else:
                    # A repeated key replaces whatever an earlier one gave.
                    for slot in child.slots:
                        out[slot] = None
                    if kind > 1:
                        if kind == 2:
                            value = match[2]
                        elif kind == 3:
                            value = int(match[3])
                        elif kind == 4:
                            value = float(match[4])
                        else:
                            value = _LITERALS[match[5]]
                        for slot in child.direct:
                            out[slot] = value
                    elif child.leaves:
                        value, i = self.parser._parse_value(text, i, depth)
                        for slot, steps, start in child.leaves:
                            out[slot] = _walk(value, steps, start)
                    elif text.startswith("{", i):
                        i = self._object(text, i, depth, child, out)
                    else:
                        i = self._skip(text, i, depth)
                if kind == 1:
                    i = _skip_ws(text, i).end()
            if text.startswith(",", i):
                i = _skip_ws(text, i + 1).end()
            elif text.startswith("}", i):
                return i + 1
            else:
                raise _Irregular

    def _skip(self, text: str, i: int, depth: int) -> int:
        """Validate the unwanted value at ``text[i]``; return its end."""
        if text.startswith("{", i):
            return self._object(text, i, depth, _NOTHING_WANTED, None)
        if not text.startswith("[", i):
            return self.parser._parse_value(text, i, depth)[1]
        if depth >= self.parser.max_depth:
            raise _Irregular
        i = _skip_ws(text, i + 1).end()
        if text.startswith("]", i):
            return i + 1
        while True:
            match = _array_run(text, i)
            if match is not None:
                i = match.end()
            else:
                i = _skip_ws(text, self._skip(text, i, depth + 1)).end()
            if text.startswith(",", i):
                i = _skip_ws(text, i + 1).end()
            elif text.startswith("]", i):
                return i + 1
            else:
                raise _Irregular
