"""Validated multi-path projection: read only the JSONPaths a query wants.

:class:`PathProjector` makes **one validating pass in C** per document:
the stdlib's :class:`json.JSONDecoder` decodes the text, and the wanted
paths are read along a trie of their member steps — a shared prefix is
looked up once, the leaves under one object come out of one ``map`` —
with index and wildcard tails walked by ``jsonpath._walk``. The contract
is *accept a subset*: what the decoder accepts,
:class:`~repro.jsonlib.jackson.JacksonParser` accepts with equal values
at every wanted path. Two guards hold the decoder to the reference —
``NaN`` / ``Infinity`` / ``-Infinity`` make ``parse_constant`` raise,
and a text with more ``{`` / ``[`` characters than the reference's depth
limit is declined (:func:`_brackets_exceed`) — and ``strict=False``
takes raw control characters in strings as the reference does. Whatever
the decoder declines re-runs :meth:`JacksonParser.parse`, whose answer
or error is authoritative.
"""

from __future__ import annotations

import json
import time
from operator import itemgetter

from .jackson import JacksonParser
from .jsonpath import Member, _walk, parse_path

__all__ = ["PathProjector"]


def _reject_constant(name: str):
    """``NaN``, ``Infinity`` and ``-Infinity`` are not JSON to the reference."""
    raise ValueError(f"{name} is not a JSON value")


#: The decoder's C scanner, called as ``JSONDecoder.decode`` calls it, less
#: its two Python frames and the whitespace matches a text seldom needs.
_scan = json.JSONDecoder(strict=False, parse_constant=_reject_constant).scan_once
_space = json.decoder.WHITESPACE.match
_SPACE = " \t\n\r"

#: Brackets :func:`_brackets_exceed` finds by ``str.find`` before it counts.
_FINDS = 8


def _brackets_exceed(text: str, limit: int) -> bool:
    """``text.count("{") + text.count("[") > limit``. ``str.find`` (memchr)
    skips to each of a few brackets where ``count`` visits every character;
    past ``min(limit, _FINDS)`` found, the answer is known or the counts
    give it."""
    budget = min(limit, _FINDS)
    seen = 0
    find = text.find
    for bracket in "{[":
        at = find(bracket)
        while at >= 0:
            seen += 1
            if seen > budget:
                return budget == limit or text.count("{") + text.count("[") > limit
            at = find(bracket, at + 1)
    return False


def _trie(entries: list, order: list) -> tuple:
    """The node ``(tails, names, children, blank)`` :func:`_read` walks for
    ``entries``, each ``(slot, steps below the node)``; appends the slots
    to ``order`` in the order :func:`_read` reads them."""
    tails, names, below = [], [], {}
    for slot, steps in entries:
        if not isinstance(steps[0], Member):
            tails.append((slot, steps))
        elif len(steps) == 1:
            names.append((slot, steps[0].name))
        else:
            below.setdefault(steps[0].name, []).append((slot, steps[1:]))
    order += [slot for slot, _ in tails]
    start = len(order)
    order += [slot for slot, _ in names]
    children = tuple((name, _trie(group, order)) for name, group in below.items())
    blank = [None] * (len(order) - start)
    return tuple(s for _, s in tails), tuple(n for _, n in names), children, blank


def _read(value: object, node: tuple, out: list) -> None:
    """Append the values of ``node``'s paths at ``value``: its tails, its
    leaf names, then each child's, depth first."""
    tails, names, children, blank = node
    for steps in tails:
        out.append(_walk(value, steps, 0))
    if isinstance(value, dict):
        out += map(value.get, names)
        for name, child in children:
            _read(value.get(name), child, out)
    else:  # a non-object has no members, nor anything below them
        out += blank


class PathProjector:
    """Project a fixed set of JSONPaths out of JSON documents.

    ``parse(text)`` returns a tuple with one value per path, in the order
    given (``index`` maps a canonical path string to its position, so a
    projector over ``(*paths, *more)`` keeps every slot of ``paths``) —
    each equal to ``evaluate(path, JacksonParser().parse(text))`` — or
    raises the reference parser's :class:`JsonParseError`; a
    :class:`~repro.jsonlib.doccache.DocumentCache` memoises it as it
    memoises trees. ``nulls`` is the tuple of a text holding no path.
    ``parser.stats`` is charged one document and ``len(text)`` bytes per
    call, whoever answered.
    """

    name = "projection"

    def __init__(self, paths, parser: JacksonParser | None = None) -> None:
        self.paths = tuple(dict.fromkeys(parse_path(p).raw for p in paths))
        self.index = {raw: slot for slot, raw in enumerate(self.paths)}
        self.parser = parser if parser is not None else JacksonParser()
        self.stats = self.parser.stats
        self.nulls = (None,) * len(self.paths)
        order: list[int] = []
        steps = [(slot, parse_path(raw).steps) for slot, raw in enumerate(self.paths)]
        self._trie = _trie(steps, order)
        # ``_read`` reads in trie order; the tuple is in the order given.
        positions = sorted(range(len(order)), key=order.__getitem__)
        self._order = tuple if order == sorted(order) else itemgetter(*positions)

    def parse(self, text: str) -> tuple:
        """The values at the wanted paths of ``text``."""
        started = time.perf_counter()
        limit = self.parser.max_depth
        try:
            # ``decode``'s rule: one value, JSON whitespace around it; no
            # value raises StopIteration, extra data declines.
            document, end = _scan(text, _space(text).end() if text[:1] in _SPACE else 0)
            # At most ``limit`` brackets cannot nest past the limit; more
            # go to the reference, which measures the depth itself.
            declined = (
                end != len(text) and _space(text, end).end() != len(text)
            ) or _brackets_exceed(text, limit)
        except (ValueError, RecursionError, StopIteration):
            declined = True
        stats = self.stats
        if declined:
            stats.seconds += time.perf_counter() - started
            document = self.parser.parse(text)  # charges itself; may raise
        values: list = []
        _read(document, self._trie, values)
        out = self._order(values)
        if not declined:
            stats.seconds += time.perf_counter() - started
            stats.documents += 1
            stats.bytes_scanned += len(text)
        return out
