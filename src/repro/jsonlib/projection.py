"""Validated multi-path projection: read only the JSONPaths a query wants.

:class:`PathProjector` makes **one validating pass in C** per document:
the stdlib's :class:`json.JSONDecoder` decodes the text and each wanted
path is walked over the tree. The contract is *accept a subset*: what
the decoder accepts, :class:`~repro.jsonlib.jackson.JacksonParser`
accepts with equal values at every wanted path. Two guards hold the
decoder to the reference — ``NaN`` / ``Infinity`` / ``-Infinity`` make
``parse_constant`` raise, and a text with more ``{`` / ``[`` characters
than the reference's depth limit is declined — and ``strict=False``
takes raw control characters in strings as the reference does. Whatever the decoder declines re-runs
:meth:`JacksonParser.parse`, whose answer or error is authoritative.
"""

from __future__ import annotations

import json
import time

from .jackson import JacksonParser
from .jsonpath import _walk, parse_path

__all__ = ["PathProjector"]


def _reject_constant(name: str):
    """``NaN``, ``Infinity`` and ``-Infinity`` are not JSON to the reference."""
    raise ValueError(f"{name} is not a JSON value")


_decode = json.JSONDecoder(strict=False, parse_constant=_reject_constant).decode


class PathProjector:
    """Project a fixed set of JSONPaths out of JSON documents.

    ``parse(text)`` returns a tuple with one value per path, in the order
    given (``index`` maps a canonical path string to its position) —
    each equal to ``evaluate(path, JacksonParser().parse(text))`` — or
    raises the reference parser's :class:`JsonParseError`; a
    :class:`~repro.jsonlib.doccache.DocumentCache` memoises it as it
    memoises trees. ``parser.stats`` is charged one document and
    ``len(text)`` bytes per call, whoever answered.
    """

    name = "projection"

    def __init__(self, paths, parser: JacksonParser | None = None) -> None:
        self.paths = tuple(dict.fromkeys(parse_path(p).raw for p in paths))
        self.index = {raw: slot for slot, raw in enumerate(self.paths)}
        self.parser = parser if parser is not None else JacksonParser()
        self.stats = self.parser.stats
        self._steps = tuple(parse_path(raw).steps for raw in self.paths)

    def parse(self, text: str) -> tuple:
        """The values at the wanted paths of ``text``."""
        started = time.perf_counter()
        limit = self.parser.max_depth
        try:
            document = _decode(text)
            # At most ``limit`` brackets cannot nest past the limit; more
            # go to the reference, which measures the depth itself.
            declined = text.count("{") + text.count("[") > limit
        except (ValueError, RecursionError):
            declined = True
        stats = self.stats
        if declined:
            stats.seconds += time.perf_counter() - started
            document = self.parser.parse(text)  # charges itself; may raise
        out = tuple([_walk(document, steps, 0) for steps in self._steps])
        if not declined:
            stats.seconds += time.perf_counter() - started
            stats.documents += 1
            stats.bytes_scanned += len(text)
        return out
