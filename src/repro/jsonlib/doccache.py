"""Parse-once document sharing.

Maxson's thesis is that raw data should never be parsed twice — yet an
execution engine can silently re-introduce duplicate parsing when several
expressions extract different paths from the *same* source column: each
``get_json_object`` call re-parses the document once per expression per
row. :class:`DocumentCache` is the shared-parse primitive that fixes
this: it wraps a parser and memoises parsed documents by source text, so
within one evaluation scope (an :class:`~repro.engine.expressions.
EvalContext` — a query's, a split's, a cache build's, a degraded
fallback's) every distinct document is parsed exactly once no matter how
many consumers evaluate paths against it.

Cost accounting contract: the wrapped parser's
:class:`~repro.jsonlib.jackson.ParseStats` charge each unique parse
**once** — a cache hit never re-charges parse time, documents or bytes to
the stats, which is what keeps the engine's "Parse" breakdown honest
under sharing (over-reporting would count the same wall-clock parse once
per consuming expression). Hits are tracked separately in :attr:`hits`
and surfaced as ``shared_parse_hits`` in query metrics.

Failed parses are cached too (as :data:`INVALID`): a malformed document
costs one parse attempt per scope, not one per consuming expression, and
the parser's ``errors`` counter moves once.

The cache is bounded two ways: by entry count (``max_entries``) and by a
byte budget (``max_bytes``, charged as the length of the *source text* —
a cheap proxy for the parsed tree that needs no traversal). Eviction is
LRU: a hit refreshes the entry, so a handful of hot documents survive a
scan over many cold ones. Evictions are counted and surfaced as
``doc_cache_evictions`` in query metrics.
"""

from __future__ import annotations

__all__ = ["DEFAULT_DOC_CACHE_BYTES", "INVALID", "DocumentCache"]

#: Sentinel cached for documents the parser rejected. Distinct from
#: ``None`` because ``"null"`` is a *valid* document that parses to None.
INVALID = object()

#: Default per-scope byte budget (source-text bytes). Generous enough
#: that typical queries never evict, small enough that a scan over large
#: documents cannot hold every one of them in memory at once.
DEFAULT_DOC_CACHE_BYTES = 64 * 1024 * 1024


class DocumentCache:
    """Memoise ``parser.parse(text)`` by source text.

    Parameters
    ----------
    parser:
        Any object with ``parse(text) -> object`` (JacksonParser,
        XmlParser, ...). Its own stats keep counting unique parses.
    error:
        Exception type (or tuple) the parser raises on malformed input;
        those texts cache as :data:`INVALID` instead of propagating.
    max_entries:
        Bound on cached documents.
    max_bytes:
        Bound on retained source-text bytes (``len(text)`` per entry —
        evicting by the text we key on avoids measuring parsed trees).
        ``None`` disables the byte budget.

    When either bound is hit the least-recently-used entry is evicted
    and :attr:`evictions` increments.
    """

    def __init__(
        self,
        parser,
        error: type[BaseException] | tuple,
        max_entries: int = 65536,
        max_bytes: int | None = DEFAULT_DOC_CACHE_BYTES,
    ) -> None:
        self.parser = parser
        self.error = error
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0
        self._documents: dict[str, object] = {}

    def document(self, text: str) -> object:
        """The parsed document for ``text``, or :data:`INVALID`.

        Parses on first sight (charging the parser's stats once) and
        serves every later request for the same text from the cache.
        """
        documents = self._documents
        try:
            cached = documents.pop(text)
        except KeyError:
            pass
        else:
            # Re-insert to refresh recency (dicts iterate oldest-first).
            documents[text] = cached
            self.hits += 1
            return cached
        self.misses += 1
        size = len(text)
        while documents and (
            len(documents) >= self.max_entries
            or (
                self.max_bytes is not None
                and self.current_bytes + size > self.max_bytes
            )
        ):
            oldest = next(iter(documents))
            documents.pop(oldest)
            self.current_bytes -= len(oldest)
            self.evictions += 1
        try:
            document = self.parser.parse(text)
        except self.error:
            document = INVALID
        documents[text] = document
        self.current_bytes += size
        return document

    def __len__(self) -> int:
        return len(self._documents)

    def clear(self) -> None:
        """Drop every cached document (hit/miss counters survive)."""
        self._documents.clear()
        self.current_bytes = 0
