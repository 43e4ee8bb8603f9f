"""Parse-once document sharing.

Maxson's thesis is that raw data should never be parsed twice — yet an
execution engine re-introduces duplicate parsing when several expressions
extract paths from the *same* column. :class:`DocumentCache` is the
shared-parse primitive: it wraps a parser and memoises what it returns by
source text, so within one evaluation scope (an :class:`~repro.engine.
expressions.EvalContext` — a query's, a split's, a cache build's, a
degraded fallback's) every distinct document is parsed once. For JSON the
parser is a :class:`~repro.jsonlib.projection.PathProjector` and the
cache holds each text's tuple of path values; the engine asks it once per
column per batch (:meth:`DocumentCache.column`, from
``EvalContext.project_json``), however many ``get_json_object`` calls
read the column.

Cost accounting contract: the wrapped parser's
:class:`~repro.jsonlib.jackson.ParseStats` charge each unique parse
**once** — a hit re-charges no time, documents or bytes. Hits are counted
in :attr:`hits` and surfaced as ``shared_parse_hits`` in query metrics,
together with the rows an extraction read from a projection its batch
already held. Failed parses are cached too (as :data:`INVALID`): a
malformed document costs one parse attempt per scope, and the parser's
``errors`` counter moves once.

The cache is bounded by entry count (``max_entries``) and by a byte
budget (``max_bytes``, charged as the length of the *source text*, a
cheap proxy that needs no traversal). Eviction is LRU: a hit refreshes
the entry. Evictions are surfaced as ``doc_cache_evictions``.
"""

from __future__ import annotations

__all__ = ["DEFAULT_DOC_CACHE_BYTES", "INVALID", "DocumentCache"]

#: Sentinel cached for documents the parser rejected. Distinct from
#: ``None`` because ``"null"`` is a *valid* document that parses to None.
INVALID = object()

#: What ``dict.pop`` returns for a text the cache does not hold.
_UNCACHED = object()

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

    def column(self, texts: list, absent: object) -> list:
        """:meth:`document` of each text in one call, ``absent`` for a
        ``None`` text or an :data:`INVALID` document. A hit refreshes and
        counts as there; a miss goes through :meth:`document`. Raises
        ``TypeError`` at a text neither a string nor ``None``."""
        documents = self._documents
        out = []
        for text in texts:
            if not isinstance(text, str):
                if text is not None:
                    raise TypeError(f"expects a string column, got {type(text).__name__}")
                out.append(absent)
                continue
            document = documents.pop(text, _UNCACHED)
            if document is _UNCACHED:
                document = self.document(text)
            else:
                documents[text] = document  # re-inserted: most recent
                self.hits += 1
            out.append(absent if document is INVALID else document)
        return out

    def __len__(self) -> int:
        return len(self._documents)

    def clear(self) -> None:
        """Drop every cached document (hit/miss counters survive)."""
        self._documents.clear()
        self.current_bytes = 0
