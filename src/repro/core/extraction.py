"""Format dispatch for offline value extraction (cacher / scorer).

Cache keys carry a path whose syntax identifies its format — ``$...`` is
a JSONPath, ``/...`` is the XPath-like dialect of :mod:`repro.xmllib`.
:class:`ValueExtractor` reads any number of paths from each document at
the cost of one pass per format: consumers that know their paths up
front (the cacher, the combiner's degraded fallback) take a
:meth:`~ValueExtractor.projection`, which reads just those JSONPaths
with a :class:`~repro.jsonlib.projection.PathProjector`; the scorer's
``P_j`` measurement keeps :meth:`~ValueExtractor.decode`, the full parse
the paper defines it by.
"""

from __future__ import annotations

from ..jsonlib.doccache import INVALID, DocumentCache
from ..jsonlib.errors import JsonParseError
from ..jsonlib.jackson import JacksonParser
from ..jsonlib.jsonpath import evaluate as eval_json_path
from ..jsonlib.jsonpath import parse_path
from ..jsonlib.projection import PathProjector
from ..xmllib.parser import XmlParseError, XmlParser
from ..xmllib.xpath import evaluate_xpath

__all__ = ["path_format", "ValueExtractor"]


def path_format(path: str) -> str:
    """'json' for ``$...`` paths, 'xml' for ``/...`` paths."""
    stripped = path.lstrip()
    if stripped.startswith("$"):
        return "json"
    if stripped.startswith("/"):
        return "xml"
    raise ValueError(f"cannot determine format of path {path!r}")


class ValueExtractor:
    """Parse-once, evaluate-many extraction over one string column value.

    Parsing routes through per-format
    :class:`~repro.jsonlib.doccache.DocumentCache` instances, so repeated
    identical documents — common in real logs, and guaranteed when a
    build and a fallback both touch the same split — parse once per
    extractor rather than once per row. Parser stats still charge each
    *unique* parse exactly once.
    """

    def __init__(self) -> None:
        self.json_parser = JacksonParser()
        self.xml_parser = XmlParser()
        self._json_documents = DocumentCache(self.json_parser, JsonParseError)
        self._xml_documents = DocumentCache(self.xml_parser, XmlParseError)
        #: path tuple -> (its projection function, its document cache)
        self._projections: dict[tuple[str, ...], tuple] = {}

    def projection(self, paths: tuple[str, ...]):
        """A function from one column value to the list of values at
        ``paths`` (JSONPaths and XPaths may mix); ``None`` wherever the
        text is not a string, is malformed, or lacks the path.

        All the JSONPaths are read in one validating pass per distinct
        text, and the small tuple it yields is what the document cache
        keeps, so parser stats charge each unique text once — exactly as
        :meth:`decode` does. One function per distinct ``paths`` tuple,
        however often it is asked for.
        """
        known = self._projections.get(paths)
        if known is not None:
            return known[0]
        projector = PathProjector(
            [path for path in paths if path_format(path) == "json"],
            self.json_parser,
        )
        json_documents = DocumentCache(projector, JsonParseError)
        json_slots: list[tuple[int, int]] = []  # (output, projector slot)
        xml_paths: list[tuple[int, str]] = []  # (output, path)
        for i, path in enumerate(paths):
            if path_format(path) == "json":
                json_slots.append((i, projector.index[parse_path(path).raw]))
            else:
                xml_paths.append((i, path))
        xml_documents = self._xml_documents

        def project(text: object) -> list:
            out: list[object] = [None] * len(paths)
            if not isinstance(text, str):
                return out
            if json_slots:
                values = json_documents.document(text)
                if values is not INVALID:
                    for i, slot in json_slots:
                        out[i] = values[slot]
            if xml_paths:
                document = xml_documents.document(text)
                if document is not INVALID:
                    for i, path in xml_paths:
                        out[i] = evaluate_xpath(path, document)
            return out

        self._projections[paths] = (project, json_documents)
        return project

    def decode(self, text: object, formats: set[str]) -> dict[str, object]:
        """Parse ``text`` once per requested format; None on failure."""
        documents: dict[str, object] = {}
        if not isinstance(text, str):
            return {fmt: None for fmt in formats}
        if "json" in formats:
            document = self._json_documents.document(text)
            documents["json"] = None if document is INVALID else document
        if "xml" in formats:
            document = self._xml_documents.document(text)
            documents["xml"] = None if document is INVALID else document
        return documents

    @property
    def shared_parse_hits(self) -> int:
        """Parses avoided by document sharing in this extractor."""
        return (
            self._json_documents.hits
            + self._xml_documents.hits
            + sum(cache.hits for _, cache in self._projections.values())
        )

    @staticmethod
    def evaluate(documents: dict[str, object], path: str) -> object:
        """Evaluate one path against the pre-decoded documents."""
        fmt = path_format(path)
        document = documents.get(fmt)
        if document is None:
            return None
        if fmt == "json":
            return eval_json_path(path, document)
        return evaluate_xpath(path, document)

    def extract(self, text: object, path: str) -> object:
        """One-shot convenience: decode + evaluate a single path."""
        fmt = path_format(path)
        return self.evaluate(self.decode(text, {fmt}), path)
