"""JSON substrate: parsers, JSONPath, and raw prefiltering.

Three parsers, three roles:

* :class:`~repro.jsonlib.jackson.JacksonParser` — conventional full
  deserialisation (SparkSQL's default Jackson parser). The **reference
  semantics**: what it accepts, rejects and decodes is what every other
  consumer must agree with. It still runs wherever the whole tree is the
  point — the scalar ``get_json_object`` (what the tests' reference
  interpreter evaluates), the scorer's ``P_j`` measurement, Fig 15's
  Spark+Jackson bar.
* :class:`~repro.jsonlib.projection.PathProjector` — validated
  multi-path projection, the **production raw path**: one validating
  pass per document that materialises only the JSONPaths asked for, and
  hands anything irregular to the reference parser, so its answers are
  the reference's by construction. Used by the batch engine, the cacher
  and the combiner's degraded fallback.
* :class:`~repro.jsonlib.mison.MisonParser` — structural-index projection
  (Mison / Pikkr), kept as **Fig 15's comparator**. It does not validate
  what it skips, so it is never a default.

:class:`~repro.jsonlib.sparser.FilterCascade` is the raw-byte prefilter
(Sparser) of the same figure, and :mod:`~repro.jsonlib.jsonpath`
implements the ``get_json_object`` path dialect shared by all of them.
"""

from .doccache import INVALID, DocumentCache
from .errors import DepthLimitError, JsonError, JsonParseError, JsonPathError
from .jackson import JacksonParser, ParseStats, dumps, parse
from .jsonpath import JsonPath, evaluate, get_json_object, parse_path
from .projection import PathProjector
from .mison import MisonParser, StructuralIndex, build_structural_index
from .sparser import FilterCascade, KeyValueFilter, RawFilter, SubstringFilter

__all__ = [
    "JsonError",
    "JsonParseError",
    "JsonPathError",
    "DepthLimitError",
    "JacksonParser",
    "ParseStats",
    "DocumentCache",
    "INVALID",
    "parse",
    "dumps",
    "JsonPath",
    "parse_path",
    "evaluate",
    "get_json_object",
    "PathProjector",
    "MisonParser",
    "StructuralIndex",
    "build_structural_index",
    "FilterCascade",
    "SubstringFilter",
    "KeyValueFilter",
    "RawFilter",
]
