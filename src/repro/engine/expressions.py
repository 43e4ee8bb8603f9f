"""Expression trees for the query engine.

The nodes are frozen dataclasses — data, not evaluators. The engine
evaluates them one way only: :class:`~repro.engine.batch.
ExpressionProgram` lowers a plan's trees to closures over whole columns,
built from the scalar kernels below (``_null_safe_compare``,
``_apply_arith``, ...). Extraction reads through an
:class:`EvalContext`, which owns the JSON parser and its cost counters:
it is how the engine attributes time to "Parse" in the paper's cost
breakdowns.

The tree is also what Maxson's plan rewriter walks (paper Algorithm 1):
:class:`GetJsonObject` nodes matching a valid cache entry are replaced by
:class:`CachedField` placeholders, which read pre-parsed values straight
from the row environment (the Value Combiner stitches those values in
under the placeholder's output name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from ..jsonlib.doccache import DEFAULT_DOC_CACHE_BYTES, DocumentCache
from ..jsonlib.errors import JsonParseError
from ..jsonlib.jackson import JacksonParser
from ..jsonlib.jsonpath import evaluate as eval_path
from ..jsonlib.jsonpath import parse_path
from ..jsonlib.projection import PathProjector
from .errors import ExecutionError, PlanError

__all__ = [
    "path_format",
    "EvalContext",
    "Expression",
    "Column",
    "Literal",
    "Alias",
    "ExtractionCall",
    "GetJsonObject",
    "GetXmlObject",
    "CachedField",
    "BinaryOp",
    "UnaryOp",
    "CastExpr",
    "InList",
    "Between",
    "AggregateCall",
    "walk",
    "transform",
    "split_conjuncts",
    "conjoin",
]


def path_format(path: str) -> str:
    """'json' for ``$...`` paths, 'xml' for ``/...`` paths."""
    stripped = path.lstrip()
    if stripped.startswith("$"):
        return "json"
    if stripped.startswith("/"):
        return "xml"
    raise ValueError(f"cannot determine format of path {path!r}")


@dataclass
class EvalContext:
    """Shared evaluation state: the parsers and their stats.

    The one extractor: a query's raw scan, the cache build and the
    combiner's degraded fallback all read path values through a context,
    so the value a cache file stores is the value a raw query computes.

    ``projection_parser`` optionally replaces full parsing with a
    Mison-style projecting parser; when set, ``get_json_object`` projects a
    single path instead of deserialising the document (the Spark+Mison
    configuration of the paper's Fig 15). ``xml_parser`` is created
    lazily; its cost is attributed to the same parse metrics.
    """

    parser: JacksonParser = field(default_factory=JacksonParser)
    projection_parser: object = None  # duck-typed: .project(text, [path])
    xml_parser: object = None  # lazily-created repro.xmllib.XmlParser
    #: Parse-once sharing scopes for the batch path (created lazily).
    #: Within one context, every distinct document text is parsed once no
    #: matter how many expressions extract paths from it; the parser's
    #: stats charge that single parse, never the shared re-reads. The
    #: JSON scope holds, per text, the tuple a
    #: :class:`~repro.jsonlib.projection.PathProjector` read from it.
    json_documents: DocumentCache = None  # type: ignore[assignment]
    xml_documents: DocumentCache = None  # type: ignore[assignment]
    #: Every JSONPath the plan's remaining ``get_json_object`` calls read
    #: (set by the session from the cached plan, copied to morsel forks
    #: and process workers): what one pass over a document materialises.
    json_paths: tuple[str, ...] = ()
    #: Byte budget handed to the document caches above (``None`` =
    #: unbounded; defaults to the cache's own 64 MiB budget).
    doc_cache_bytes: int | None = DEFAULT_DOC_CACHE_BYTES

    def get_json_object(self, text: object, raw_path: str) -> object:
        """Hive-semantics extraction, charging cost to this context."""
        if text is None:
            return None
        if not isinstance(text, str):
            raise ExecutionError(
                f"get_json_object expects a string column, got {type(text).__name__}"
            )
        if self.projection_parser is not None:
            return self.projection_parser.project(text, [raw_path])[
                parse_path(raw_path).raw
            ]
        try:
            document = self.parser.parse(text)
        except JsonParseError:
            return None
        return eval_path(raw_path, document)

    # -- vectorized, parse-once variants (batch execution path) --------
    def get_json_objects(self, texts: list, raw_path: str) -> list:
        """Vectorized ``get_json_object`` over a whole column: one slot of
        :meth:`project_json`'s tuples. Row semantics and error messages
        are identical to :meth:`get_json_object`."""
        if self.projection_parser is not None:
            # Projecting parsers skip full parsing already; nothing to
            # share, so delegate row-by-row for identical behaviour.
            return [self.get_json_object(text, raw_path) for text in texts]
        slot = self.json_slot(parse_path(raw_path).raw)
        return list(map(itemgetter(slot), self.project_json(texts)))

    def json_slot(self, path: str) -> int:
        """The position of canonical JSONPath ``path`` in the tuples
        :meth:`project_json` returns, declaring it if the context lacks it."""
        documents = self.json_documents
        if documents is None or path not in documents.parser.index:
            documents = self._declare_json_paths([path])
        return documents.parser.index[path]

    def project_json(self, texts: list) -> list[tuple]:
        """The declared paths' values of each text, as the tuple a
        :class:`~repro.jsonlib.projection.PathProjector` reads, through
        one :meth:`~repro.jsonlib.doccache.DocumentCache.column` lookup
        of the shared document cache: each distinct document is projected
        once per context, not once per consuming expression. ``None`` and
        malformed texts read as the projector's ``nulls``; any other
        non-string raises."""
        documents = self.json_documents
        if documents is None:
            documents = self._declare_json_paths([])
        try:
            return documents.column(texts, documents.parser.nulls)
        except TypeError as exc:
            raise ExecutionError(f"get_json_object {exc}") from None

    def _declare_json_paths(self, paths: list[str]) -> DocumentCache:
        """``json_documents``, made to hold the canonical ``paths`` beside
        the ones it holds (or, on first use, the declared ones)."""
        documents = self.json_documents
        known = self.json_paths if documents is None else documents.parser.paths
        projector = PathProjector((*known, *paths), self.parser)
        if documents is None:
            documents = self.json_documents = DocumentCache(
                projector, JsonParseError, max_bytes=self.doc_cache_bytes
            )
        else:
            # A path the plan did not declare (a context driven by hand):
            # the tuples cached so far do not hold it.
            documents.parser = projector
            documents.clear()
        return documents

    def _xml_scope(self) -> DocumentCache:
        """The XML sharing scope, with its parser, made on first use."""
        if self.xml_documents is None:
            from ..xmllib.parser import XmlParseError, XmlParser

            if self.xml_parser is None:
                self.xml_parser = XmlParser()
            self.xml_documents = DocumentCache(
                self.xml_parser, XmlParseError, max_bytes=self.doc_cache_bytes
            )
        return self.xml_documents

    def get_xml_objects(self, texts: list, raw_path: str) -> list:
        """Vectorized ``get_xml_object`` with the same sharing contract."""
        from ..xmllib.xpath import evaluate_xpath

        try:
            documents = self._xml_scope().column(texts, None)
        except TypeError as exc:
            raise ExecutionError(f"get_xml_object {exc}") from None
        return [None if d is None else evaluate_xpath(raw_path, d) for d in documents]

    def extract_paths(self, texts: list, raw_paths: list[str]) -> list[list]:
        """One value list per path of ``raw_paths`` (``$...`` JSONPaths and
        ``/...`` XPaths may mix) over a whole column, at one document
        lookup per text per format.

        This is the cache-table reading of a column, not the query's: a
        value that is not a string, is malformed, or lacks the path reads
        as ``None`` and nothing raises. It reads the document caches
        :meth:`get_json_objects` and :meth:`get_xml_objects` read, so on
        a string column the three agree value for value.
        """
        out: list[list] = [[None] * len(texts) for _ in raw_paths]
        by_format: dict[str, list[int]] = {"json": [], "xml": []}
        for position, raw_path in enumerate(raw_paths):
            by_format[path_format(raw_path)].append(position)
        if by_format["json"]:
            paths = [parse_path(raw_paths[i]).raw for i in by_format["json"]]
            documents = self.json_documents
            if documents is None or not documents.parser.index.keys() >= set(paths):
                documents = self._declare_json_paths(paths)
            rows = self.project_json([t if isinstance(t, str) else None for t in texts])
            for i, path in zip(by_format["json"], paths):
                out[i] = list(map(itemgetter(documents.parser.index[path]), rows))
        if by_format["xml"]:
            from ..xmllib.xpath import evaluate_xpath

            sinks = [(out[i], raw_paths[i]) for i in by_format["xml"]]
            strings = [t if isinstance(t, str) else None for t in texts]
            for row, document in enumerate(self._xml_scope().column(strings, None)):
                if document is not None:
                    for column, raw_path in sinks:
                        column[row] = evaluate_xpath(raw_path, document)
        return out

    def fresh(self, json_paths: tuple[str, ...] | None = None) -> "EvalContext":
        """A sibling for another split, worker or build thread: the same
        parser classes and document budget, declaring ``json_paths``
        (default: the same paths); its own parsers, stats and documents."""
        projection_parser = self.projection_parser
        return EvalContext(
            parser=type(self.parser)(),
            projection_parser=None
            if projection_parser is None
            else type(projection_parser)(),
            json_paths=self.json_paths if json_paths is None else json_paths,
            doc_cache_bytes=self.doc_cache_bytes,
        )

    def shared_parse_hits(self) -> int:
        """Parses avoided by document sharing in this context so far."""
        hits = 0
        if self.json_documents is not None:
            hits += self.json_documents.hits
        if self.xml_documents is not None:
            hits += self.xml_documents.hits
        return hits

    def doc_cache_evictions(self) -> int:
        """Documents evicted from the budgeted caches in this context."""
        evictions = 0
        if self.json_documents is not None:
            evictions += self.json_documents.evictions
        if self.xml_documents is not None:
            evictions += self.xml_documents.evictions
        return evictions


class Expression:
    """Base class for all expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        return ()

    def with_children(self, children: tuple["Expression", ...]) -> "Expression":
        """Rebuild this node with new children (for tree rewrites)."""
        if children != self.children():
            raise PlanError(f"{type(self).__name__} does not accept new children")
        return self

    def output_name(self) -> str:
        """Column name this expression produces when projected unaliased."""
        return self.sql()

    def sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"{type(self).__name__}({self.sql()})"


@dataclass(frozen=True)
class Column(Expression):
    """A reference to a column of the row environment."""

    name: str

    def output_name(self) -> str:
        return self.name.split(".")[-1]

    def sql(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant. ``slot`` is its position in the canonical statement's
    parameter vector (set when the statement is canonicalised), where a
    cached template plan binds another statement's value."""

    value: object
    slot: int | None = field(default=None, compare=False, repr=False)
    #: The value's type, so ``2`` and ``2.0`` (equal values) are different
    #: literals: an expression program compiles one node per equal literal.
    kind: type = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", type(self.value))

    def sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


@dataclass(frozen=True)
class Alias(Expression):
    """``child AS name``."""

    child: Expression
    name: str

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Expression, ...]) -> "Alias":
        (child,) = children
        return Alias(child, self.name)

    def output_name(self) -> str:
        return self.name

    def sql(self) -> str:
        return f"{self.child.sql()} AS {self.name}"


@dataclass(frozen=True)
class ExtractionCall(Expression):
    """Base class for parse-then-extract UDF calls over string columns.

    Maxson's plan rewriter (Algorithm 1) pattern-matches this base class,
    so any format whose extraction calls subclass it — JSON today, XML as
    the paper's proposed extension — gets caching, the Value Combiner and
    predicate pushdown for free. The path *syntax* distinguishes formats
    in the cache registry (``$...`` JSON, ``/...`` XML).
    """

    column: Expression
    path: str

    #: SQL function name; subclasses override.
    function_name = "extract"

    def children(self) -> tuple[Expression, ...]:
        return (self.column,)

    def with_children(self, children: tuple[Expression, ...]) -> "ExtractionCall":
        (column,) = children
        return type(self)(column, self.path)

    def _leaf(self) -> str:
        return "value"

    def output_name(self) -> str:
        base = self.column.output_name()
        return f"{base}_{self._leaf()}"

    def sql(self) -> str:
        return f"{self.function_name}({self.column.sql()}, '{self.path}')"


@dataclass(frozen=True)
class GetJsonObject(ExtractionCall):
    """``get_json_object(column, '$.path')`` — the paper's focal UDF."""

    function_name = "get_json_object"

    def __post_init__(self) -> None:
        parse_path(self.path)  # validate eagerly; raises JsonPathError

    def _leaf(self) -> str:
        return parse_path(self.path).leaf or "value"


@dataclass(frozen=True)
class GetXmlObject(ExtractionCall):
    """``get_xml_object(column, '/root/path')`` — the XML extension."""

    function_name = "get_xml_object"

    def __post_init__(self) -> None:
        from ..xmllib.xpath import parse_xpath

        parse_xpath(self.path)  # validate eagerly; raises XPathError

    def _leaf(self) -> str:
        from ..xmllib.xpath import parse_xpath

        return parse_xpath(self.path).leaf or "value"


@dataclass(frozen=True)
class CachedField(Expression):
    """Placeholder installed by the Maxson parser for a cache hit.

    Carries the description the paper stores in the placeholder
    (column name, column expression id, JSONPath) plus the environment key
    under which the Value Combiner surfaces the pre-parsed value.
    """

    column_name: str
    column_id: int
    path: str
    env_key: str

    def output_name(self) -> str:
        return self.env_key

    def sql(self) -> str:
        return f"cached({self.column_name}, '{self.path}')"


_ARITH = {"+", "-", "*", "/", "%"}
_COMPARE = {"=", "!=", "<", "<=", ">", ">="}
_LOGIC = {"and", "or"}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _null_safe_compare(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None  # SQL three-valued logic
    # Hive coerces string/number comparisons numerically; Python's ==
    # would silently return False for '2.5' == 2.5, so coerce eagerly.
    if (isinstance(left, str) and _is_number(right)) or (
        _is_number(left) and isinstance(right, str)
    ):
        coerced = _coerce_pair(left, right)
        if coerced is None:
            return None
        left, right = coerced
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        # Hive coerces; we follow get_json_object's habit of string/number
        # mixing by comparing as floats when either side parses as one.
        coerced = _coerce_pair(left, right)
        if coerced is None:
            return None
        return _null_safe_compare(op, *coerced)
    raise AssertionError(op)  # pragma: no cover


def _coerce_pair(left: object, right: object) -> tuple | None:
    try:
        return float(left), float(right)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


# Scalar kernels of the batch compiler (:mod:`repro.engine.batch`), one
# per operator. The reference the differential tests use restates them
# (``tests/reference_engine.py``) instead of importing them, so a fault
# here shows as a difference instead of being shared by both sides.
def _combine_and(left: object, right: object) -> object:
    """Three-valued AND given a non-False left and an evaluated right."""
    if left is None or right is None:
        return False if right is False else None
    return bool(left) and bool(right)


def _combine_or(left: object, right: object) -> object:
    """Three-valued OR given a non-True left and an evaluated right."""
    if left is None or right is None:
        return True if right is True else None
    return bool(left) or bool(right)


def _apply_arith(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    a = _coerce_numeric(left)
    b = _coerce_numeric(right)
    if a is None or b is None:
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        return None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return None if b == 0 else a / b
    if op == "%":
        return None if b == 0 else a % b
    raise AssertionError(op)  # pragma: no cover


def _apply_unary(op: str, value: object) -> object:
    if op == "is null":
        return value is None
    if op == "is not null":
        return value is not None
    if value is None:
        return None
    if op == "not":
        return not value
    if op == "neg":
        number = _coerce_numeric(value)
        return None if number is None else -number
    raise PlanError(f"unknown unary op {op!r}")


def _apply_cast(target: str, value: object) -> object:
    if value is None:
        return None
    try:
        if target == "int":
            return int(float(value)) if isinstance(value, str) else int(value)
        if target == "double":
            return float(value)
        if target == "string":
            return value if isinstance(value, str) else _render(value)
        if target == "boolean":
            return bool(value)
    except (TypeError, ValueError):
        return None
    raise PlanError(f"unknown cast target {target!r}")


def _in_list_result(value: object, others) -> object:
    """``value IN others`` with SQL NULL semantics.

    ``others`` are the option values evaluated for the row, in order: all
    of them, or those up to the first match (the compiler evaluates an
    option only on rows no earlier one decided).
    """
    if value is None:
        return None
    saw_null = False
    for other in others:
        if other is None:
            saw_null = True
        elif _null_safe_compare("=", value, other) is True:
            return True
    return None if saw_null else False


def _between_result(value: object, low: object, high: object) -> object:
    ge = _null_safe_compare(">=", value, low)
    le = _null_safe_compare("<=", value, high)
    if ge is None or le is None:
        return False if ge is False or le is False else None
    return ge and le


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison, or boolean connective."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITH | _COMPARE | _LOGIC:
            raise PlanError(f"unknown operator {self.op!r}")

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expression, ...]) -> "BinaryOp":
        left, right = children
        return BinaryOp(self.op, left, right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


def _coerce_numeric(value: object) -> int | float | None:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return None
    return None


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``NOT x``, ``-x``, ``x IS NULL`` and ``x IS NOT NULL``."""

    op: str  # 'not' | 'neg' | 'is null' | 'is not null'
    child: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Expression, ...]) -> "UnaryOp":
        (child,) = children
        return UnaryOp(self.op, child)

    def sql(self) -> str:
        if self.op in ("is null", "is not null"):
            return f"({self.child.sql()} {self.op.upper()})"
        symbol = "NOT " if self.op == "not" else "-"
        return f"({symbol}{self.child.sql()})"


@dataclass(frozen=True)
class CastExpr(Expression):
    """``CAST(x AS type)`` for the small engine type lattice."""

    child: Expression
    target: str  # 'int' | 'double' | 'string' | 'boolean'

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Expression, ...]) -> "CastExpr":
        (child,) = children
        return CastExpr(child, self.target)

    def sql(self) -> str:
        return f"CAST({self.child.sql()} AS {self.target})"


def _render(value: object) -> str:
    from ..jsonlib.jackson import dumps

    if isinstance(value, (dict, list)):
        return dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class InList(Expression):
    """``x IN (a, b, c)``."""

    child: Expression
    options: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return (self.child, *self.options)

    def with_children(self, children: tuple[Expression, ...]) -> "InList":
        return InList(children[0], tuple(children[1:]))

    def sql(self) -> str:
        inner = ", ".join(o.sql() for o in self.options)
        return f"({self.child.sql()} IN ({inner}))"


@dataclass(frozen=True)
class Between(Expression):
    """``x BETWEEN lo AND hi`` (inclusive both ends, like SQL)."""

    child: Expression
    low: Expression
    high: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.child, self.low, self.high)

    def with_children(self, children: tuple[Expression, ...]) -> "Between":
        child, low, high = children
        return Between(child, low, high)

    def sql(self) -> str:
        return f"({self.child.sql()} BETWEEN {self.low.sql()} AND {self.high.sql()})"


_AGGREGATES = {"count", "sum", "avg", "min", "max"}


@dataclass(frozen=True)
class AggregateCall(Expression):
    """``count(*) / count(x) / sum(x) / avg(x) / min(x) / max(x)``.

    Aggregate nodes have no row value; the aggregation operator
    consumes them directly (``argument`` may be None for ``count(*)``).
    """

    func: str
    argument: Expression | None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in _AGGREGATES:
            raise PlanError(f"unknown aggregate {self.func!r}")
        if self.func != "count" and self.argument is None:
            raise PlanError(f"{self.func}() requires an argument")

    def children(self) -> tuple[Expression, ...]:
        return (self.argument,) if self.argument is not None else ()

    def with_children(self, children: tuple[Expression, ...]) -> "AggregateCall":
        argument = children[0] if children else None
        return AggregateCall(self.func, argument, self.distinct)

    def output_name(self) -> str:
        inner = self.argument.output_name() if self.argument else "*"
        return f"{self.func}_{inner}" if inner != "*" else self.func

    def sql(self) -> str:
        inner = self.argument.sql() if self.argument else "*"
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


# ----------------------------------------------------------------------
# tree utilities
# ----------------------------------------------------------------------
def walk(expr: Expression):
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def split_conjuncts(expr: Expression) -> list[Expression]:
    """The operands of a (nested) AND, left to right."""
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts) -> Expression | None:
    """AND the conjuncts back together (``None`` for none)."""
    result = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("and", result, conjunct)
    return result


def transform(expr: Expression, fn) -> Expression:
    """Bottom-up rewrite: ``fn(node)`` may return a replacement or the node.

    This is the recursive Replace() of the paper's Algorithm 1 — the Maxson
    parser calls it with a function that maps cached ``GetJsonObject`` nodes
    to ``CachedField`` placeholders and leaves everything else untouched.
    """
    children = expr.children()
    if children:
        new_children = tuple(transform(child, fn) for child in children)
        if new_children != children:
            expr = expr.with_children(new_children)
    replacement = fn(expr)
    return replacement if replacement is not None else expr
