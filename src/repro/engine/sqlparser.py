"""SQL text → logical plan.

A hand written lexer and recursive-descent parser for the SQL fragment the
paper's workload uses::

    SELECT expr [AS alias], ...
    FROM db.table [alias]
    [JOIN db.table [alias] ON expr] ...
    [WHERE expr]
    [GROUP BY expr, ...]
    [HAVING expr]
    [ORDER BY expr [ASC|DESC], ...]
    [LIMIT n]

Expressions support ``get_json_object``, arithmetic, comparisons,
``AND/OR/NOT``, ``BETWEEN``, ``IN``, ``IS [NOT] NULL``, ``CAST``, the five
standard aggregates, string/number literals and ``*``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SqlSyntaxError
from .expressions import (
    AggregateCall,
    Alias,
    Between,
    BinaryOp,
    CastExpr,
    Column,
    Expression,
    GetJsonObject,
    InList,
    Literal,
    UnaryOp,
)
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    SortKey,
)

__all__ = ["parse_sql", "Star"]

_KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "by",
    "having",
    "order",
    "limit",
    "join",
    "inner",
    "on",
    "as",
    "and",
    "or",
    "not",
    "in",
    "between",
    "is",
    "null",
    "asc",
    "desc",
    "cast",
    "true",
    "false",
    "distinct",
}

_AGG_NAMES = {"count", "sum", "avg", "min", "max"}


@dataclass(frozen=True)
class Star(Expression):
    """``SELECT *`` marker; expanded by the planner against the scan schema."""

    def sql(self) -> str:
        return "*"


@dataclass(slots=True)
class _Tok:
    kind: str  # 'ident' | 'number' | 'string' | 'punct' | 'eof'
    text: str
    value: object
    pos: int
    lower: str = ""  # an identifier's lower-cased text, what keywords match


#: One token and the whitespace before it, or a comment, or the end. An
#: identifier's tail ``\w`` is exactly ``str.isalnum()`` or ``_``. A number
#: is its longest run (``(?=(…))\2`` never backtracks into a shorter one);
#: one, or a ``.``, before a non-ASCII character and what matches nothing
#: here take :func:`_lex_other`, where ``str.isdigit`` decides.
_TOKEN = re.compile(
    r"""[ \t\n\r]*(?:
        ([A-Za-z_]\w*)
      | (?=((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?))\2(?![^\x00-\x7f])
      | ('[^']*(?:''[^']*)*')(?!')
      | (<=|>=|!=|<>|[(),*=+/<>%]|-(?!-)|\.(?![0-9]|[^\x00-\x7f]))
      | --[^\n]*\n?
      | \Z
    )""",
    re.VERBOSE,
)
_WORD = re.compile(r"\w+")
_SPACE = re.compile(r"[ \t\n\r]*")


def _lex(sql: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    append = tokens.append
    match = _TOKEN.match
    i = 0
    n = len(sql)
    while i < n:
        m = match(sql, i)
        if m is None:
            tok, i = _lex_other(sql, _SPACE.match(sql, i).end())
            append(tok)
            continue
        group = m.lastindex
        i = m.end()
        if group is None:  # whitespace, a comment or the end
            continue
        text = m.group(group)
        pos = m.start(group)
        if group == 1:
            lower = text.lower()  # kept only if it differs: no second copy
            append(_Tok("ident", text, text, pos, text if lower == text else lower))
        elif group == 2:
            append(_number(text, pos))
        elif group == 3:
            append(_Tok("string", text, text[1:-1].replace("''", "'"), pos))
        else:
            text = "!=" if text == "<>" else text
            append(_Tok("punct", text, text, pos))
    append(_Tok("eof", "", None, n))
    return tokens


def _number(text: str, pos: int) -> _Tok:
    """The number token ``text`` at ``pos``; one with no digits after its
    exponent (``3e``, ``1e+``) or a digit ``int`` cannot read (``²``) is
    malformed."""
    try:
        value = float(text) if "." in text or "e" in text or "E" in text else int(text)
    except ValueError:
        raise SqlSyntaxError(f"malformed number {text!r}", pos) from None
    return _Tok("number", text, value, pos)


def _lex_other(sql: str, i: int) -> tuple[_Tok, int]:
    """The token at ``i`` that :data:`_TOKEN` leaves: one led by a
    non-ASCII letter or digit, a number or ``.`` before a non-ASCII
    character, or an error. Returns it and the offset after it."""
    ch = sql[i]
    n = len(sql)
    if ch.isalpha():
        j = _WORD.match(sql, i).end()
        return _Tok("ident", sql[i:j], sql[i:j], i, sql[i:j].lower()), j
    if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
        j = i
        seen_dot = False
        seen_exp = False
        while j < n:
            c = sql[j]
            if c.isdigit():
                j += 1
            elif c == "." and not seen_dot and not seen_exp:
                seen_dot = True
                j += 1
            elif c in "eE" and not seen_exp and j > i:
                seen_exp = True
                j += 1
                if j < n and sql[j] in "+-":
                    j += 1
            else:
                break
        return _number(sql[i:j], i), j
    if ch == ".":
        return _Tok("punct", ch, ch, i), i + 1
    if ch == "'":
        raise SqlSyntaxError("unterminated string literal", i)
    raise SqlSyntaxError(f"unexpected character {ch!r}", i)


class _Parser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = _lex(sql)
        self.i = 0

    # -- token helpers -------------------------------------------------
    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def next(self) -> _Tok:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        return self.tokens[self.i].lower in words

    def eat_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.eat_keyword(word):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {word.upper()}, got {tok.text!r}", tok.pos)

    def eat_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            self.next()
            return True
        return False

    def expect_punct(self, text: str) -> None:
        if not self.eat_punct(text):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.pos)

    # -- grammar -------------------------------------------------------
    def parse_query(self) -> LogicalPlan:
        self.expect_keyword("select")
        select_list = self.parse_select_list()
        self.expect_keyword("from")
        plan = self.parse_from()
        if self.eat_keyword("where"):
            plan = LogicalFilter(plan, self.parse_expr())
        group_keys: list[Expression] = []
        if self.eat_keyword("group"):
            self.expect_keyword("by")
            group_keys.append(self.parse_expr())
            while self.eat_punct(","):
                group_keys.append(self.parse_expr())
        having: Expression | None = None
        if self.eat_keyword("having"):
            having = self.parse_expr()
        if group_keys or _contains_aggregate(select_list):
            plan = LogicalAggregate(plan, group_keys, select_list)
            if having is not None:
                plan = LogicalFilter(plan, having)
        else:
            if having is not None:
                raise SqlSyntaxError("HAVING without GROUP BY or aggregates")
            plan = LogicalProject(plan, select_list)
        if self.eat_keyword("order"):
            self.expect_keyword("by")
            keys = [self.parse_sort_key()]
            while self.eat_punct(","):
                keys.append(self.parse_sort_key())
            plan = LogicalSort(plan, keys)
        if self.eat_keyword("limit"):
            tok = self.next()
            if tok.kind != "number" or not isinstance(tok.value, int):
                raise SqlSyntaxError("LIMIT expects an integer", tok.pos)
            plan = LogicalLimit(plan, tok.value)
        tok = self.peek()
        if tok.kind != "eof":
            raise SqlSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return plan

    def parse_select_list(self) -> list[Expression]:
        items = [self.parse_select_item()]
        while self.eat_punct(","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> Expression:
        if self.eat_punct("*"):
            return Star()
        expr = self.parse_expr()
        if self.eat_keyword("as"):
            tok = self.next()
            if tok.kind != "ident":
                raise SqlSyntaxError("expected alias name", tok.pos)
            return Alias(expr, tok.text)
        # Implicit alias: `expr name` (but not before a clause keyword).
        tok = self.peek()
        if tok.kind == "ident" and tok.lower not in _KEYWORDS:
            self.next()
            return Alias(expr, tok.text)
        return expr

    def parse_from(self) -> LogicalPlan:
        plan: LogicalPlan = self.parse_table_ref()
        while self.at_keyword("join", "inner"):
            self.eat_keyword("inner")
            self.expect_keyword("join")
            right = self.parse_table_ref()
            self.expect_keyword("on")
            condition = self.parse_expr()
            plan = LogicalJoin(plan, right, condition)
        return plan

    def parse_table_ref(self) -> LogicalScan:
        tok = self.next()
        if tok.kind != "ident":
            raise SqlSyntaxError("expected table name", tok.pos)
        first = tok.text
        database: str
        table: str
        if self.eat_punct("."):
            tok = self.next()
            if tok.kind != "ident":
                raise SqlSyntaxError("expected table name after '.'", tok.pos)
            database, table = first, tok.text
        else:
            database, table = "default", first
        alias = None
        if self.eat_keyword("as"):
            tok = self.next()
            if tok.kind != "ident":
                raise SqlSyntaxError("expected table alias", tok.pos)
            alias = tok.text
        else:
            tok = self.peek()
            if tok.kind == "ident" and tok.lower not in _KEYWORDS:
                self.next()
                alias = tok.text
        return LogicalScan(database, table, alias)

    def parse_sort_key(self) -> SortKey:
        expr = self.parse_expr()
        if self.eat_keyword("desc"):
            return SortKey(expr, ascending=False)
        self.eat_keyword("asc")
        return SortKey(expr, ascending=True)

    # -- expressions (precedence climbing) -----------------------------
    def parse_expr(self) -> Expression:
        return self.parse_or()

    def parse_or(self) -> Expression:
        left = self.parse_and()
        while self.eat_keyword("or"):
            left = BinaryOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_not()
        while self.eat_keyword("and"):
            left = BinaryOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> Expression:
        if self.eat_keyword("not"):
            return UnaryOp("not", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expression:
        left = self.parse_additive()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return BinaryOp(tok.text, left, self.parse_additive())
        if self.at_keyword("between"):
            self.next()
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            return Between(left, low, high)
        if self.at_keyword("in"):
            self.next()
            self.expect_punct("(")
            options = [self.parse_expr()]
            while self.eat_punct(","):
                options.append(self.parse_expr())
            self.expect_punct(")")
            return InList(left, tuple(options))
        if self.at_keyword("is"):
            self.next()
            negated = self.eat_keyword("not")
            self.expect_keyword("null")
            return UnaryOp("is not null" if negated else "is null", left)
        return left

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text in ("+", "-"):
                self.next()
                left = BinaryOp(tok.text, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text in ("*", "/", "%"):
                self.next()
                left = BinaryOp(tok.text, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expression:
        if self.eat_punct("-"):
            return UnaryOp("neg", self.parse_unary())
        self.eat_punct("+")
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Literal(tok.value)
        if tok.kind == "string":
            self.next()
            return Literal(tok.value)
        if self.eat_punct("("):
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if tok.kind == "ident":
            lowered = tok.lower
            if lowered == "null":
                self.next()
                return Literal(None)
            if lowered == "true":
                self.next()
                return Literal(True)
            if lowered == "false":
                self.next()
                return Literal(False)
            if lowered == "cast":
                return self.parse_cast()
            if lowered in ("get_json_object", "get_xml_object"):
                return self.parse_extraction(lowered)
            if lowered in _AGG_NAMES and self._lookahead_is_call():
                return self.parse_aggregate(lowered)
            if self._lookahead_is_call():
                from .functions import FunctionCall, is_scalar_function

                if is_scalar_function(lowered):
                    return self.parse_scalar_function(lowered)
                raise SqlSyntaxError(f"unknown function {tok.text!r}", tok.pos)
            return self.parse_column_ref()
        raise SqlSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def _lookahead_is_call(self) -> bool:
        nxt = self.tokens[self.i + 1]
        return nxt.kind == "punct" and nxt.text == "("

    def parse_cast(self) -> Expression:
        self.next()  # cast
        self.expect_punct("(")
        child = self.parse_expr()
        self.expect_keyword("as")
        tok = self.next()
        if tok.kind != "ident":
            raise SqlSyntaxError("expected type name in CAST", tok.pos)
        target = {
            "int": "int",
            "bigint": "int",
            "integer": "int",
            "double": "double",
            "float": "double",
            "string": "string",
            "varchar": "string",
            "boolean": "boolean",
        }.get(tok.lower)
        if target is None:
            raise SqlSyntaxError(f"unsupported CAST target {tok.text!r}", tok.pos)
        self.expect_punct(")")
        return CastExpr(child, target)

    def parse_extraction(self, function_name: str) -> Expression:
        self.next()  # function name
        self.expect_punct("(")
        column = self.parse_expr()
        self.expect_punct(",")
        tok = self.next()
        if tok.kind != "string":
            raise SqlSyntaxError(
                f"{function_name}'s second argument must be a string "
                "literal path", tok.pos
            )
        self.expect_punct(")")
        if function_name == "get_xml_object":
            from .expressions import GetXmlObject

            return GetXmlObject(column, tok.value)
        return GetJsonObject(column, tok.value)

    def parse_scalar_function(self, name: str) -> Expression:
        from .functions import FunctionCall

        self.next()  # function name
        self.expect_punct("(")
        arguments = [self.parse_expr()]
        while self.eat_punct(","):
            arguments.append(self.parse_expr())
        self.expect_punct(")")
        try:
            return FunctionCall(name, tuple(arguments))
        except Exception as exc:
            raise SqlSyntaxError(str(exc)) from exc

    def parse_aggregate(self, func: str) -> Expression:
        self.next()  # function name
        self.expect_punct("(")
        distinct = self.eat_keyword("distinct")
        if self.eat_punct("*"):
            if func != "count":
                raise SqlSyntaxError(f"{func}(*) is not valid")
            argument: Expression | None = None
        else:
            argument = self.parse_expr()
        self.expect_punct(")")
        return AggregateCall(func, argument, distinct)

    def parse_column_ref(self) -> Expression:
        tok = self.next()
        name = tok.text
        if self.eat_punct("."):
            nxt = self.next()
            if nxt.kind != "ident":
                raise SqlSyntaxError("expected column after '.'", nxt.pos)
            name = f"{name}.{nxt.text}"
        return Column(name)


def _contains_aggregate(expressions: list[Expression]) -> bool:
    from .expressions import walk

    for expr in expressions:
        if isinstance(expr, Star):
            continue
        for node in walk(expr):
            if isinstance(node, AggregateCall):
                return True
    return False


def parse_sql(sql: str) -> LogicalPlan:
    """Parse a single SELECT statement into a logical plan."""
    return _Parser(sql).parse_query()
