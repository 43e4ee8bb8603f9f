"""A hand written JSON tokenizer shared by the parsers in this package.

The tokenizer turns JSON text into a flat stream of :class:`Token` objects.
It is deliberately written without regular expressions so that the cost of
tokenisation is proportional to the number of characters scanned — the same
property that makes "how much of the document did we touch" a meaningful
metric for the Mison-style parser in :mod:`repro.jsonlib.mison`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .errors import JsonParseError

__all__ = ["TokenType", "Token", "tokenize", "scan_string", "scan_number"]


class TokenType(enum.Enum):
    """Lexical categories of JSON tokens."""

    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COLON = ":"
    COMMA = ","
    STRING = "string"
    NUMBER = "number"
    TRUE = "true"
    FALSE = "false"
    NULL = "null"
    EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexical token.

    ``value`` carries the decoded payload for STRING/NUMBER tokens and
    ``None`` otherwise. ``start``/``end`` are character offsets into the
    original text (end is exclusive).
    """

    type: TokenType
    value: object
    start: int
    end: int


_WHITESPACE = " \t\n\r"

_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _hex4(text: str, i: int) -> int:
    """The code unit spelled by ``text[i:i+4]``, or -1 unless that is
    exactly four hex digits (``int(..., 16)`` alone also takes signs,
    spaces, underscores and non-ASCII digits)."""
    digits = text[i : i + 4]
    if len(digits) != 4 or not _HEX_DIGITS.issuperset(digits):
        return -1
    return int(digits, 16)


def scan_string(text: str, pos: int) -> tuple[str, int]:
    """Decode the JSON string starting at ``text[pos]`` (a ``\"``).

    Returns the decoded value and the offset one past the closing quote.
    Raises :class:`JsonParseError` on unterminated strings or bad escapes.
    """
    if pos >= len(text) or text[pos] != '"':
        raise JsonParseError("expected string", pos)
    i = pos + 1
    n = len(text)
    # Fast path: scan for a closing quote with no escapes in between.
    j = text.find('"', i)
    if j == -1:
        raise JsonParseError("unterminated string", pos)
    if "\\" not in text[i:j]:
        return text[i:j], j + 1
    parts: list[str] = []
    while i < n:
        ch = text[i]
        if ch == '"':
            return "".join(parts), i + 1
        if ch == "\\":
            if i + 1 >= n:
                raise JsonParseError("unterminated escape", i)
            esc = text[i + 1]
            if esc in _ESCAPES:
                parts.append(_ESCAPES[esc])
                i += 2
            elif esc == "u":
                if i + 6 > n:
                    raise JsonParseError("truncated \\u escape", i)
                code = _hex4(text, i + 2)
                if code < 0:
                    raise JsonParseError(
                        f"invalid \\u escape {text[i + 2 : i + 6]!r}", i
                    )
                # Surrogate pair handling for astral-plane characters.
                if 0xD800 <= code <= 0xDBFF and text[i + 6 : i + 8] == "\\u":
                    low = _hex4(text, i + 8)
                    if 0xDC00 <= low <= 0xDFFF:
                        combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        parts.append(chr(combined))
                        i += 12
                        continue
                parts.append(chr(code))
                i += 6
            else:
                raise JsonParseError(f"invalid escape \\{esc}", i)
        else:
            # Consume a run of ordinary characters in one slice.
            j = i
            while j < n and text[j] != '"' and text[j] != "\\":
                j += 1
            parts.append(text[i:j])
            i = j
    raise JsonParseError("unterminated string", pos)


_DIGITS = "0123456789"


def scan_number(text: str, pos: int) -> tuple[int | float, int]:
    """Decode the JSON number starting at ``text[pos]``.

    Returns ``(value, end)``; integers that fit exactly stay ``int``.
    """
    i = pos
    n = len(text)
    if i < n and text[i] == "-":
        i += 1
    if i >= n or text[i] not in _DIGITS:
        raise JsonParseError("invalid number", pos)
    if text[i] == "0":
        i += 1
    else:
        while i < n and text[i] in _DIGITS:
            i += 1
    is_float = False
    if i < n and text[i] == ".":
        is_float = True
        i += 1
        if i >= n or text[i] not in _DIGITS:
            raise JsonParseError("digit expected after decimal point", i)
        while i < n and text[i] in _DIGITS:
            i += 1
    if i < n and text[i] in "eE":
        is_float = True
        i += 1
        if i < n and text[i] in "+-":
            i += 1
        if i >= n or text[i] not in _DIGITS:
            raise JsonParseError("digit expected in exponent", i)
        while i < n and text[i] in _DIGITS:
            i += 1
    raw = text[pos:i]
    if is_float:
        return float(raw), i
    try:
        return int(raw), i
    except ValueError as exc:  # past the interpreter's int-digits limit
        raise JsonParseError("integer has too many digits", pos) from exc


def tokenize(text: str) -> Iterator[Token]:
    """Yield the tokens of ``text``, ending with a single EOF token."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _WHITESPACE:
            i += 1
            continue
        if ch == "{":
            yield Token(TokenType.LBRACE, None, i, i + 1)
            i += 1
        elif ch == "}":
            yield Token(TokenType.RBRACE, None, i, i + 1)
            i += 1
        elif ch == "[":
            yield Token(TokenType.LBRACKET, None, i, i + 1)
            i += 1
        elif ch == "]":
            yield Token(TokenType.RBRACKET, None, i, i + 1)
            i += 1
        elif ch == ":":
            yield Token(TokenType.COLON, None, i, i + 1)
            i += 1
        elif ch == ",":
            yield Token(TokenType.COMMA, None, i, i + 1)
            i += 1
        elif ch == '"':
            value, end = scan_string(text, i)
            yield Token(TokenType.STRING, value, i, end)
            i = end
        elif ch == "-" or ch in _DIGITS:
            value, end = scan_number(text, i)
            yield Token(TokenType.NUMBER, value, i, end)
            i = end
        elif text.startswith("true", i):
            yield Token(TokenType.TRUE, True, i, i + 4)
            i += 4
        elif text.startswith("false", i):
            yield Token(TokenType.FALSE, False, i, i + 5)
            i += 5
        elif text.startswith("null", i):
            yield Token(TokenType.NULL, None, i, i + 4)
            i += 4
        else:
            raise JsonParseError(f"unexpected character {ch!r}", i)
    yield Token(TokenType.EOF, None, n, n)
