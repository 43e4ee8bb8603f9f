"""The character-loop SQL lexer: the oracle for ``sqlparser._lex``.

This is the lexer the repository shipped until the regex-and-find one
replaced it: one Python step per character of an identifier, a string or
whitespace, and a frozen dataclass per token. It defines what a
statement's tokens *are* — kind, text, value and offset — and which
errors a malformed one raises; production code never imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.errors import SqlSyntaxError


@dataclass(frozen=True)
class Tok:
    kind: str  # 'ident' | 'number' | 'string' | 'punct' | 'eof'
    text: str
    value: object
    pos: int


def lex(sql: str) -> list[Tok]:
    tokens: list[Tok] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\n\r":
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            j = sql.find("\n", i)
            i = n if j == -1 else j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] in "_"):
                j += 1
            word = sql[i:j]
            tokens.append(Tok("ident", word, word, i))
            i = j
        elif ch.isdigit() or (
            ch == "." and i + 1 < n and sql[i + 1].isdigit()
        ):
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
            raw = sql[i:j]
            value: object
            try:
                value = float(raw) if seen_dot or seen_exp else int(raw)
            except ValueError:  # '3e', '1e+', a lone '²'
                raise SqlSyntaxError(f"malformed number {raw!r}", i) from None
            tokens.append(Tok("number", raw, value, i))
            i = j
        elif ch == "'":
            j = i + 1
            parts: list[str] = []
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            if j >= n:
                raise SqlSyntaxError("unterminated string literal", i)
            tokens.append(Tok("string", sql[i : j + 1], "".join(parts), i))
            i = j + 1
        else:
            for punct in ("<=", ">=", "!=", "<>"):
                if sql.startswith(punct, i):
                    text = "!=" if punct == "<>" else punct
                    tokens.append(Tok("punct", text, text, i))
                    i += len(punct)
                    break
            else:
                if ch in "(),.*=+-/<>%":
                    tokens.append(Tok("punct", ch, ch, i))
                    i += 1
                else:
                    raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Tok("eof", "", None, n))
    return tokens
