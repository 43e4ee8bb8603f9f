"""``sqlparser._lex`` against the character-loop lexer it replaced
(``reference_lexer.lex``): the same tokens — kind, text, value with its
type, offset — or the same error, message and offset included."""

import random
import sys

import pytest

from repro.engine import SqlSyntaxError, sqlparser

import reference_lexer
from sql_generator import MEMBERS, statements

EDGES = [
    "select é, x², _x1, été_2 from db.t",
    "select * from db.t where a = 'it''s' and b = ''''",
    "select 'unterminated from db.t",
    "select 'a''",
    "select a from db.t -- trailing comment",
    "select a from db.t --",
    "select 1e5, .5, 1.e3, 2E-3, 7e+1, 1.2.3, a.5 from db.t",
    "select 4.e from db.t",
    "select 3e from db.t",
    "select 1e+ from db.t",
    "select a from db.t where a <> 1 and b != 2 and c <= 3 and d >= 4",
    "select a\tfrom\r\ndb.t\n",
    "select a ; from db.t",
    "select ²",
    "",
    "   ",
    "x.5",
    "select 1eé, .0é, 9.5é, 1e², .5² from db.t",
]
#: Short random strings over the characters each rule turns on: a regex that
#: backtracks into a shorter number or string shows here first.
ALPHABET = list("ab_eE019. '\t\n\r-<>=!(),*+/%;é²١€\x0b\"") + ["--", "''", "1e", ".5"]
rng = random.Random(35)
FUZZ = ["".join(rng.choices(ALPHABET, k=rng.randint(1, 12))) for _ in range(20000)]


def outcome(lex, sql: str):
    try:
        return [(t.kind, t.text, t.value, type(t.value), t.pos) for t in lex(sql)]
    except SqlSyntaxError as exc:  # malformed numbers ('3e', '²') included
        return type(exc), str(exc), exc.position


@pytest.mark.parametrize(
    "corpus",
    [
        statements(seed=7, count=500),
        statements(7, 500, "prod.t_q7", MEMBERS[:2], MEMBERS[2]),
        EDGES,
        FUZZ,
    ],
    ids=["generated", "generated-router", "edges", "fuzz"],
)
def test_lexer_matches_reference(corpus):
    for sql in corpus:
        assert outcome(sqlparser._lex, sql) == outcome(reference_lexer.lex, sql), sql


def test_word_class_is_isalnum_or_underscore():
    word = sqlparser._WORD
    assert [
        c for c in map(chr, range(sys.maxunicode + 1))
        if bool(word.fullmatch(c)) != (c.isalnum() or c == "_")
    ] == []
