"""Unit tests for the shared tokenizer."""

import pytest

from repro.jsonlib import JsonParseError
from repro.jsonlib.tokens import Token, TokenType, scan_number, scan_string, tokenize


def kinds(text: str) -> list[TokenType]:
    return [t.type for t in tokenize(text)]


class TestTokenStream:
    def test_structural_tokens(self):
        assert kinds('{"a": [1]}') == [
            TokenType.LBRACE,
            TokenType.STRING,
            TokenType.COLON,
            TokenType.LBRACKET,
            TokenType.NUMBER,
            TokenType.RBRACKET,
            TokenType.RBRACE,
            TokenType.EOF,
        ]

    def test_literals(self):
        assert kinds("true false null") == [
            TokenType.TRUE,
            TokenType.FALSE,
            TokenType.NULL,
            TokenType.EOF,
        ]

    def test_values_attached(self):
        tokens = list(tokenize('"hi" 42 -1.5'))
        assert tokens[0].value == "hi"
        assert tokens[1].value == 42
        assert tokens[2].value == -1.5

    def test_offsets(self):
        tokens = list(tokenize('  {"k": 1}'))
        assert tokens[0].start == 2  # LBRACE after two spaces
        assert tokens[1].start == 3 and tokens[1].end == 6

    def test_whitespace_only(self):
        assert kinds(" \t\n\r") == [TokenType.EOF]

    def test_garbage_raises_with_position(self):
        with pytest.raises(JsonParseError) as err:
            list(tokenize("[1, @]"))
        assert err.value.position == 4


class TestScanString:
    def test_fast_path_no_escapes(self):
        value, end = scan_string('"plain" tail', 0)
        assert value == "plain"
        assert end == 7

    def test_all_simple_escapes(self):
        value, _ = scan_string('"\\"\\\\\\/\\b\\f\\n\\r\\t"', 0)
        assert value == '"\\/\b\f\n\r\t'

    def test_not_a_string(self):
        with pytest.raises(JsonParseError):
            scan_string("123", 0)

    def test_invalid_escape(self):
        with pytest.raises(JsonParseError):
            scan_string('"\\q"', 0)

    def test_truncated_unicode(self):
        with pytest.raises(JsonParseError):
            scan_string('"\\u12"', 0)

    def test_bad_unicode_hex(self):
        with pytest.raises(JsonParseError):
            scan_string('"\\uzzzz"', 0)

    @pytest.mark.parametrize(
        "digits", ["+041", " 41 ", "1_23", "-123", "0x41", "\uff11234", "004"]
    )
    def test_unicode_escape_needs_exactly_four_hex_digits(self, digits):
        # int(digits, 16) takes every one of these; '-123' then makes
        # chr() raise ValueError, which is not a JsonParseError.
        with pytest.raises(JsonParseError):
            scan_string(f'"\\u{digits}x"', 0)

    def test_lenient_low_surrogate_is_not_paired(self):
        value, _ = scan_string('"\\ud83d\\ude00"', 0)
        assert value == "\U0001f600"
        with pytest.raises(JsonParseError):
            scan_string('"\\ud83d\\u+e00"', 0)


class TestScanNumber:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("0", 0),
            ("-0", 0),
            ("10", 10),
            ("-3", -3),
            ("2.5", 2.5),
            ("1e2", 100.0),
            ("1E+2", 100.0),
            ("1.5e-1", 0.15),
        ],
    )
    def test_valid(self, text, value):
        parsed, end = scan_number(text, 0)
        assert parsed == value
        assert end == len(text)

    @pytest.mark.parametrize("bad", ["-", ".", "1.", "1e", "1e+", "+1"])
    def test_invalid(self, bad):
        with pytest.raises(JsonParseError):
            result, end = scan_number(bad, 0)
            if end != len(bad):  # e.g. '1.' stops before the dot
                raise JsonParseError("trailing", end)

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        # int() refuses more than sys.get_int_max_str_digits() digits
        # with a bare ValueError.
        with pytest.raises(JsonParseError):
            scan_number("9" * 5000, 0)
        value, end = scan_number("9" * 5000 + ".0", 0)
        assert value == float("9" * 5000) and end == 5002

    def test_leading_zero_stops(self):
        # '01' scans as 0 then stops; the parser layer rejects trailing '1'.
        value, end = scan_number("01", 0)
        assert value == 0 and end == 1
