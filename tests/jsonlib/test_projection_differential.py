"""PathProjector ≡ JacksonParser.parse + jsonpath.evaluate.

The projector's contract is *accept a subset*: whatever it answers on its
own, the reference parser answers identically — same values (and types)
at every wanted path, same INVALID-ness. This module checks that three
ways: named cases for every irregularity the kernel has a rule for, a
seeded generator (Table II shapes and synthetic documents × character
mutations × path sets) and hypothesis documents.

``run_differential(cases)`` is the whole seeded run; tier-1 calls it with
``CASES``, CI's bench-smoke step with ten times that. A mismatch is
shrunk and printed as a JSON line ready to append to
``projection_corpus.json``, which is replayed on every run.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsonlib import (
    JacksonParser,
    JsonParseError,
    PathProjector,
    dumps,
    evaluate,
    parse_path,
)
from repro.jsonlib.jsonpath import Index, Member
from repro.workload.tables import TABLE_SPECS, DocumentFactory

CASES = 6000
CORPUS = Path(__file__).with_name("projection_corpus.json")


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def reference(text: str, paths) -> str:
    try:
        document = JacksonParser().parse(text)
    except JsonParseError:
        return "INVALID"
    return repr(tuple(evaluate(path, document) for path in paths))


def projected(text: str, paths) -> str:
    """``repr`` so that 1, 1.0 and True, or 0.0 and -0.0, stay apart."""
    projector = PathProjector(paths)
    try:
        values = projector.parse(text)
    except JsonParseError:
        values = None
    # One document and len(text) bytes per call, whoever answered.
    assert projector.stats.documents == 1
    assert projector.stats.bytes_scanned == len(text)
    assert projector.stats.errors == (values is None)
    if values is None:
        return "INVALID"
    # The projector keeps each distinct path once; ``index`` finds it.
    return repr(tuple(values[projector.index[parse_path(p).raw]] for p in paths))


def agree(text: str, paths) -> bool:
    return projected(text, paths) == reference(text, paths)


def shrink(text: str, paths: list[str]) -> tuple[str, list[str]]:
    """Greedy: drop paths, then ever smaller slices of text, while the
    two sides still disagree."""
    for path in list(paths):
        fewer = [p for p in paths if p != path]
        if fewer and not agree(text, fewer):
            paths = fewer
    size = len(text) // 2
    while size:
        start = 0
        while start < len(text):
            candidate = text[:start] + text[start + size :]
            if not agree(candidate, paths):
                text = candidate
            else:
                start += size
        size //= 2
    return text, paths


def check(text: str, paths: list[str]) -> None:
    if agree(text, paths):
        return
    text, paths = shrink(text, paths)
    pytest.fail(
        "projector and reference disagree; add to projection_corpus.json:\n"
        + json.dumps({"text": text, "paths": paths})
        + f"\nprojector: {projected(text, paths)}\nreference: {reference(text, paths)}"
    )


# ----------------------------------------------------------------------
# named cases
# ----------------------------------------------------------------------
def nested(levels: int, inner: str = "1") -> str:
    return '{"a":' * levels + inner + "}" * levels


NAMED = {
    "duplicate scalar": ('{"a":1,"b":2,"a":3}', ["$.a", "$.b"]),
    "duplicate object then scalar": ('{"a":{"b":1},"a":2}', ["$.a.b", "$.a.c"]),
    "duplicate scalar then object": ('{"a":2,"a":{"b":1}}', ["$.a.b"]),
    "duplicate object then object": ('{"a":{"b":1},"a":{"c":2}}', ["$.a.b", "$.a.c"]),
    "duplicate deep": ('{"a":{"b":{"c":1}},"a":{"b":[]}}', ["$.a.b.c"]),
    "duplicate inside skipped": ('{"x":{"a":1,"a":2},"a":3}', ["$.a"]),
    "escaped key before plain": ('{"f\\u003000":5,"f000":6}', ["$.f000"]),
    "escaped key after plain": ('{"f000":6,"f\\u003000":5}', ["$.f000"]),
    "escaped key only": ('{"\\u0061":{"\\u0062":7}}', ["$.a.b"]),
    "escaped unwanted key": ('{"x\\ny":1,"a":2}', ["$.a"]),
    "raw text equals backslash name": ('{"a\\b":1}', ["$['a\\b']"]),
    "name with backslash": ('{"a\\\\b":1}', ["$['a\\b']"]),
    "name with quote": ('{"q\\"t":1}', ["$['q\"t']"]),
    "empty name": ('{"":1,"a":2}', ["$['']", "$.a"]),
    "only empty name": ('{"":1,"a":2}', ["$['']"]),
    "name is a regex": ('{"a.c":1,"abc":2,"(x|y)":3}', ["$['a.c']", "$['(x|y)']"]),
    "name is a prefix": ('{"f0000":1,"f00":2,"f000":3}', ["$.f000"]),
    "leaf and prefix": ('{"a":{"b":1,"c":[2]}}', ["$.a", "$.a.b", "$.a.c[0]", "$.a.d"]),
    "leaf and prefix on scalar": ('{"a":5}', ["$.a", "$.a.b"]),
    "leaf below interior": ('{"a":{"b":{"c":1}}}', ["$.a.b.c", "$.a.b", "$.a.x"]),
    "index tail": ('{"a":[10,{"b":20}]}', ["$.a[0]", "$.a[1].b", "$.a[2]", "$.a[0].b"]),
    "wildcard tail": ('{"a":[{"b":1},{"c":2},{"b":null},{"b":3}]}', ["$.a[*].b", "$.a[*]"]),
    "tail on scalar": ('{"a":"s"}', ["$.a[0]", "$.a[*]"]),
    "same path twice": ('{"a":1}', ["$.a", "$.a"]),
    "path through the root": ("[[1,2],{\"a\":3}]", ["$[0][1]", "$[1].a", "$[*].a"]),
    "root array": ("[1,2]", ["$.a"]),
    "root string": ('"abc"', ["$.a"]),
    "root number": ("12", ["$.a"]),
    "root null": ("null", ["$.a"]),
    "empty object": ("{}", ["$.a"]),
    "empty text": ("", ["$.a"]),
    "only whitespace": (" \n", ["$.a"]),
    "trailing garbage": ('{"a":1} x', ["$.a"]),
    "trailing second document": ('{"a":1}{"a":2}', ["$.a"]),
    "trailing whitespace": ('{"a":1} \n\t\r', ["$.a"]),
    "trailing comma": ('{"a":1,}', ["$.a"]),
    "trailing comma in skipped array": ('{"x":[1,],"a":1}', ["$.a"]),
    "leading comma": ('{,"a":1}', ["$.a"]),
    "missing colon": ('{"a" 1}', ["$.a"]),
    "missing comma": ('{"a":1 "b":2}', ["$.a"]),
    "unquoted key": ('{a:1}', ["$.a"]),
    "unterminated": ('{"a":1', ["$.a"]),
    "unterminated string": ('{"b":"x,"a":1}', ["$.a"]),
    "every whitespace form": (
        ' \t\n\r{ \t"a"\n:\r1 ,\n"x" : [ 1 , { "y" : 2 } , [ ] ] \t, "b":\n{ "c" : "v" }\r}\n ',
        ["$.a", "$.b.c", "$.x[1].y"],
    ),
    "other space characters": ('{"a":\u00a01}', ["$.a"]),
    "form feed": ('{"a":\f1}', ["$.a"]),
    "control characters in strings": ('{"x":"a\nb\x00c","a":"t\tu"}', ["$.a", "$.x"]),
    "numbers": (
        '{"a":-0,"b":-0.0,"c":1E400,"d":1e-400,"e":12345678901234567890123,"f":0.10,"g":1E+2,"h":2e0}',
        ["$.a", "$.b", "$.c", "$.d", "$.e", "$.f", "$.g", "$.h"],
    ),
    "bad numbers": ('{"x":01,"a":1}', ["$.a"]),
    "bad wanted number": ('{"a":1.}', ["$.a"]),
    "bad exponent": ('{"a":1e+}', ["$.a"]),
    "lone minus": ('{"a":-}', ["$.a"]),
    "plus sign": ('{"a":+1}', ["$.a"]),
    "unicode digits": ('{"a":\u0661}', ["$.a"]),
    "long integer wanted": ('{"a":' + "9" * 400 + "}", ["$.a"]),
    "long integer skipped": ('{"x":' + "9" * 400 + ',"a":1}', ["$.a"]),
    "integer past the digit limit skipped": ('{"x":' + "9" * 5000 + ',"a":1}', ["$.a"]),
    "integer past the digit limit in skipped array": ('{"x":[' + "9" * 5000 + '],"a":1}', ["$.a"]),
    "float past the digit limit": ('{"x":' + "9" * 5000 + '.5,"a":1}', ["$.a", "$.x"]),
    "literals": ('{"a":true,"b":false,"c":null}', ["$.a", "$.b", "$.c"]),
    "bad literal": ('{"x":nul,"a":1}', ["$.a"]),
    "literal runs on": ('{"a":truex}', ["$.a"]),
    "string escapes": (
        '{"a":"q\\"b\\\\s\\/\\b\\f\\n\\r\\t\\u0041\\ud83d\\ude00\\ud800","x":"\\u00e9"}',
        ["$.a", "$.x"],
    ),
    "bad escape skipped": ('{"x":"\\q","a":1}', ["$.a"]),
    "bad hex skipped": ('{"x":"\\u+041","a":1}', ["$.a"]),
    "underscore hex skipped": ('{"x":"\\u1_23","a":1}', ["$.a"]),
    "short hex skipped": ('{"x":"\\u12","a":1}', ["$.a"]),
    "bad hex in key": ('{"\\u-123":1,"a":1}', ["$.a"]),
    "depth 128 skipped": ('{"x":' + nested(127) + ',"a":1}', ["$.a"]),
    "depth 129 skipped": ('{"x":' + nested(128) + ',"a":1}', ["$.a"]),
    "depth 128 wanted": (nested(128), ["$" + ".a" * 128, "$" + ".a" * 5]),
    "depth 129 wanted": (nested(129), ["$" + ".a" * 129]),
    "depth 128 empty object": (nested(128, "{}"), ["$.a"]),
    "depth 128 arrays": ('{"x":' + "[" * 127 + "1" + "]" * 127 + ',"a":1}', ["$.a"]),
    "depth 129 arrays": ('{"x":' + "[" * 128 + "1" + "]" * 128 + ',"a":1}', ["$.a"]),
    "depth 200": (nested(200), ["$.a.a"]),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case(name):
    text, paths = NAMED[name]
    check(text, paths)


def test_corpus_replays():
    cases = json.loads(CORPUS.read_text())
    assert cases  # an empty corpus is a test that cannot fail
    for case in cases:
        check(case["text"], case["paths"])


def test_values_are_the_reference_values():
    text = '{"a":{"b":[1,{"c":2.5}]},"d":"x","e":null}'
    projector = PathProjector(["$.a.b[1].c", "$.d", "$.e", "$.a", "$.zz"])
    assert projector.parse(text) == (2.5, "x", None, {"b": [1, {"c": 2.5}]}, None)
    assert projector.index == {"$.a.b[1].c": 0, "$.d": 1, "$.e": 2, "$.a": 3, "$.zz": 4}


def test_malformed_raises_the_reference_error():
    with pytest.raises(JsonParseError) as info:
        PathProjector(["$.a"]).parse('{"a":1,}')
    with pytest.raises(JsonParseError) as expected:
        JacksonParser().parse('{"a":1,}')
    assert str(info.value) == str(expected.value)


# ----------------------------------------------------------------------
# the seeded generator
# ----------------------------------------------------------------------
_NAMES = ["a", "b", "c", "a", "f000", "f001", "n1", "k", "", "a b", "é", 'q"t', "b\\s", "x.y"]
_WHITESPACE = ["", "", "", "", " ", "\n", "\t", "\r", " \n "]
_STRING_PIECES = [
    "abc", "x", "", " ", "é", "{", "}", "[", "]", ",", ":", "\\n", '\\"', "\\\\", "\\/",
    "\\u0041", "\\ud83d\\ude00", "\\ud800", "\\u00e9", "true", "12", "\x01",
]
_NUMBERS = [
    "0", "-0", "7", "-12", "1234567890123456789012345678901234567890", "0.5", "-0.0",
    "1e5", "1E+5", "2.5e-3", "1e400", "-1e400", "0e0", "10", "9" * 310, "9" * 310 + ".5",
]
_MUTATION_ALPHABET = '{}[]",:\\ \t\n\r0123456789eE.+-truefalsn/bu\x00é'


def _key_spelling(rng: random.Random, name: str) -> str:
    out = []
    for ch in name:
        if ch in '"\\':
            out.append("\\" + ch)
        elif rng.random() < 0.04:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def _step(name: str) -> str:
    return f".{name}" if name.isalnum() and name.isascii() else f"['{name}']"


def _step_text(step) -> str:
    if isinstance(step, Member):
        return _step(step.name)
    return f"[{step.index}]" if isinstance(step, Index) else "[*]"


def _value(rng: random.Random, depth: int, prefix: str, paths: list[str]) -> str:
    ws = lambda: rng.choice(_WHITESPACE)  # noqa: E731
    roll = rng.random()
    if depth < 4 and roll < 0.22:
        members = []
        for _ in range(rng.randint(0, 6)):
            name = rng.choice(_NAMES)
            path = prefix + _step(name)
            paths.append(path)
            members.append(
                f"{ws()}{_key_spelling(rng, name)}{ws()}:{ws()}"
                f"{_value(rng, depth + 1, path, paths)}{ws()}"
            )
        return "{" + ",".join(members) + (ws() if not members else "") + "}"
    if depth < 4 and roll < 0.34:
        elements = []
        for index in range(rng.randint(0, 4)):
            path = prefix + rng.choice([f"[{index}]", "[*]"])
            paths.append(path)
            elements.append(f"{ws()}{_value(rng, depth + 1, path, paths)}{ws()}")
        return "[" + ",".join(elements) + "]"
    if roll < 0.6:
        pieces = rng.choices(_STRING_PIECES, k=rng.randint(0, 3))
        return '"' + "".join(pieces) + '"'
    if roll < 0.88:
        return rng.choice(_NUMBERS)
    return rng.choice(["true", "false", "null"])


def _synthetic(rng: random.Random) -> tuple[str, list[str]]:
    paths: list[str] = []
    members = []
    for _ in range(rng.randint(1, 8)):
        name = rng.choice(_NAMES)
        path = "$" + _step(name)
        paths.append(path)
        members.append(f"{_key_spelling(rng, name)}:{_value(rng, 1, path, paths)}")
    ws = rng.choice(_WHITESPACE)
    return ws + "{" + ",".join(members) + "}" + ws, paths


_FACTORIES = [DocumentFactory(spec) for spec in TABLE_SPECS]
# Large documents are drawn less often: a case costs a full reference parse.
_FACTORY_WEIGHTS = [max(1, 5000 // spec.avg_json_bytes) for spec in TABLE_SPECS]


def _table_document(rng: random.Random) -> tuple[str, list[str]]:
    factory = rng.choices(_FACTORIES, weights=_FACTORY_WEIGHTS)[0]
    return factory.json(rng.randrange(50)), factory.leaf_paths()


def _path_set(rng: random.Random, known: list[str]) -> list[str]:
    picked = rng.sample(known, min(len(known), rng.randint(1, 6))) if known else []
    out = []
    for path in picked or ["$.a"]:
        roll = rng.random()
        if roll < 0.15 and len(parse_path(path).steps) > 1:
            # A prefix, which overlaps its own leaf. Re-spelled from the
            # parsed steps: a name may itself hold '.' or '['.
            out.append("$" + "".join(_step_text(s) for s in parse_path(path).steps[:-1]))
        elif roll < 0.3:
            out.append(path + rng.choice([".a", ".zz", "[0]", "[*]", "[1].a", "[*].b"]))
        out.append(path)
    if rng.random() < 0.2:
        out.append(rng.choice(["$.zz", "$[0]", "$[*].a", "$.a.b.c"]))
    rng.shuffle(out)
    return out


def _mutate(rng: random.Random, text: str, known: list[str]) -> str:
    roll = rng.random()
    position = rng.randrange(len(text) + 1)
    if roll < 0.2:
        return text[:position] + text[position + 1 :]
    if roll < 0.45:
        return text[:position] + rng.choice(_MUTATION_ALPHABET) + text[position:]
    if roll < 0.6:
        return text[:position] + rng.choice(_MUTATION_ALPHABET) + text[position + 1 :]
    if roll < 0.68:
        return text[:position]
    if roll < 0.76:
        end = position + rng.randint(1, 20)
        return text[:end] + text[position:end] + text[end:]
    if roll < 0.82:
        return text[:position] + text[position + 1 : position + 2] + text[position : position + 1] + text[position + 2 :]
    # Splice a well-formed member after some '{': duplicate keys, at any
    # depth, that keep the document valid.
    opens = [i for i, ch in enumerate(text) if ch == "{"]
    if not opens:
        return text + " "
    at = rng.choice(opens) + 1
    name = rng.choice(_NAMES + [p.rsplit(".", 1)[-1] for p in known[:4] if "." in p])
    value = _value(rng, 3, "$", [])
    empty = text[at:].lstrip(" \t\n\r").startswith("}")
    return text[:at] + f"{_key_spelling(rng, name)}:{value}" + ("" if empty else ",") + text[at:]


def run_differential(cases: int, seed: int = 20200420) -> dict[str, int]:
    """Check ``cases`` generated (text, path set) pairs; return how many
    were valid documents and how many INVALID, so a generator that drifted
    into producing only one kind is visible."""
    rng = random.Random(seed)
    tally = {"valid": 0, "invalid": 0}
    for _ in range(cases):
        text, known = _table_document(rng) if rng.random() < 0.4 else _synthetic(rng)
        for _ in range(rng.choice([0, 0, 1, 1, 1, 2, 3])):
            text = _mutate(rng, text, known)
        paths = _path_set(rng, known)
        check(text, paths)
        tally["invalid" if reference(text, paths) == "INVALID" else "valid"] += 1
    return tally


def test_seeded_differential():
    tally = run_differential(CASES)
    assert tally["valid"] > CASES // 4 and tally["invalid"] > CASES // 4, tally


# ----------------------------------------------------------------------
# hypothesis documents
# ----------------------------------------------------------------------
_names = st.sampled_from(["a", "b", "c", "d", "", "é", "a b"])
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_names, children, max_size=4),
    max_leaves=16,
)
_steps = st.one_of(
    _names.map(_step), st.sampled_from(["[0]", "[1]", "[*]"])
)
_paths = st.lists(_steps, min_size=1, max_size=4).map(lambda steps: "$" + "".join(steps))


@given(
    st.dictionaries(_names, _values, max_size=5),
    st.lists(_paths, min_size=1, max_size=5),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=400), st.sampled_from(_MUTATION_ALPHABET)),
        max_size=2,
    ),
)
@settings(max_examples=300, deadline=None)
def test_hypothesis_documents(document, paths, edits):
    text = dumps(document)
    for position, char in edits:
        position %= len(text) + 1
        text = text[:position] + char + text[position + (position % 2) :]
    check(text, paths)
