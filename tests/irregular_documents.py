"""Documents the projection pass has a rule for, spelled with a fixture's
own member names, so the engine-level differentials (engine vs reference,
serial vs thread vs process, result cache on vs off, cached vs baseline) run
over them too: duplicate keys, escaped key spellings, every whitespace form,
non-object roots, and malformed text of each kind the pass must leave to
the reference parser — including the two that used to *fail* the query
(``\\u-123`` and an integer past ``int()``'s digit limit) instead of
yielding NULL.

Values keep the type the fixture gives each member (so a cache column's
inferred type fits them); only ``vary_types=True`` adds documents whose
members change type, for fixtures that read the raw text only.
"""

from __future__ import annotations

from repro.jsonlib import dumps

__all__ = ["irregular_documents", "with_irregular_sales"]


def _escaped(name: str) -> str:
    """``name`` with its second character spelled as a ``\\u`` escape."""
    return name[:1] + f"\\u{ord(name[1]):04x}" + name[2:]


def irregular_documents(base: dict, vary_types: bool = False) -> list[str]:
    """Irregular spellings of (and around) the flat document ``base``.

    ``base`` needs at least two members with names of two or more
    characters. Every text is distinct; malformed ones are about a third.
    """
    names = list(base)
    first, second = names[0], names[1]
    members = {name: f'"{name}":{dumps(value)}' for name, value in base.items()}
    body = ",".join(members.values())
    rest = ",".join(members[name] for name in names[1:])
    nested = '{"deep":' * 127 + "1" + "}" * 127
    documents = [
        # -- valid, irregular ------------------------------------------
        "{" + f'"{first}":-1,' + body + "}",  # duplicate: last wins
        "{" + body + "," + members[first] + "}",  # duplicate, same value
        "{" + f'"{first}":{{"x":1}},' + body + "}",  # object, then scalar
        "{" + f'"{first}":[1,2],"{second}":null,' + body + "}",
        "{" + f'"pad":{{"{first}":-2,"{first}":-3}},' + body + "}",
        "{" + f'"{_escaped(first)}":{dumps(base[first])},' + rest + "}",
        "{" + f'"{first}":-4,"{_escaped(first)}":{dumps(base[first])},' + rest + "}",
        "{" + f'"{_escaped(first)}":-5,' + body + "}",
        "{" + f'"e\\"sc\\\\":"\\u00e9\\n\\ud83d\\ude00","arr":[1,[2,{{"k":[]}}],"s"],' + body + "}",
        " \t\n\r{ " + " ,\n".join(m.replace(":", " :\t", 1) for m in members.values()) + " \r}\n",
        "{" + f'"x":{nested},' + body + "}",  # depth 128: the deepest valid
        "{" + body + ',"big":123456789012345678901234567890,"f":-0.0,"e":1E400}',
        "{" + rest + "}",  # first member missing
        "{}",
        "[1,2]",
        '"text"',
        "null",
        "12",
        # -- malformed: NULL for every path ----------------------------
        "{" + body,
        "{" + body + ",}",
        "{," + body + "}",
        "{" + body + "} x",
        "{" + body + "}{}",
        "{" + body.replace(":", " ", 1) + "}",
        "{" + f'"n":01,' + body + "}",
        "{" + f'"n":1.,' + body + "}",
        "{" + f'"s":"\\q",' + body + "}",
        "{" + f'"s":"\\u+041",' + body + "}",
        "{" + f'"s":"\\u-123",' + body + "}",
        "{" + f'"\\u-123":1,' + body + "}",
        "{" + f'"n":{"9" * 5000},' + body + "}",
        "{" + f'"x":{{"deep":{nested}}},' + body + "}",  # depth 129
        "{" + f'"a":[1,],' + body + "}",
        "{" + f'"lit":nul,' + body + "}",
        "not json",
        "",
    ]
    if vary_types:
        documents += [
            "{" + rest + f',"{first}":"7"' + "}",
            "{" + rest + f',"{first}":2.5e0,"{second}":17' + "}",
            "{" + rest + f',"{first}":true,"{second}":{{"a":1}}' + "}",
            "{" + rest + f',"{first}":null,"{second}":[3]' + "}",
        ]
    assert len(set(documents)) == len(documents)
    return documents


def with_irregular_sales(sales_session):
    """``conftest.sales_session`` plus a sixth partition of irregular
    sale-log documents, so a suite over that table also runs where the
    projection pass hands over to the reference parser."""
    base = {
        "item_id": 3,
        "item_name": "item3",
        "sale_count": 9,
        "turnover": 950,
        "price": 12,
    }
    rows = [
        ("0001", "20190106", text)
        for text in irregular_documents(base, vary_types=True)
    ]
    sales_session.catalog.append_rows("mydb", "T", rows, row_group_size=10)
    return sales_session
