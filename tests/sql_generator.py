"""Seeded statements in the engine's SQL grammar over ``db.t(id, payload)``:
projection, arithmetic, AND/OR/NOT, IN, BETWEEN, CAST, scalar functions, GROUP
BY/HAVING, count(distinct), ORDER BY ... LIMIT (never LIMIT alone), self-join."""

import random

NUMERIC = ("hot", "cold")  # aggregates read these
MEMBERS = NUMERIC + ("warm",)
COMPARE = ("=", "!=", "<", "<=", ">", ">=")


def statements(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [_statement(rng) for _ in range(count)]


def _path(rng, names=MEMBERS, q="") -> str:
    return f"get_json_object({q}payload, '$.{rng.choice(names)}')"


def _scalar(rng, q="") -> str:
    num, name = _path(rng, NUMERIC, q), _path(rng, ("warm",), q)
    return rng.choice([
        num, name, f"{q}id", f"coalesce({num}, -1)", f"round({num} / 3, 1)",
        f"{num} * {rng.randint(2, 5)} + {_path(rng, NUMERIC, q)}",
        f"{num} - {q}id % {rng.randint(2, 9)}", f"{num} / {_path(rng, NUMERIC, q)}",
        f"cast({num} as {rng.choice(['string', 'int', 'double'])})",
        f"cast({name} as int)", f"upper({name})", f"length({name})",
        f"concat({name}, '-', {q}id)", f"substr({name}, 2, 3)",
    ])


def _predicate(rng, q="", depth=2) -> str:
    if depth and rng.random() < 0.6:
        a, b = _predicate(rng, q, depth - 1), _predicate(rng, q, depth - 1)
        return rng.choice([f"({a} and {b})", f"({a} or {b})", f"not ({a})"])
    num, other = _path(rng, NUMERIC, q), _path(rng, NUMERIC, q)
    return rng.choice([
        f"{num} {rng.choice(COMPARE)} {rng.choice([0, 2, 4, 70, 350, 700])}",
        f"{num} in ({rng.randint(0, 4)}, {rng.randint(0, 99) * 7}, {other})",
        f"{_path(rng, ('warm',), q)} in ('w1', 'w2', 'w')",
        f"{num} between {rng.randint(0, 3)} and {rng.randint(2, 900)}",
        f"{q}id between {rng.randint(0, 70)} and {rng.randint(60, 160)}",
        f"{q}id {rng.choice(COMPARE)} {rng.choice([0, 9, 10, 19, 20, 55, 120, 129])}",
        f"{num} is {rng.choice(['', 'not '])}null",
    ])


def _statement(rng) -> str:
    where = f" where {_predicate(rng)}" if rng.random() < 0.7 else ""
    kind, nums = rng.random(), [_path(rng, NUMERIC) for _ in range(4)]
    if kind < 0.05:  # self-join
        key = (rng.choice(MEMBERS),)
        return (
            f"select a.id as l, b.id as r, {_scalar(rng, 'b.')} as v from db.t a "
            f"join db.t b on {_path(rng, key, 'a.')} = {_path(rng, key, 'b.')} "
            f"where a.id < {rng.randint(10, 60)} and b.id >= {rng.randint(90, 150)} "
            f"and {_predicate(rng, 'a.', 1)}"
        )
    if kind < 0.15:  # global aggregate
        return (
            f"select count(*) as n, sum({nums[0]}) as s, min({nums[1]}) as lo, "
            f"max({nums[2]}) as hi, avg({nums[3]}) as a from db.t{where}"
        )
    if kind < 0.5:  # GROUP BY / HAVING
        key = rng.choice([_path(rng), "id % 4"])
        agg = rng.choice(["sum", "avg", "min", "max", "count"])
        tail = rng.choice(["", " having count(*) > 2", f" having sum({nums[2]}) > 40"])
        tail += rng.choice(["", " order by k", " order by n desc, k limit 5"])
        return (
            f"select {key} as k, {agg}({nums[0]}) as a, count(*) as n, count(distinct "
            f"{nums[1]}) as d from db.t{where} group by {key}{tail}"
        )
    order = rng.choice([
        "",
        f" order by c0 {rng.choice(['asc', 'desc'])}, id limit {rng.randint(1, 30)}",
        f" order by {_scalar(rng)} desc, id desc limit {rng.randint(1, 30)}",
    ])
    c0, c1 = _scalar(rng), _scalar(rng)
    return f"select {c0} as c0, {c1} as c1, id from db.t{where}{order}"
