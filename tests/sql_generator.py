"""Seeded statements in the engine's SQL grammar over a table ``(id, payload)``
(``db.t`` and its members by default): projection, arithmetic, AND/OR/NOT,
IN, BETWEEN, CAST, scalar functions, GROUP BY/HAVING, count(distinct),
ORDER BY ... LIMIT (never LIMIT alone), self-join."""

import random

NUMERIC = ("hot", "cold")  # aggregates read these
MEMBERS = NUMERIC + ("warm",)
COMPARE = ("=", "!=", "<", "<=", ">", ">=")


def statements(
    seed: int, count: int, table: str = "db.t", numeric=NUMERIC, text: str = "warm"
) -> list[str]:
    grammar = Grammar(random.Random(seed), table, numeric, text)
    return [grammar.statement() for _ in range(count)]


class Grammar:
    def __init__(self, rng, table="db.t", numeric=NUMERIC, text="warm"):
        self.rng, self.table = rng, table
        self.numeric, self.text = tuple(numeric), (text,)
        self.members = self.numeric + self.text

    def path(self, names=None, q="") -> str:
        name = self.rng.choice(names or self.members)
        return f"get_json_object({q}payload, '$.{name}')"

    def scalar(self, q="") -> str:
        rng = self.rng
        num, name = self.path(self.numeric, q), self.path(self.text, q)
        return rng.choice([
            num, name, f"{q}id", f"coalesce({num}, -1)", f"round({num} / 3, 1)",
            f"{num} * {rng.randint(2, 5)} + {self.path(self.numeric, q)}",
            f"{num} - {q}id % {rng.randint(2, 9)}",
            f"{num} / {self.path(self.numeric, q)}",
            f"cast({num} as {rng.choice(['string', 'int', 'double'])})",
            f"cast({name} as int)", f"upper({name})", f"length({name})",
            f"concat({name}, '-', {q}id)", f"substr({name}, 2, 3)",
        ])

    def predicate(self, q="", depth=2) -> str:
        rng = self.rng
        if depth and rng.random() < 0.6:
            a, b = self.predicate(q, depth - 1), self.predicate(q, depth - 1)
            return rng.choice([f"({a} and {b})", f"({a} or {b})", f"not ({a})"])
        num, other = self.path(self.numeric, q), self.path(self.numeric, q)
        return rng.choice([
            f"{num} {rng.choice(COMPARE)} {rng.choice([0, 2, 4, 70, 350, 700])}",
            f"{num} in ({rng.randint(0, 4)}, {rng.randint(0, 99) * 7}, {other})",
            f"{self.path(self.text, q)} in ('w1', 'w2', 'w')",
            f"{num} between {rng.randint(0, 3)} and {rng.randint(2, 900)}",
            f"{q}id between {rng.randint(0, 70)} and {rng.randint(60, 160)}",
            f"{q}id {rng.choice(COMPARE)} {rng.choice([0, 9, 10, 19, 20, 55, 120, 129])}",
            f"{num} is {rng.choice(['', 'not '])}null",
        ])

    def statement(self) -> str:
        rng, t = self.rng, self.table
        where = f" where {self.predicate()}" if rng.random() < 0.7 else ""
        kind, nums = rng.random(), [self.path(self.numeric) for _ in range(4)]
        if kind < 0.05:  # self-join
            key = (rng.choice(self.members),)
            return (
                f"select a.id as l, b.id as r, {self.scalar('b.')} as v from {t} a "
                f"join {t} b on {self.path(key, 'a.')} = {self.path(key, 'b.')} "
                f"where a.id < {rng.randint(10, 60)} and b.id >= {rng.randint(90, 150)} "
                f"and {self.predicate('a.', 1)}"
            )
        if kind < 0.15:  # global aggregate
            return (
                f"select count(*) as n, sum({nums[0]}) as s, min({nums[1]}) as lo, "
                f"max({nums[2]}) as hi, avg({nums[3]}) as a from {t}{where}"
            )
        if kind < 0.5:  # GROUP BY / HAVING
            key = rng.choice([self.path(), "id % 4"])
            agg = rng.choice(["sum", "avg", "min", "max", "count"])
            tail = rng.choice(["", " having count(*) > 2", f" having sum({nums[2]}) > 40"])
            tail += rng.choice(["", " order by k", " order by n desc, k limit 5"])
            return (
                f"select {key} as k, {agg}({nums[0]}) as a, count(*) as n, count(distinct "
                f"{nums[1]}) as d from {t}{where} group by {key}{tail}"
            )
        order = rng.choice([
            "",
            f" order by c0 {rng.choice(['asc', 'desc'])}, id limit {rng.randint(1, 30)}",
            f" order by {self.scalar()} desc, id desc limit {rng.randint(1, 30)}",
        ])
        c0, c1 = self.scalar(), self.scalar()
        return f"select {c0} as c0, {c1} as c1, id from {t}{where}{order}"
