"""Semantic result cache: canonicalization, admission, invalidation.

The result cache answers a recurring statement from stored rows, so the
dangerous directions are *wrong rows* (a canonicalization collision
between semantically different statements) and *stale rows* (a key that
survives a change that affected the answer). These tests pin the
canonicalizer's equivalence rules, the benefit-based admission and the
unified byte budget, and then walk the full invalidation matrix:
catalog DDL/append, cache-generation swaps, circuit-breaker epoch
transitions, and fault-degraded executions (which must never be
admitted at all).
"""

import random
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import BUDGETED_TIERS, CacheLedger, ResultCache, Session
from repro.engine.batch import ColumnBatch
from repro.engine import resultcache
from repro.engine.resultcache import _estimate_bytes, canonicalize
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

from reference_admission import MinScanResultCache, walk_estimate_bytes
from sql_generator import Grammar, statements


@pytest.fixture
def rc_session() -> Session:
    session = Session(fs=BlockFileSystem(), result_cache_enabled=True)
    schema = Schema.of(
        ("a", DataType.INT64), ("b", DataType.STRING), ("c", DataType.INT64)
    )
    session.catalog.create_table("db", "t", schema)
    session.catalog.append_rows(
        "db", "t", [(i, f"s{i % 3}", i * 2) for i in range(12)]
    )
    return session


def canon(session: Session, sql: str):
    statement = canonicalize(sql, session.planner)
    assert statement is not None, sql
    return statement


# ----------------------------------------------------------------------
# canonicalization rules
# ----------------------------------------------------------------------
class TestCanonicalization:
    def test_keyword_case_and_whitespace_fold(self, rc_session):
        a = canon(rc_session, "select a from db.t where b = 'x'")
        b = canon(rc_session, "SELECT  a\nFROM db.t  WHERE b = 'x'")
        assert (a.text, a.params) == (b.text, b.params)

    def test_identifier_case_folds(self, rc_session):
        a = canon(rc_session, "select a from db.t")
        b = canon(rc_session, "select A from DB.T")
        assert (a.text, a.params) == (b.text, b.params)

    def test_output_alias_is_not_identity(self, rc_session):
        a = canon(rc_session, "select a as x from db.t")
        b = canon(rc_session, "select a as y from db.t")
        assert (a.text, a.params) == (b.text, b.params)
        assert a.output_names == ("x",) and b.output_names == ("y",)

    def test_table_alias_is_positional(self, rc_session):
        a = canon(rc_session, "select u.a from db.t u where u.c > 3")
        b = canon(rc_session, "select v.a from db.t v where v.c > 3")
        assert (a.text, a.params) == (b.text, b.params)

    def test_predicate_order_is_commutative(self, rc_session):
        a = canon(rc_session, "select a from db.t where a > 1 and b = 'x'")
        b = canon(rc_session, "select a from db.t where b = 'x' and a > 1")
        assert (a.text, a.params) == (b.text, b.params)

    def test_equality_operands_are_commutative(self, rc_session):
        a = canon(rc_session, "select a from db.t where b = 'x'")
        b = canon(rc_session, "select a from db.t where 'x' = b")
        assert (a.text, a.params) == (b.text, b.params)

    def test_in_list_order_is_commutative(self, rc_session):
        a = canon(rc_session, "select a from db.t where b in ('x', 'y')")
        b = canon(rc_session, "select a from db.t where b in ('y', 'x')")
        assert (a.text, a.params) == (b.text, b.params)

    def test_literals_bind_into_params(self, rc_session):
        a = canon(rc_session, "select a from db.t where a > 1")
        b = canon(rc_session, "select a from db.t where a > 5")
        assert a.text == b.text  # same template = shared recurrence
        assert a.params != b.params  # different answer = different key

    def test_numeric_type_kept_distinct_in_params(self, rc_session):
        # 1 and 1.0 hash equal in Python; as projected values they are
        # different answers, so the vectors must differ.
        a = canon(rc_session, "select a, 1 as k from db.t")
        b = canon(rc_session, "select a, 1.0 as k from db.t")
        assert a.text == b.text
        assert a.params != b.params

    def test_sort_suffix_is_positional(self, rc_session):
        a = canon(rc_session, "select a as x from db.t order by x limit 3")
        b = canon(rc_session, "select a as y from db.t order by y limit 3")
        assert (a.text, a.params) == (b.text, b.params)
        assert "#0 asc" in a.text and a.output_names == ("x",)

    def test_star_is_not_remappable(self, rc_session):
        a = canon(rc_session, "select * from db.t")
        assert a.output_names is None
        assert "__names__" in a.params

    def test_duplicate_names_are_not_remappable(self, rc_session):
        a = canon(rc_session, "select a as x, c as x from db.t")
        assert a.output_names is None

    def test_different_statements_do_not_collide(self, rc_session):
        pairs = [
            ("select a from db.t", "select c from db.t"),
            ("select a from db.t where a > 1", "select a from db.t where a < 1"),
            ("select a from db.t", "select a from db.t order by a"),
            ("select a from db.t limit 3", "select a from db.t limit 4"),
            (
                "select a from db.t where a > 1 or b = 'x'",
                "select a from db.t where a > 1 and b = 'x'",
            ),
        ]
        for left, right in pairs:
            a, b = canon(rc_session, left), canon(rc_session, right)
            assert (a.text, a.params) != (b.text, b.params), (left, right)


# ----------------------------------------------------------------------
# near-miss keys over the generated corpus
# ----------------------------------------------------------------------
def _unquoted(sql: str, edit) -> str:
    """Apply ``edit`` to the text outside string literals."""
    parts = sql.split("'")
    parts[::2] = [edit(part) for part in parts[::2]]
    return "'".join(parts)


def _first(pattern: str, replace):
    return lambda sql: re.sub(pattern, replace, sql, count=1)


def _swap(a: str, b: str):
    """Swap the first ``a`` or ``b`` of a statement for the other."""
    other = {a: b, b: a}
    return _first(f"{re.escape(a)}|{re.escape(b)}", lambda m: other[m.group(0)])


def _swap_and_or(sql: str) -> str:
    guarded = re.sub(r"between (\d+) and ", r"between \1 AND_ ", sql)
    return _swap(" and ", " or ")(guarded).replace(" AND_ ", " and ")


def _bump(m) -> str:
    return str(int(m.group(0)) + 1)


#: A mutation that changes the answer must change the key.
NEAR_MISSES = {
    "bump a literal": _first(r"\b\d+\b", _bump),
    "flip asc/desc": _swap(" asc", " desc"),
    "swap > and >=": _swap(" > ", " >= "),
    "swap and/or": _swap_and_or,
    "change the limit": _first(r"(?<= limit )\d+", _bump),
}
KEYWORDS = (
    r"\b(select|from|where|and|or|not|order|by|limit|group|having|asc|desc"
    r"|between|in|is|null|as|join|on)\b"
)
#: A mutation that keeps the answer must keep the key.
NEAR_HITS = {
    "recase": lambda sql: _unquoted(
        sql, lambda s: re.sub(KEYWORDS, lambda m: m.group(0).upper(), s)
    ),
    "re-space": lambda sql: _unquoted(sql, lambda s: s.replace(" ", " \n  ")),
}


@pytest.fixture(scope="module")
def corpus_session() -> Session:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    return session


def _key(session, sql):
    statement = canonicalize(sql, session.planner)
    return None if statement is None else (statement.text, statement.params)


class TestNearMissKeys:
    CORPUS = statements(seed=7, count=500)

    @pytest.mark.parametrize("mutation", NEAR_MISSES)
    def test_semantic_change_changes_the_key(self, corpus_session, mutation):
        mutate, pairs = NEAR_MISSES[mutation], 0
        for sql in self.CORPUS:
            mutated = mutate(sql)
            key = _key(corpus_session, sql)
            if mutated == sql or key is None:
                continue
            assert _key(corpus_session, mutated) != key, (sql, mutated)
            pairs += 1
        assert pairs >= 150, pairs

    @pytest.mark.parametrize("mutation", NEAR_HITS)
    def test_spelling_change_keeps_the_key(self, corpus_session, mutation):
        keyed = [sql for sql in self.CORPUS if _key(corpus_session, sql)]
        assert len(keyed) >= 400
        for sql in keyed:
            mutated = NEAR_HITS[mutation](sql)
            assert mutated != sql
            assert _key(corpus_session, mutated) == _key(corpus_session, sql)

    def test_reordered_and_chain_keeps_the_key(self, corpus_session):
        rng = random.Random(25)
        for sql in self.CORPUS[:200]:
            if " join " in sql:
                continue
            head, _, rest = sql.partition(" from db.t")
            tail = re.search(r" (group by|order by)|$", rest)
            leaves = [f"({Grammar(rng).predicate(depth=0)})" for _ in range(3)]
            build = f"{head} from db.t where {{}}{rest[tail.start():]}".format
            key = _key(corpus_session, build(" and ".join(leaves)))
            shuffled = " and ".join(rng.sample(leaves, len(leaves)))
            assert key is not None and key == _key(corpus_session, build(shuffled))


# ----------------------------------------------------------------------
# hit / miss / remap mechanics through the session
# ----------------------------------------------------------------------
class TestResultCacheServing:
    def test_recurrence_is_served_from_cache(self, rc_session):
        first = rc_session.sql("select a from db.t where a > 4")
        again = rc_session.sql("SELECT  A  FROM db.t  WHERE a > 4")
        assert again.rows == first.rows
        stats = rc_session.result_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert first.metrics.extra.get("result_cache_misses") == 1
        assert again.metrics.extra.get("result_cache_hits") == 1

    def test_hit_rows_carry_the_recurrence_aliases(self, rc_session):
        rc_session.sql("select a as x from db.t where a > 9")
        renamed = rc_session.sql("select a as y from db.t where a > 9")
        assert renamed.rows == [{"y": 10}, {"y": 11}]
        assert rc_session.result_cache_stats()["hits"] == 1

    def test_hits_hand_out_fresh_rows(self, rc_session):
        """"Rows are freshly-built dicts": whatever a reader does to a
        hit's rows, the entry (one encoded frame) and every other reader,
        concurrent ones included, are unaffected."""
        sql = "select a, b from db.t where a > 8"
        expected = [dict(row) for row in rc_session.sql(sql).rows]
        first = rc_session.sql(sql)
        assert len(first) == len(expected) and first.rows is first.rows
        first.rows[0]["a"] = "scribbled"
        first.rows.pop()
        assert rc_session.sql(sql).rows == expected
        with ThreadPoolExecutor(4) as pool:
            hits = list(pool.map(lambda _: rc_session.sql(sql).rows, range(8)))
        assert all(rows == expected for rows in hits)
        dicts = [id(row) for rows in hits for row in rows]
        assert len(set(dicts)) == len(dicts)
        assert rc_session.result_cache_stats()["hits"] == 10

    def test_sort_over_a_cached_projection_misses(self, rc_session):
        """Only exact recurrences are answered: appending ORDER BY/LIMIT
        to a cached projection is a miss that executes."""
        rc_session.sql("select a, c from db.t where a > 6")
        suffixed = rc_session.sql(
            "select a, c from db.t where a > 6 order by c desc limit 3"
        )
        assert suffixed.rows == [{"a": 11, "c": 22}, {"a": 10, "c": 20}, {"a": 9, "c": 18}]
        stats = rc_session.result_cache_stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)

    def test_stats_keys_do_not_depend_on_the_tier(self, rc_session, session):
        """Off, the counters are the capacity-0 memo's: the same keys."""
        assert set(session.result_cache_stats()) == set(
            rc_session.result_cache_stats()
        )
        assert not any(session.result_cache_stats().values())

    def test_star_statement_round_trips_verbatim(self, rc_session):
        first = rc_session.sql("select * from db.t limit 5")
        again = rc_session.sql("select * from db.t limit 5")
        assert again.rows == first.rows
        assert rc_session.result_cache_stats()["hits"] == 1

    def test_disabled_by_default(self, session):
        schema = Schema.of(("a", DataType.INT64))
        session.catalog.create_table("db", "t", schema)
        session.catalog.append_rows("db", "t", [(1,), (2,)])
        session.sql("select a from db.t")
        session.sql("select a from db.t")
        stats = session.result_cache_stats()
        assert stats["hits"] == 0 and stats["capacity"] == 0

    def test_traced_queries_never_serve_from_cache(self, rc_session):
        from repro.obs.trace import Tracer

        rc_session.sql("select a from db.t")
        traced = rc_session.sql("select a from db.t", tracer=Tracer())
        assert "result_cache_hits" not in traced.metrics.extra
        assert traced.metrics.rows_scanned > 0  # really executed
        spans = [s.name for s in traced.trace.walk()]
        assert "result_cache" in spans and "result_cache_admission" in spans

    def test_different_literals_do_not_cross_serve(self, rc_session):
        low = rc_session.sql("select a from db.t where a > 9")
        high = rc_session.sql("select a from db.t where a > 10")
        assert low.rows != high.rows
        assert rc_session.result_cache_stats()["hits"] == 0


# ----------------------------------------------------------------------
# benefit-based admission under the unified byte budget
# ----------------------------------------------------------------------
def fixed_canonical(tag: str, names=("v",)):
    from repro.engine import CanonicalStatement

    return CanonicalStatement(text=tag, params=(), output_names=tuple(names))


class TestAdmission:
    def test_budget_caps_all_tiers_together(self):
        ledger = CacheLedger(budget=4000)
        cache = ResultCache(ledger)
        ledger.charge("plan", 3000)  # another tier owns most of it
        rows = ColumnBatch.from_rows([{"v": "x" * 50}] * 20)  # > 1000 bytes
        admitted = cache.admit(
            ("big",), fixed_canonical("big"), rows, cost_seconds=1.0
        )
        assert admitted is False
        assert cache.stats()["rejections"] == 1
        assert ledger.total() <= 4000

    def test_higher_benefit_evicts_lower(self):
        ledger = CacheLedger(budget=6000)
        cache = ResultCache(ledger)
        rows = ColumnBatch.from_rows([{"v": "x" * 40}] * 20)
        assert cache.admit(
            ("cold",), fixed_canonical("cold"), rows, cost_seconds=0.001
        )
        for _ in range(5):  # hot template recurs
            cache.note_recurrence("hot")
        assert cache.admit(
            ("hot",), fixed_canonical("hot"), rows, cost_seconds=0.1
        )
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 1
        assert cache.fetch(("hot",)) is not None
        assert ledger.total() <= 6000

    def test_lower_benefit_is_rejected_not_swapped(self):
        ledger = CacheLedger(budget=6000)
        cache = ResultCache(ledger)
        rows = ColumnBatch.from_rows([{"v": "x" * 40}] * 20)
        for _ in range(5):
            cache.note_recurrence("hot")
        assert cache.admit(
            ("hot",), fixed_canonical("hot"), rows, cost_seconds=0.1
        )
        assert not cache.admit(
            ("cold",), fixed_canonical("cold"), rows, cost_seconds=0.001
        )
        stats = cache.stats()
        assert stats["rejections"] == 1 and stats["evictions"] == 0
        assert cache.fetch(("hot",)) is not None

    def test_recorded_replay_admits_and_evicts_as_before(self):
        """Entries hold frames, not tuples; the policy did not move. 300
        seeded admissions into a 40-entry, 60 kB cache: the admit/reject
        sequence, eviction count and byte accounting are those recorded at
        the commit before (PR 23), where rows were stored."""
        rng = random.Random(24)
        ledger = CacheLedger(budget=60_000)
        cache = ResultCache(ledger, capacity=40)
        outcome = ""
        for i in range(300):
            tag = f"q{rng.randrange(80)}"
            cache.note_recurrence(tag)
            rows = [
                {"v": rng.choice([None, 7, 1.5, True, "x" * rng.randrange(60), [1, 2]]), "w": i}
                for _ in range(rng.randrange(1, 30))
            ]
            admitted = cache.admit(
                (tag, i % 3),
                fixed_canonical(tag, ("v", "w")),
                ColumnBatch.from_rows(rows),
                cost_seconds=rng.random(),
            )
            outcome += "01"[admitted]
        assert hex(int(outcome, 2)) == (
            "0xfffffffffefffb5f5df0e3ff11db608a73defdbde80f21d33177ae467dda6e82"
            "3fbb1511406"
        )
        stats = cache.stats()
        assert (stats["admissions"], stats["rejections"], stats["evictions"]) == (
            189,
            111,
            100,
        )
        assert stats["bytes"] == ledger.tier_bytes("result") == 39428
        assert list(cache._entries)[:3] == [("q12", 1), ("q49", 1), ("q12", 0)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("capacity, budget", [(8, None), (64, 4000)])
    def test_victim_heap_decides_as_the_min_scan(
        self, monkeypatch, seed, capacity, budget
    ):
        """Admissions (re-admitted keys, equal scores), LRU touches, more
        templates than recurrence slots, shrinks: as the min-scan oracle."""
        monkeypatch.setattr(resultcache, "_RECURRENCE_CAPACITY", 12)
        rng, ops = random.Random(seed), []
        for _ in range(600):
            tag = f"q{rng.randrange(30)}"
            key, cost = (tag, rng.randrange(2)), rng.choice([0.0, 0.25, 0.5])
            rows = [{"v": "x" * rng.randrange(40)} for _ in range(rng.randrange(1, 8))]
            batch, shrink = ColumnBatch.from_rows(rows), rng.randrange(3000)
            admit = ("admit", key, fixed_canonical(tag), batch, cost)
            note, shrink = ("note_recurrence", tag), ("shrink_to_bytes", shrink)
            ops.append(rng.choice([admit, admit, ("fetch", key), note, note, shrink]))

        def replay(cache):
            return [(getattr(cache, op)(*args), list(cache._entries), cache.stats())
                    for op, *args in ops]

        heap = replay(ResultCache(CacheLedger(budget), capacity))
        assert heap == replay(MinScanResultCache(CacheLedger(budget), capacity))
        assert all(heap[-1][2][n] for n in ("hits", "evictions", "rejections"))
        notes = [(op[1], out[0]) for op, out in zip(ops, heap) if op[0][0] == "n"]
        assert any(n == 1 and (t, 2) in notes[:i] for i, (t, n) in enumerate(notes))

    def test_clear_releases_ledger_bytes(self):
        ledger = CacheLedger(budget=1 << 20)
        cache = ResultCache(ledger)
        cache.admit(
            ("k",),
            fixed_canonical("k"),
            ColumnBatch.from_rows([{"v": 1}]),
            cost_seconds=0.1,
        )
        assert ledger.tier_bytes("result") > 0
        cache.clear()
        assert ledger.tier_bytes("result") == 0
        assert cache.stats()["invalidations"] == 1

    def test_session_tiers_stay_within_budget(self):
        budget = 64 * 1024
        session = Session(
            fs=BlockFileSystem(),
            result_cache_enabled=True,
            cache_budget_bytes=budget,
        )
        schema = Schema.of(("a", DataType.INT64), ("b", DataType.STRING))
        session.catalog.create_table("db", "t", schema)
        session.catalog.append_rows(
            "db", "t", [(i, "x" * 40) for i in range(60)]
        )
        for i in range(30):
            session.sql(f"select a, b from db.t where a > {i}")
        ledger = session.cache_ledger
        assert ledger.total() <= budget
        for tier in BUDGETED_TIERS:
            assert ledger.tier_bytes(tier) >= 0
        assert ledger.tier_bytes("result") > 0  # something was admitted


TAGS = st.text(max_size=9).map(type("Tag", (str,), {}))  # a str subclass
SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | TAGS.map(str) | TAGS
NESTED = st.recursive(SCALAR, lambda v: st.lists(v, max_size=3) | st.dictionaries(
    TAGS.map(str), v, max_size=3))
COLUMN = st.sampled_from([NESTED, SCALAR, st.none(), st.booleans(), TAGS])


@settings(deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.lists(
    COLUMN.flatmap(lambda values: st.lists(values, min_size=n, max_size=n)), min_size=1
)))
def test_size_estimate_counts_as_the_walk(columns):
    """Mixed, nested, all-None, bool, str-subclass and repeated columns."""
    names = [f"c{i}" for i in range(len(columns))]
    batch = ColumnBatch(names + names[:1], dict(zip(names, columns)), len(columns[0]))
    assert _estimate_bytes(batch) == walk_estimate_bytes(batch)


# ----------------------------------------------------------------------
# invalidation matrix
# ----------------------------------------------------------------------
def cached_result_system(fs=None, result_cache=True):
    """A Maxson system with JSONPath caching (and the result cache) on."""
    session = Session(fs=fs or BlockFileSystem(), result_cache_enabled=result_cache)
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [(i, dumps({"hot": i % 5, "cold": i * 7})) for i in range(40)]
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )
    keys = [PathKey("db", "t", "payload", "$.hot")]
    system.cache_paths_directly(keys, budget_bytes=1 << 40)
    return system, keys


HOT_SQL = "select get_json_object(payload, '$.hot') as h from db.t"


class TestInvalidationMatrix:
    def test_generation_swap_invalidates(self):
        system, keys = cached_result_system()
        first = system.sql(HOT_SQL)
        hit = system.sql(HOT_SQL)
        assert hit.metrics.extra.get("result_cache_hits") == 1
        system.cache_paths_directly(keys, budget_bytes=1 << 40)  # swap
        assert system.session.result_cache_stats()["entries"] == 0
        after = system.sql(HOT_SQL)
        assert "result_cache_hits" not in after.metrics.extra
        assert after.rows == first.rows
        assert after.metrics.cache_hits > 0  # new generation served it

    def test_ddl_changes_key(self, rc_session):
        rc_session.sql("select a from db.t")
        rc_session.catalog.create_table(
            "db", "u", Schema.of(("a", DataType.INT64))
        )
        after = rc_session.sql("select a from db.t")
        assert "result_cache_hits" not in after.metrics.extra
        assert rc_session.result_cache_stats()["hits"] == 0

    def test_append_rows_changes_key(self, rc_session):
        before = rc_session.sql("select count(*) as n from db.t")
        rc_session.catalog.append_rows("db", "t", [(99, "s0", 0)])
        after = rc_session.sql("select count(*) as n from db.t")
        assert rc_session.result_cache_stats()["hits"] == 0
        assert after.rows[0]["n"] == before.rows[0]["n"] + 1

    def test_breaker_epoch_transitions_change_key(self):
        """open → half-open → closed each bump the breaker epoch; a
        result cached under any earlier epoch must re-execute."""
        system, _ = cached_result_system()
        table = next(iter(system.registry.cache_tables()))
        baseline = system.sql(HOT_SQL)
        assert system.sql(HOT_SQL).metrics.extra.get("result_cache_hits") == 1
        breaker = system.breaker
        epochs = [breaker.epoch]
        breaker.record_failure(table)  # closed -> open
        epochs.append(breaker.epoch)
        open_run = system.sql(HOT_SQL)
        assert "result_cache_hits" not in open_run.metrics.extra
        assert open_run.rows == baseline.rows
        breaker.quarantine_seconds = 0.0
        assert breaker.allows(table)  # open -> half-open (re-probe)
        epochs.append(breaker.epoch)
        half_open_run = system.sql(HOT_SQL)
        assert "result_cache_hits" not in half_open_run.metrics.extra
        assert half_open_run.rows == baseline.rows
        breaker.record_success(table)  # half-open -> closed
        epochs.append(breaker.epoch)
        closed_run = system.sql(HOT_SQL)
        assert "result_cache_hits" not in closed_run.metrics.extra
        assert closed_run.rows == baseline.rows
        assert len(set(epochs)) == len(epochs)  # every transition bumped
        # and the closed-epoch key now recurs normally
        assert system.sql(HOT_SQL).metrics.extra.get("result_cache_hits") == 1

    def test_degraded_answer_is_never_admitted(self):
        """Corrupt cache reads degrade splits to raw parsing; a degraded
        answer must not enter the result cache even though its rows
        happen to be correct."""
        faulty = FaultyFileSystem()
        system, _ = cached_result_system(fs=faulty)
        faulty.policy = FaultPolicy(corrupt_rate=1.0, seed=3)
        degraded = system.sql(HOT_SQL)
        assert degraded.metrics.extra.get("degraded_splits", 0) > 0
        assert "result_cache_admissions" not in degraded.metrics.extra
        assert system.session.result_cache_stats()["admissions"] == 0
        assert system.session.result_cache_stats()["entries"] == 0
        # the faults cleared: the healthy re-run is admitted again
        faulty.policy = FaultPolicy()
        healthy = system.sql(HOT_SQL)
        assert healthy.metrics.extra.get("degraded_splits", 0) == 0
        assert system.session.result_cache_stats()["admissions"] >= 0

    def test_explicit_invalidate(self, rc_session):
        rc_session.sql("select a from db.t")
        assert rc_session.result_cache_stats()["entries"] == 1
        rc_session.invalidate_result_cache()
        stats = rc_session.result_cache_stats()
        assert stats["entries"] == 0 and stats["invalidations"] == 1

    def test_cache_summary_reports_result_cache_and_ledger(self):
        system, _ = cached_result_system()
        system.sql(HOT_SQL)
        system.sql(HOT_SQL)
        summary = system.cache_summary()
        assert summary["result_cache"]["hits"] == 1
        ledger = summary["cache_ledger"]
        assert ledger["tiers"]["result"] > 0
        assert ledger["tiers"]["jsonpath"] > 0  # reported, not budgeted
        assert ledger["total_bytes"] >= ledger["tiers"]["result"]
