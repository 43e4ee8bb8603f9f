"""ScoringFunction.score ≡ the per-key Eq. 2 reference, over generated logs.

``score`` takes R_j/O_j for every candidate from one pass over the
collector's shape counts; ``relevance_and_occurrence`` is the paper's
definition, one key at a time over one record per query. They must agree
field for field and in order — the sums are integers, so "agree" is
``==``, not a tolerance. This module checks that on a seeded generator
(repeated keys inside a query, queries touching no candidate, candidates
no query touches, empty windows, candidates across columns and tables),
through a :class:`StatsStore` round trip in both partition layouts, under
concurrent ingestion, and with a guard on *how much* ``score`` compares.

``run_differential(cases)`` is the whole seeded run; tier-1 calls it with
``CASES``, CI's bench-smoke step with ten times that.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest

from repro.core import (
    JsonPathCollector,
    META_DATABASE,
    QueryRecord,
    ScoringFunction,
    StatsStore,
)
from repro.core.scoring import ScoredPath
from repro.engine import Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

CASES = 2000

#: Keys over tables that exist (candidates must be measurable) ...
MEASURABLE = [
    PathKey("db", table, column, path)
    for table, column in (("t", "payload"), ("t", "extra"), ("u", "payload"))
    for path in ("$.a", "$.b", "$.n.v", "$.s")
]
#: ... and keys a query may parse but the cache never holds.
UNMEASURABLE = [PathKey("db", "ghost", "payload", p) for p in ("$.a", "$.b")]


def build_session() -> Session:
    session = Session(fs=BlockFileSystem())

    def document(i: int) -> str:
        return dumps({"a": i, "b": f"b{i}", "n": {"v": i % 3}, "s": "x" * i})

    session.catalog.create_table(
        "db",
        "t",
        Schema.of(("payload", DataType.STRING), ("extra", DataType.STRING)),
    )
    session.catalog.create_table("db", "u", Schema.of(("payload", DataType.STRING)))
    for part in range(2):
        rows = range(part * 8, part * 8 + 8)
        session.catalog.append_rows("db", "t", [(document(i), document(i + 1)) for i in rows])
        session.catalog.append_rows("db", "u", [(document(2 * i),) for i in rows])
    return session


@pytest.fixture(scope="module")
def scoring() -> ScoringFunction:
    return ScoringFunction(build_session().catalog, sample_rows=8)


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def reference(scoring: ScoringFunction, mpjp_set, records) -> list[ScoredPath]:
    """``score`` as it was defined: Eq. 2 per key over one record per query."""
    out = []
    for key in sorted(mpjp_set):
        stats = scoring.measure(key)
        relevance, occurrences = ScoringFunction.relevance_and_occurrence(
            key, mpjp_set, records
        )
        score = stats.acceleration_per_byte * relevance * occurrences
        out.append(ScoredPath(key, stats, relevance, occurrences, score))
    out.sort(key=lambda sp: (-sp.score, sp.key))
    return out


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
def generate(rng: random.Random):
    """(arrivals as (day, paths), candidate set, first day, last day)."""
    universe = MEASURABLE + UNMEASURABLE
    candidates = set(rng.sample(MEASURABLE, rng.randrange(len(MEASURABLE) + 1)))
    shapes = []
    for _ in range(rng.randrange(1, 7)):
        paths = rng.choices(universe, k=rng.randrange(0, 6))
        if paths and rng.random() < 0.4:  # the same key twice in one query
            paths.insert(rng.randrange(len(paths) + 1), rng.choice(paths))
        shapes.append(tuple(paths))
    arrivals = [
        (rng.randrange(10), rng.choice(shapes)) for _ in range(rng.randrange(0, 60))
    ]
    first = rng.randrange(10)
    last = rng.randrange(first - 1, 10)  # first - 1: an empty window
    return arrivals, candidates, first, last


def check(scoring: ScoringFunction, arrivals, candidates, first, last) -> dict:
    collector = JsonPathCollector()
    for day, paths in arrivals:
        collector.record_query(day, paths)
    window = [QueryRecord(d, paths) for d, paths in arrivals if first <= d <= last]
    expected = reference(scoring, candidates, window)
    shapes = collector.shapes_between(first, last)
    assert scoring.score(candidates, shapes) == expected
    # The record view expands exactly what was counted.
    expanded = collector.queries_between(first, last)
    assert Counter(r.paths for r in expanded) == shapes == Counter(r.paths for r in window)
    assert Counter(r.day for r in expanded) == Counter(r.day for r in window)
    touched = {key for record in window for key in record.paths}
    return {
        "empty_window": not window,
        "repeated_key": any(len(set(r.paths)) < len(r.paths) for r in window),
        "untouched_candidate": bool(candidates - touched),
        "record_without_candidate": any(
            not candidates.intersection(r.paths) for r in window
        ),
        "multi_table": len({(k.table, k.column) for k in candidates}) > 1,
    }


def run_differential(cases: int, seed: int = 20200420) -> Counter:
    """Check ``cases`` generated logs; return how many had each property
    the generator is meant to produce, so one that drifted is visible."""
    rng = random.Random(seed)
    scoring = ScoringFunction(build_session().catalog, sample_rows=8)
    tally: Counter = Counter()
    for _ in range(cases):
        tally.update(k for k, hit in check(scoring, *generate(rng)).items() if hit)
    return tally


def test_seeded_differential():
    tally = run_differential(CASES)
    for kind in (
        "empty_window",
        "repeated_key",
        "untouched_candidate",
        "record_without_candidate",
        "multi_table",
    ):
        assert tally[kind] > CASES // 20, tally


def test_named_edge_cases(scoring):
    a, b, other = MEASURABLE[0], MEASURABLE[1], MEASURABLE[8]
    ghost = UNMEASURABLE[0]
    for arrivals, candidates in (
        ([], {a}),  # nothing collected
        ([(0, (a, b))], set()),  # nothing to score
        ([(0, (a, a, a))], {a}),  # one key, three parses, one query
        ([(0, (a, ghost)), (0, (ghost,)), (1, (a, ghost))], {a, b}),
        ([(0, ())], {a}),  # a query that parses no JSON
        ([(0, (a, other))] * 5 + [(1, (other, a))] * 5, {a, other}),  # order is shape
    ):
        check(scoring, arrivals, candidates, 0, 9)


# ----------------------------------------------------------------------
# persistence round trip, both layouts
# ----------------------------------------------------------------------
def generated_collector(seed: int):
    rng = random.Random(seed)
    arrivals, candidates, _, _ = generate(rng)
    while len(arrivals) < 20 or not candidates:
        arrivals, candidates, _, _ = generate(rng)
    collector = JsonPathCollector()
    for day, paths in arrivals:
        if paths:  # a query without paths leaves no row to persist
            collector.record_query(day, paths)
    return collector, candidates


def assert_same_statistics(scoring, loaded, original, candidates):
    assert loaded.days == original.days
    for day in original.days:
        assert loaded.shapes_between(day, day) == original.shapes_between(day, day)
        assert loaded.counts_on(day) == original.counts_on(day)
        assert loaded.mpjp_on(day) == original.mpjp_on(day)
    assert scoring.score(candidates, loaded.shapes_between(0, 9)) == scoring.score(
        candidates, original.shapes_between(0, 9)
    )


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_preserves_shape_counts_and_scores(scoring, seed):
    collector, candidates = generated_collector(seed)
    store = StatsStore(build_session().catalog)
    store.save_all(collector)
    assert store.verify(collector)
    assert_same_statistics(scoring, store.load(), collector, candidates)


def save_in_parent_layout(catalog, collector, days) -> None:
    """``maxson_meta.query_paths`` as the commits before the shape log
    wrote it: one row per (day, query, path), one partition per day."""
    schema = Schema.of(
        ("day", DataType.INT64),
        ("query_seq", DataType.INT64),
        ("database", DataType.STRING),
        ("table_name", DataType.STRING),
        ("column_name", DataType.STRING),
        ("path", DataType.STRING),
    )
    catalog.create_table(META_DATABASE, "query_paths", schema)
    for day in days:
        rows = [
            (day, seq, key.database, key.table, key.column, key.path)
            for seq, record in enumerate(collector.queries_on(day))
            for key in record.paths
        ]
        catalog.append_rows(META_DATABASE, "query_paths", rows)


@pytest.mark.parametrize("seed", range(5))
def test_loads_partitions_written_in_the_parent_layout(scoring, seed):
    """A warehouse whose early days were saved one row per query and
    whose later days are saved as shape × count loads as one history."""
    collector, candidates = generated_collector(seed)
    catalog = build_session().catalog
    old_days = collector.days[: len(collector.days) // 2]
    save_in_parent_layout(catalog, collector, old_days)
    store = StatsStore(catalog)
    for day in collector.days:
        if day not in old_days:
            store.save_day(collector, day)
    assert_same_statistics(scoring, store.load(), collector, candidates)


# ----------------------------------------------------------------------
# concurrent ingestion
# ----------------------------------------------------------------------
def test_concurrent_record_query_loses_no_count():
    a, b, c = MEASURABLE[:3]
    shapes = [(a,), (a, b), (b, a), (c, c)]
    threads_n, rounds = 8, 300
    collector = JsonPathCollector()
    start = threading.Barrier(threads_n)

    def ingest(index: int) -> None:
        start.wait(timeout=30)
        for i in range(rounds):
            collector.record_query(i % 2, shapes[(index + i) % len(shapes)])

    threads = [threading.Thread(target=ingest, args=(i,)) for i in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = Counter(
        shapes[(index + i) % len(shapes)]
        for index in range(threads_n)
        for i in range(rounds)
    )
    assert collector.shapes_between(0, 1) == expected
    assert sum(collector.counts_on(0).values()) + sum(
        collector.counts_on(1).values()
    ) == sum(len(shape) * count for shape, count in expected.items())
    assert len(collector.queries_between(0, 1)) == threads_n * rounds


# ----------------------------------------------------------------------
# complexity guard: counts, not wall time
# ----------------------------------------------------------------------
class CountingKey(PathKey):
    """A PathKey that counts how often it is hashed or compared."""

    operations = 0

    def __hash__(self) -> int:
        CountingKey.operations += 1
        return PathKey.__hash__(self)

    def __eq__(self, other) -> bool:
        CountingKey.operations += 1
        return PathKey.__eq__(self, other)


def operations_of(fn) -> int:
    CountingKey.operations = 0
    fn()
    return CountingKey.operations


def test_score_does_not_walk_the_log_per_candidate(scoring):
    keys = [CountingKey(k.database, k.table, k.column, k.path) for k in MEASURABLE]
    candidates = set(keys[:8])
    shapes = [tuple(keys[i : i + 4]) for i in range(0, 12, 2)]
    once, twice = JsonPathCollector(), JsonPathCollector()
    for i in range(120):
        once.record_query(i % 7, shapes[i % len(shapes)])
        for _ in range(2):
            twice.record_query(i % 7, shapes[i % len(shapes)])
    log, doubled = once.shapes_between(0, 6), twice.shapes_between(0, 6)
    scoring.score(candidates, log)  # first measurement out of the way

    single = operations_of(lambda: scoring.score(candidates, log))
    double = operations_of(lambda: scoring.score(candidates, doubled))
    assert single == double
    # A handful of set/dict operations per path of each distinct shape and
    # per candidate — nowhere near candidates × records.
    assert single <= 6 * (sum(len(s) for s in shapes) + len(candidates))

    # The guard is sensitive: the per-key reference does pay per record.
    records = once.queries_between(0, 6)
    per_key = operations_of(lambda: reference(scoring, candidates, records))
    per_key_doubled = operations_of(
        lambda: reference(scoring, candidates, twice.queries_between(0, 6))
    )
    assert per_key > 10 * single and per_key_doubled > 1.8 * per_key
    by_key = {sp.key: sp for sp in scoring.score(candidates, doubled)}
    for sp in scoring.score(candidates, log):
        assert by_key[sp.key].occurrences == 2 * sp.occurrences
        assert by_key[sp.key].relevance == sp.relevance
