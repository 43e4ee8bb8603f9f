"""Unit tests for the scoring function (A_j, R_j, O_j, Score_j)."""

import pytest

from repro.core import JsonPathCollector, QueryRecord, ScoringFunction
from repro.core.scoring import PathStats, ScoredPath
from repro.engine import Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey


@pytest.fixture
def scoring_session(session: Session) -> Session:
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = []
    for i in range(50):
        doc = {"small": i % 10, "big": "x" * 200, "nested": {"v": i}}
        rows.append((i, dumps(doc)))
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    return session


def key(path: str) -> PathKey:
    return PathKey("db", "t", "payload", path)


class TestMeasure:
    def test_small_vs_big_value_bytes(self, scoring_session):
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=20)
        small = scoring.measure(key("$.small"))
        big = scoring.measure(key("$.big"))
        assert big.avg_value_bytes > small.avg_value_bytes
        assert big.estimated_total_bytes > small.estimated_total_bytes

    def test_acceleration_per_byte_prefers_small_values(self, scoring_session):
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=20)
        small = scoring.measure(key("$.small"))
        big = scoring.measure(key("$.big"))
        # same document parse cost, far fewer bytes -> higher A_j
        assert small.acceleration_per_byte > big.acceleration_per_byte

    def test_missing_table(self, session):
        scoring = ScoringFunction(session.catalog)
        with pytest.raises(Exception):
            scoring.measure(PathKey("db", "ghost", "payload", "$.x"))

    def test_empty_table(self, session):
        schema = Schema.of(("payload", DataType.STRING),)
        session.catalog.create_table("db", "empty", schema)
        scoring = ScoringFunction(session.catalog)
        stats = scoring.measure(PathKey("db", "empty", "payload", "$.x"))
        assert stats.estimated_total_bytes == 0

    def test_measure_cached(self, scoring_session):
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=5)
        first = scoring.measure(key("$.small"))
        second = scoring.measure(key("$.small"))
        assert first is second

    def test_nested_value(self, scoring_session):
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=5)
        stats = scoring.measure(key("$.nested"))
        assert stats.avg_value_bytes > 0


class TestMeasureMany:
    PATHS = ("$.small", "$.big", "$.nested")

    def test_one_key_is_the_batch_of_one(self, scoring_session):
        batch = ScoringFunction(scoring_session.catalog, sample_rows=20)
        single = ScoringFunction(scoring_session.catalog, sample_rows=20)
        measured = batch.measure_many(key(p) for p in self.PATHS)
        for p in self.PATHS:
            alone = single.measure(key(p))
            assert measured[key(p)].avg_value_bytes == alone.avg_value_bytes
            assert measured[key(p)].estimated_total_bytes == alone.estimated_total_bytes
            assert batch.measure(key(p)) is measured[key(p)]

    def test_each_sampled_document_parsed_once_per_column(self, scoring_session):
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=20)
        scoring.measure_many(key(p) for p in self.PATHS)
        # 20 distinct documents through the extractor's JSON parser —
        # not 20 per path.
        assert scoring.last_measurement == {
            "paths_measured": 3,
            "documents_sampled": 20,
        }

    def test_each_path_is_charged_the_shared_parse_plus_its_evaluation(
        self, scoring_session, monkeypatch
    ):
        import itertools

        from repro.core import scoring as scoring_module

        # A clock that advances one "second" per reading, so a timed
        # region lasts as long as the clock readings inside it.
        ticks = itertools.count()
        monkeypatch.setattr(
            scoring_module.time, "perf_counter", lambda: float(next(ticks))
        )
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=20)
        measured = scoring.measure_many(key(p) for p in self.PATHS)
        alone = ScoringFunction(scoring_session.catalog, sample_rows=20).measure(
            key("$.big")
        )
        # Per document: the parse all three share + one evaluation of its
        # own — what the path is charged when it is measured alone.
        assert {s.avg_parse_seconds for s in measured.values()} == {
            alone.avg_parse_seconds
        }
        assert alone.avg_parse_seconds >= 2.0

    def test_parse_clock_excludes_storage(self):
        """P_j is decode + evaluate: neither read latency nor the number
        of files the table has may show in it."""
        session = Session(fs=BlockFileSystem(read_latency_seconds=0.02))
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "t", schema)
        for part in range(5):
            rows = [(i, dumps({"small": i})) for i in range(part * 10, part * 10 + 10)]
            session.catalog.append_rows("db", "t", rows)
        scoring = ScoringFunction(session.catalog, sample_rows=10)
        stats = scoring.measure(key("$.small"))
        assert stats.estimated_total_bytes == 8 * 50  # all five files counted
        assert stats.avg_parse_seconds < 0.002  # parent: 5 reads x 20 ms / 10

    def test_appended_partition_is_charged(self, scoring_session):
        """The memo lives as long as the table stands still: after an
        append the next score() charges the budget for the larger table."""
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=20)
        shapes = {(key("$.big"),): 2}
        (before,) = scoring.score({key("$.big")}, shapes)
        (again,) = scoring.score({key("$.big")}, shapes)
        assert again.stats is before.stats
        assert scoring.last_measurement["paths_measured"] == 0
        rows = [(i, dumps({"big": "x" * 200})) for i in range(50, 100)]
        scoring_session.catalog.append_rows("db", "t", rows, row_group_size=10)
        (after,) = scoring.score({key("$.big")}, shapes)
        assert after.budget_bytes() == 2 * before.budget_bytes()
        assert scoring.last_measurement["paths_measured"] == 1


class TestRelevanceOccurrence:
    def test_equation_2(self):
        a, b, c = key("$.a"), key("$.b"), key("$.c")
        mpjp = {a, b}
        records = [
            QueryRecord(0, (a, b)),        # M=2 N=2
            QueryRecord(0, (a, c)),        # M=1 N=2
            QueryRecord(0, (b, c)),        # does not touch a
        ]
        relevance, occurrences = ScoringFunction.relevance_and_occurrence(
            a, mpjp, records
        )
        assert occurrences == 2
        assert relevance == (2 + 1) / (2 + 2)

    def test_no_touching_queries(self):
        a = key("$.a")
        relevance, occurrences = ScoringFunction.relevance_and_occurrence(
            a, {a}, []
        )
        assert (relevance, occurrences) == (0.0, 0)

    def test_fully_cacheable_query_maximises_relevance(self):
        a, b = key("$.a"), key("$.b")
        records = [QueryRecord(0, (a, b))]
        relevance, _ = ScoringFunction.relevance_and_occurrence(
            a, {a, b}, records
        )
        assert relevance == 1.0


class TestScoreAndSelect:
    def _scored(self, score, total_bytes, path="$.x"):
        stats = PathStats(
            key=key(path),
            avg_value_bytes=1.0,
            avg_parse_seconds=1.0,
            estimated_total_bytes=total_bytes,
        )
        return ScoredPath(
            key=key(path), stats=stats, relevance=1.0, occurrences=1, score=score
        )

    def test_score_ordering(self, scoring_session):
        scoring = ScoringFunction(scoring_session.catalog, sample_rows=10)
        a, b = key("$.small"), key("$.big")
        scored = scoring.score({a, b}, {(a,): 2, (a, b): 1})
        assert scored[0].key == a  # higher A and O
        assert scored[0].score >= scored[-1].score

    def test_budget_selection_greedy(self):
        scored = [
            self._scored(10.0, 60, "$.a"),
            self._scored(5.0, 60, "$.b"),
            self._scored(1.0, 30, "$.c"),
        ]
        chosen = ScoringFunction.select_within_budget(None, scored, 100)
        # a (60) fits; b (60) does not (40 left); c (30) fits
        assert [c.key.path for c in chosen] == ["$.a", "$.c"]

    def test_budget_zero(self):
        scored = [self._scored(1.0, 10)]
        assert ScoringFunction.select_within_budget(None, scored, 0) == []

    def test_budget_fits_all(self):
        scored = [self._scored(1.0, 10, f"$.p{i}") for i in range(3)]
        chosen = ScoringFunction.select_within_budget(None, scored, 1000)
        assert len(chosen) == 3

    def test_random_selection_respects_budget(self):
        scored = [self._scored(1.0, 40, f"$.p{i}") for i in range(10)]
        chosen = ScoringFunction.random_selection(scored, 100, seed=1)
        assert sum(c.budget_bytes() for c in chosen) <= 100
        assert len(chosen) == 2

    def test_random_selection_deterministic_per_seed(self):
        scored = [self._scored(float(i), 40, f"$.p{i}") for i in range(10)]
        a = ScoringFunction.random_selection(scored, 120, seed=5)
        b = ScoringFunction.random_selection(scored, 120, seed=5)
        assert [x.key for x in a] == [x.key for x in b]
