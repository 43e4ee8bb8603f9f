"""Shared environment for the paper-reproduction benchmarks.

Every bench regenerates one table or figure of the paper's evaluation
(§II motivation + §V). Because the substrate is a single-process simulator
rather than a 22-node cluster, absolute numbers differ from the paper;
the *shape* of each result (who wins, by roughly what factor, where the
crossovers fall) is the reproduction target. Each bench writes its series
to ``benchmarks/results/<name>.json`` so EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.jsonlib import JacksonParser, JsonParseError, evaluate, parse_path
from repro.storage import BlockFileSystem
from repro.workload import (
    SyntheticTrace,
    TraceConfig,
    build_queries,
    load_tables,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale knobs: the paper uses 20M rows/table on 22 nodes; the simulator
#: uses this many rows per Table II table (split over 3 daily files).
ROWS_PER_TABLE = 900
ROW_GROUP_SIZE = 100
METRIC_THRESHOLD = 9000  # Q2/Q9 predicate selectivity (~top decile)


def save_result(name: str, payload: dict) -> Path:
    """Persist one bench's series for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


class FullParseProjection:
    """``Session.projection_parser_factory`` adapter that deserialises the
    whole document on every ``get_json_object`` call and walks the tree:
    what the paper's "Spark" / Spark+Jackson bars mean by definition
    (and how the engine calls Mison, the bar they are compared with),
    now that the engine's own raw path projects."""

    def __init__(self) -> None:
        self.parser = JacksonParser()
        self.stats = self.parser.stats

    def project(self, text: str, paths) -> dict:
        try:
            document = self.parser.parse(text)
        except JsonParseError:
            return {parse_path(path).raw: None for path in paths}
        return {parse_path(path).raw: evaluate(path, document) for path in paths}


class BenchEnv:
    """Table II tables + the ten representative queries + a Maxson system."""

    def __init__(self) -> None:
        self.session = Session(fs=BlockFileSystem())
        self.factories = load_tables(
            self.session.catalog,
            rows_per_table=ROWS_PER_TABLE,
            days=3,
            row_group_size=ROW_GROUP_SIZE,
        )
        self.queries = build_queries(
            self.factories, metric_threshold=METRIC_THRESHOLD
        )
        self.system = MaxsonSystem(
            session=self.session,
            config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
        )
        self._record_history()
        self.candidates = self.system.collector.universe
        self.shapes = self.system.collector.shapes_between(0, 2)

    def _record_history(self) -> None:
        """Three days of history: each query fires twice per day (the
        spatial correlation that makes every queried path an MPJP)."""
        for query in self.queries.values():
            planned = self.session.compile(query.sql)
            for day in range(3):
                for _ in range(2):
                    self.system.collector.record_planned(
                        day, planned.referenced_json_paths
                    )
        self.system.current_day = 2

    # ------------------------------------------------------------------
    def total_candidate_bytes(self) -> int:
        """Bytes needed to cache every candidate MPJP (the '400GB' point)."""
        measured = self.system.scoring.measure_many(self.candidates)
        return sum(stats.estimated_total_bytes for stats in measured.values())

    def cache_with_budget(self, budget_bytes: int, strategy: str = "score"):
        """(Re)populate the cache under a byte budget."""
        return self.system.cache_paths_directly(
            self.candidates,
            budget_bytes=budget_bytes,
            strategy=strategy,
            shapes=self.shapes,
        )

    def drop_cache(self) -> None:
        self.system.cacher.drop_all()

    def run_all(self, use_maxson: bool) -> dict[str, object]:
        """Execute the ten queries; returns per-query metrics."""
        out: dict[str, object] = {}
        for query_id, query in self.queries.items():
            if use_maxson:
                result = self.system.sql(query.sql)
            else:
                result = self.system.baseline_sql(query.sql)
            out[query_id] = result
        return out


@pytest.fixture(scope="session")
def env() -> BenchEnv:
    return BenchEnv()


@pytest.fixture(scope="session")
def trace() -> SyntheticTrace:
    """The synthetic five-month-style trace used by the workload and
    predictor benches (scaled to stay minutes-fast)."""
    return SyntheticTrace(
        TraceConfig(days=42, users=24, tables=14, seed=11, burst_fraction=0.5)
    )


def once(benchmark, fn):
    """Run an expensive scenario exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
