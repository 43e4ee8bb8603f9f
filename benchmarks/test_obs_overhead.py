"""Observability overhead: tracing off must cost (near) nothing.

The obs design makes the disabled path *structurally* free:
instrumentation is a plan rewrite applied only when a query carries a
tracer, so an untraced query executes the bare operator objects. This
bench pins that contract two ways:

1. structurally — an untraced plan contains no ``TracedExec`` wrapper
   and the result carries no trace;
2. by measurement — two interleaved series of the same untraced
   workload, each query timed against the calibration kernels around it
   (``bench/estimators.py::run_calibrated``), agree within the 3% budget
   the acceptance criterion allows plus what the run's own A/A spread
   explains (the untraced path *is* the baseline, so any gap is noise,
   and a noisy host must widen the margin, not fail the gate).

It also measures what tracing costs when it is *on*: the traced run
executes the same plan as the untraced one (morsel pipeline, same
splits) with its nodes wrapped, so the ratio is tracing on vs off and
nothing else.
"""

from __future__ import annotations

import statistics
import time

import pytest

from bench.estimators import quartile_spread, run_calibrated

from repro.engine import Session
from repro.obs import Tracer
from repro.obs.instrument import TracedExec

from .conftest import once, save_result
from .test_duplicate_paths import N_ROWS, SQL, build_session  # the same workload

REPEATS = 7
OVERHEAD_BUDGET = 1.03  # the acceptance criterion's < 3%


def calibrated_series(session: Session, rounds: int = 2 * REPEATS):
    """Normalised seconds of ``rounds`` runs each of the bench query
    untraced (``a``), untraced again (``b``) and ``traced``, interleaved so
    host drift and cache warming hit every series equally."""

    def execute(label: str):
        result = session.sql(SQL, tracer=Tracer() if label == "traced" else None)
        assert len(result.rows) == N_ROWS

    series: dict[str, list[float]] = {"a": [], "b": [], "traced": []}
    results, _ = run_calibrated(list(series) * rounds, execute)
    for label, latency, outcome, scale in results:
        if isinstance(outcome, Exception):
            raise outcome
        series[label].append(latency * scale)
    return series


def test_tracing_off_is_structurally_free():
    session = build_session()
    planned, _state, _mode = session._prepare(SQL)
    nodes = [planned.physical]
    seen = []
    while nodes:
        node = nodes.pop()
        seen.append(node)
        nodes.extend(node.children())
    assert not any(isinstance(node, TracedExec) for node in seen)
    assert session.sql(SQL).trace is None


def test_tracing_off_overhead(benchmark):
    session = build_session()
    calibrated_series(session, rounds=1)  # warm the page cache / code paths

    series = once(benchmark, lambda: calibrated_series(session))
    first, second, traced = (statistics.median(series[k]) for k in series)
    aa_ratio = max(first, second) / min(first, second)
    # Two standard errors of a difference of medians, from the spread the
    # two untraced series themselves show: 2 x sqrt(2) x 1.2533 / 1.349.
    spread = quartile_spread(series["a"] + series["b"])
    margin = 2.63 * spread / len(series["a"]) ** 0.5
    traced_ratio = traced / min(first, second)
    payload = {
        "untraced_median_seconds_a": first,
        "untraced_median_seconds_b": second,
        "aa_noise_ratio": aa_ratio,
        "aa_quartile_spread": spread,
        "aa_margin": margin,
        "traced_median_seconds": traced,
        "tracing_on_overhead_ratio": traced_ratio,
        "overhead_budget": OVERHEAD_BUDGET,
        "contract": (
            "untraced plans contain no instrumentation nodes; seconds are "
            "normalised by the calibration kernels around each query; the "
            "A/A ratio stays inside the 3% budget plus two standard errors "
            "of the run's own A/A spread; tracing_on_overhead_ratio is "
            "traced vs untraced on the same plan (the served morsel "
            "pipeline with its nodes wrapped), gated at <= 2.0"
        ),
    }
    save_result("obs_overhead_summary", payload)
    assert aa_ratio <= OVERHEAD_BUDGET + margin, payload
    # Tracing *on* is allowed to cost something, but a blowup here means
    # the per-operator snapshots regressed badly.
    assert traced_ratio <= 2.0, payload


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_system_tables_overhead(benchmark, backend):
    """The telemetry store enabled (traced off) must cost < 3% per query.

    One server, system tables on, same untraced workload — interleaved
    A/B where B detaches the store between iterations, so every query
    pays identical admission/caching/scan costs and the only delta is
    the per-outcome NDJSON append. The result cache is disabled so the
    repeat queries do real work; a cached hit would shrink the
    denominator to microseconds and gate on noise.
    """
    from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
    from repro.server import MaxsonServer, ServerConfig

    session = build_session()
    session.scan_workers = 2
    session.worker_backend = backend
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="always")),
    )
    config = ServerConfig(
        max_workers=2, system_tables=True, result_cache=False
    )
    server = MaxsonServer(system, config)
    try:
        store = server.telemetry
        assert store is not None
        for _ in range(3):  # warm both pools and the page cache
            assert len(server.execute(SQL).rows) == N_ROWS

        def series():
            # ABBA blocks (on, off, off, on): within a block the clock
            # drift and GC phase hit both sides symmetrically, so the
            # paired per-block difference cancels order bias. Scheduler
            # jitter dominates single iterations, so the gate takes the
            # smaller of two estimators — best-of and paired-median —
            # which noise rarely inflates together.
            import statistics

            pattern = (store, None, None, store)
            best = {True: float("inf"), False: float("inf")}
            diffs, off_samples = [], []
            for _block in range(REPEATS):
                t = []
                for active in pattern:
                    server.telemetry = active
                    started = time.perf_counter()
                    result = server.execute(SQL)
                    t.append(time.perf_counter() - started)
                    assert len(result.rows) == N_ROWS
                best[True] = min(best[True], t[0], t[3])
                best[False] = min(best[False], t[1], t[2])
                diffs.append(((t[0] + t[3]) - (t[1] + t[2])) / 2)
                off_samples.extend((t[1], t[2]))
            server.telemetry = store
            paired = 1 + statistics.median(diffs) / statistics.median(
                off_samples
            )
            return best[True], best[False], paired

        with_store, without_store, paired_ratio = once(benchmark, series)
        best_ratio = with_store / without_store
        ratio = min(best_ratio, paired_ratio)
        payload = {
            "backend": backend,
            "with_store_best_seconds": with_store,
            "without_store_best_seconds": without_store,
            "best_of_overhead_ratio": best_ratio,
            "paired_median_overhead_ratio": paired_ratio,
            "overhead_ratio": ratio,
            "overhead_budget": OVERHEAD_BUDGET,
            "queries_recorded": store.snapshot()["events"]["queries"],
        }
        save_result(f"systables_overhead_{backend}", payload)
        assert ratio <= OVERHEAD_BUDGET, payload
    finally:
        server.shutdown()
