"""Self-tests of the benchmark harness.

Not part of tier-1 (``testpaths = ["tests"]``); run with

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bench import estimators, spec  # noqa: E402
from bench.trace import SpanRecorder, self_times  # noqa: E402
from bench.workloads import WORKLOADS, StepTimer, digest  # noqa: E402


# -- normalised-median estimator ------------------------------------------
def test_normalise_scales_by_reference_over_calibration():
    slow = 2.0 * estimators.REFERENCE_CAL_MS
    assert estimators.normalise(1.0, slow) == pytest.approx(0.5)
    assert estimators.normalise(1.0, estimators.REFERENCE_CAL_MS) == pytest.approx(1.0)


def test_run_ticked_takes_its_own_kernels_out_of_the_reading():
    import signal
    import time

    def busy():
        deadline = time.perf_counter() + 0.06
        while time.perf_counter() < deadline:
            pass
        return "done"

    result, clocked, norm, samples = estimators.run_ticked(busy)
    assert result == "done"
    assert len(samples) >= 2 + 3  # before, after, and a tick every 10 ms
    assert clocked == pytest.approx(0.06 - sum(samples[1:-1]) / 1000.0, abs=0.003)
    assert norm == pytest.approx(
        statistics.fmean(estimators.normalise(clocked, k) for k in samples))
    # the timer is off and the handler is back: nothing fires afterwards
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    with pytest.raises(ZeroDivisionError):
        estimators.run_ticked(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_normalised_median_ignores_host_speed_and_outliers():
    # Ten batches of the same 0.2 s of work on a host whose speed drifts
    # 1×..2×, one batch hit by a stall: the normalised median is the work.
    speeds = [1.0, 1.1, 1.3, 1.6, 2.0, 1.8, 1.5, 1.2, 1.0, 1.4]
    clocked = [0.2 * s for s in speeds]
    clocked[4] += 1.0
    normalised = [
        estimators.normalise(t, estimators.REFERENCE_CAL_MS * s)
        for t, s in zip(clocked, speeds)
    ]
    assert statistics.median(normalised) == pytest.approx(0.2)
    assert statistics.median(clocked) > 0.25


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert estimators.percentile(values, 0.95) == 95
    assert estimators.percentile(values, 0.5) == 50
    assert estimators.percentile([7.0], 0.95) == 7.0


def test_geomean_and_quartile_spread():
    assert estimators.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert estimators.quartile_spread([10.0] * 10) == 0.0
    with pytest.raises(ValueError):
        estimators.geomean([1.0, 0.0])


def test_calibration_kernel_is_deterministic_work():
    assert estimators._parse(estimators._DOCUMENT, 0)[0] == json.loads(estimators._DOCUMENT)
    assert estimators._kernel(3) == estimators._kernel(3)
    assert estimators.calibrate_ms() > 0.0


def test_run_calibrated_scales_each_stretch_by_the_kernels_around_it(monkeypatch):
    # The host halves its speed after the second request: kernels and
    # requests both take twice as long, the normalised latencies agree.
    unit = estimators.REFERENCE_CAL_MS
    kernels = iter([unit, unit, 2 * unit, 2 * unit])
    monkeypatch.setattr(estimators, "calibrate_ms", lambda recorder=None: next(kernels))
    monkeypatch.setattr(estimators, "STRETCH_SECONDS", 0.0)  # a kernel after every request
    clock = iter([0.0, 0.010, 1.0, 1.015, 2.0, 2.020])
    monkeypatch.setattr(estimators.time, "perf_counter", lambda: next(clock))

    def execute(request):
        if request == "boom":
            raise RuntimeError("shed")
        return request.upper()

    results, calibrations = estimators.run_calibrated(["a", "boom", "c"], execute)
    assert calibrations == [unit, unit, 2 * unit, 2 * unit]
    assert [r[2] for r in results[::2]] == ["A", "C"]
    assert isinstance(results[1][2], RuntimeError)  # a result, not a crash
    normalised = [latency * scale for _, latency, _, scale in results]
    assert normalised == pytest.approx([0.010, 0.010, 0.010])


# -- percentile-rank ownership --------------------------------------------
def test_percentile_owner_reports_margin_inside_band():
    counts = {"fast": 90, "slow": 10}
    owner, margin = estimators.percentile_owner(counts, ["fast", "slow"], 0.95)
    assert owner == "slow" and margin == pytest.approx(5.0)
    # The replay driver's 1/(rank+1) popularity puts 34 % + 17 % = 51 %
    # under p50: one point from an edge — the layout the benchmark avoids.
    counts = {"a": 34, "b": 17, "c": 49}
    owner, margin = estimators.percentile_owner(counts, ["a", "b", "c"], 0.50)
    assert owner == "b" and margin == pytest.approx(1.0)


@pytest.mark.parametrize(
    "sizes, slowest_first",
    [
        (spec.NIGHTLY_CYCLE["day_histogram"], ["Q5", "Q2"]),
        (
            {
                **spec.CLUSTER_REPLAY["recurring_per_batch"],
                **{f"{q}-adhoc": n for q, n in spec.CLUSTER_REPLAY["adhoc_per_batch"].items()},
            },
            ["Q5-adhoc", "Q8-adhoc"],
        ),
    ],
)
def test_frozen_histograms_keep_p95_inside_one_class(sizes, slowest_first):
    order = [c for c in sizes if c not in slowest_first] + slowest_first[::-1]
    owner, margin = estimators.percentile_owner(dict(sizes), order, 0.95)
    assert owner in slowest_first
    assert margin >= 3.0


# -- stratified batch builder ---------------------------------------------
@pytest.mark.parametrize("name", ["raw_parse", "cached_hot", "nightly_cycle"])
def test_batches_hold_the_same_histogram_for_any_seed(name, monkeypatch):
    monkeypatch.setitem(getattr(spec, name.upper()), "rows_per_table", 6)
    histograms = set()
    orders = set()
    for seed in (1, 2, 3):
        workload = WORKLOADS[name](seed)
        workload.generate()
        for index in (0, 1, 7):
            batch = workload.batch(index)
            counts: dict[str, int] = {}
            for request in batch:
                counts[request.cls] = counts.get(request.cls, 0) + 1
            assert counts == workload.histogram()
            histograms.add(tuple(sorted(counts.items())))
            orders.add(tuple(r.cls for r in batch))
        again = WORKLOADS[name](seed)
        again.generate()
        assert [r.sql for r in again.batch(3)] == [r.sql for r in workload.batch(3)]
    assert len(histograms) == 1
    assert len(orders) > 1  # the seed and the index do shuffle the order


def test_seed_moves_the_data_but_not_its_shape(monkeypatch):
    monkeypatch.setitem(spec.RAW_PARSE, "rows_per_table", 6)
    a, b = WORKLOADS["raw_parse"](1), WORKLOADS["raw_parse"](2)
    a.generate()
    b.generate()
    assert a.tables.files["Q1"][0][0][2] != b.tables.files["Q1"][0][0][2]
    # the stdlib serialiser writes what the program's own would
    from repro.jsonlib.jackson import dumps

    factory = a.tables.factories["Q3"]
    assert factory.json(1) == dumps(factory.document(1)) == a.tables.files["Q3"][0][1][2]
    assert a.tables.user_bytes == pytest.approx(b.tables.user_bytes, rel=0.01)
    assert a.thresholds != b.thresholds


def test_digest_ignores_row_order_only():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    assert digest(rows) == digest(rows[::-1])
    assert digest(rows) != digest([{"a": 1, "b": "x"}, {"a": 2, "b": "z"}])


def test_step_timer_sums_normalised_steps_by_group():
    steps = StepTimer()
    assert steps.step("load_tables", lambda: 41 + 1) == 42
    steps.step("warmup", sum, [1, 2, 3])
    steps.requests("warmup", str.upper, ["a", "b"])
    assert [s[0] for s in steps.steps] == ["load_tables", "warmup", "warmup"]
    assert steps.total() == pytest.approx(sum(steps.by_group().values()))
    assert len(steps.calibrations) >= 4 + 2
    with pytest.raises(ZeroDivisionError):  # a failed set-up request is a failed set-up
        steps.requests("warmup", lambda r: 1 / r, [1, 0])


# -- fixed work and what the estimators rest on ----------------------------
def test_a_run_is_a_fixed_number_of_batches():
    from bench.run import batch_count

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    for cls in WORKLOADS.values():
        full = batch_count(cls(1), seconds, trace=False)
        assert full >= spec.MIN_BATCHES
        assert full == max(spec.MIN_BATCHES, round(seconds / cls.sizes["batch_seconds"]))
        assert batch_count(cls(1), seconds, trace=True) == full // 2
        # every class of every batch is timed once per batch
        histogram = cls.sizes.get("day_histogram") or {"any": cls.sizes.get("passes_per_batch", 1)}
        assert full * min(histogram.values()) >= spec.MIN_CLASS_SAMPLES
    assert batch_count(WORKLOADS["raw_parse"](1), 1.0, trace=False) == spec.MIN_BATCHES


def test_a_run_fails_when_its_samples_are_too_few():
    from bench.run import sample_problems

    notes = {"batches": 40, "min_class_samples": 40, "latency_samples": 400,
             "samples_beyond_p95": 20, "p95_margin_points": 3.0}
    assert sample_problems(notes) == []
    problems = sample_problems({**notes, "min_class_samples": 24, "p95_margin_points": 2.0})
    assert len(problems) == 2 and "min_class_samples=24" in problems[0]


def test_a_count_that_is_not_reported_is_not_a_zero():
    from bench.run import ratio

    assert ratio(0, 10) == 0.0  # counted, and none of it
    assert ratio(None, 10) is None  # the envelope does not carry it
    assert ratio(0, 0) is None  # nothing was counted


# -- span self-time arithmetic --------------------------------------------
def test_self_time_is_duration_minus_child_cover():
    root = ["bench.batch", 0.0, 10.0, None, ""]
    request = ["bench.request", 1.0, 9.0, root, "q"]
    query = ["engine.query", 2.0, 8.0, request, "q"]
    parse_a = ["jsonlib.parse", 3.0, 4.0, query, "q"]
    parse_b = ["jsonlib.parse", 5.0, 7.0, query, "q"]
    selfs = self_times([root, request, query, parse_a, parse_b])
    assert selfs == {
        "bench.batch": 2.0,
        "bench.request": 2.0,
        "engine.query": 3.0,
        "jsonlib.parse": 3.0,
    }
    assert sum(selfs.values()) == pytest.approx(root[2] - root[1])


def test_self_time_unions_overlapping_children_and_clips_them():
    parent = ["server.execute", 0.0, 10.0, None, ""]
    first = ["engine.query", 1.0, 6.0, parent, ""]
    overlapping = ["engine.query", 4.0, 8.0, parent, ""]
    overhang = ["engine.query", 9.0, 12.0, parent, ""]
    selfs = self_times([parent, first, overlapping, overhang])
    assert selfs["server.execute"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_wraps_and_restores_boundaries():
    from repro.jsonlib.jackson import JacksonParser

    original = JacksonParser.__dict__["parse"]
    recorder = SpanRecorder()
    recorder.install(["jsonlib.parse"])
    try:
        batch = recorder.begin("bench.batch")
        request = recorder.begin_request("q0")
        assert JacksonParser().parse('{"a": [1, 2]}') == {"a": [1, 2]}
        recorder.end_request(request)
        recorder.end(batch)
    finally:
        recorder.uninstall()
    assert JacksonParser.__dict__["parse"] is original
    names = [s[0] for s in recorder.spans]
    assert names == ["bench.batch", "bench.request", "jsonlib.parse"]
    assert recorder.spans[2][3] is recorder.spans[1]
    assert recorder.spans[2][4] == "q0"


# -- nothing outlives a run -------------------------------------------------
LEAKY_RUN = """
import multiprocessing, subprocess, sys, time
sys.path.insert(0, {root!r})
from bench import run

def idle():
    time.sleep(60)

if __name__ == "__main__":
    run.CHILD_GRACE_S = 0.3
    run.adopt_orphans()
    # a child that ignores SIGTERM and leaves a grandchild behind
    subprocess.Popen([sys.executable, "-c",
        "import signal, subprocess, sys, time;"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN);"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']);"
        "time.sleep(60)"])
    # a spawned child, which brings multiprocessing's resource tracker
    multiprocessing.get_context("spawn").Process(target=idle, daemon=True).start()
    time.sleep(0.5)
    before = len(run.children())
    run.stop_children()
    print(before, len(run.children()))
"""


def test_stop_children_waits_for_every_process_the_run_started(tmp_path):
    script = tmp_path / "leaky_run.py"
    script.write_text(LEAKY_RUN.format(root=str(ROOT)), encoding="utf-8")
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=60, check=False)
    assert done.returncode == 0, done.stderr[-3000:]
    before, after = map(int, done.stdout.split())
    assert before >= 3  # the stubborn child, the spawned one, the tracker
    assert after == 0


# -- the command, end to end ----------------------------------------------
def test_smoke_runs_all_four_workloads_and_the_oracle():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = [
        json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')
    ]
    assert len(results) == 8  # four workloads × (untraced, traced)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    expected = [
        {m["name"] for m in benchmark[kind]} for kind in ("end_to_end", "per_layer")
    ]
    for index, result in enumerate(results):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == expected[index % 2]
