"""The benchmark command.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

sets the workload up (``SETUP_REPEATS`` times with ``--trace 0``), runs a
fixed number of identical batches — as many as take ``S`` seconds at
reference speed, never fewer than ``MIN_BATCHES`` — checks every result
against the plain engine and prints the metrics; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off; ``--trace 1`` runs half as many batches,
alternately untraced and traced, adds the direct layer probes, and the
metrics are the per-layer ledger.

Without ``--workload`` every workload is run both ways, each in a fresh
process; ``--smoke`` does that with two batches per workload.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
# Run as a script, sys.path[0] is this directory (whose trace.py would
# shadow the stdlib's); the package root and the program's sources go
# first instead. Shard children re-import this file and inherit the path.
if sys.path and Path(sys.path[0] or ".").resolve() == ROOT / "bench":
    del sys.path[0]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import spec  # noqa: E402
from bench.estimators import (  # noqa: E402
    REFERENCE_CAL_MS,
    geomean,
    percentile,
    percentile_owner,
    run_calibrated,
    run_ticked,
)
from bench.workloads import WORKLOADS, StepTimer, digest  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>
PR_SET_CHILD_SUBREAPER = 36  # <sys/prctl.h>
#: How long a child gets to end on SIGTERM before it is killed.
CHILD_GRACE_S = 5.0

COUNTERS = (
    "parse_documents",
    "shared_parse_hits",
    "cache_hits",
    "cache_misses",
    "bytes_read",
    "row_groups_total",
    "row_groups_skipped",
    "plan_cache_hits",
    "result_cache_hits",
)
#: Counters one statement must report identically on every execution.
EXACT_COUNTERS = COUNTERS[:7]
TIMERS = ("total_seconds", "plan_seconds", "read_seconds", "parse_seconds", "compute_seconds")
LAYERS = ("jsonlib", "storage", "engine", "core", "server", "cluster")


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """The program under test must be this checkout's ``src/``."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the program from {ROOT / 'src'}: {exc}")
    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"bench: repro resolves to {origin}, outside this checkout")


def pin_layout() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` and address-space
    randomisation off, so set and dict-of-str iteration orders,
    allocation patterns and where code and heap land in memory repeat.

    Where things land moves the relative speed of different Python code
    by percents (the same two loops read 0.74–0.79 of each other over ten
    randomised processes, 0.73–0.76 over ten fixed ones), and the
    calibration kernel is different code from the program. Shards spawned
    later inherit both settings. Where ``personality`` is not to be had
    the run goes on randomised.
    """
    if os.environ.get("BENCH_PINNED") == "1":
        return
    os.environ["BENCH_PINNED"] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        libc = ctypes.CDLL(None)
        persona = libc.personality(0xFFFFFFFF)  # query
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def pin_to_one_cpu() -> None:
    """Run the driver — and every process it spawns — on one CPU.

    With one closed-loop client only one thread of one process has work
    at any moment, so a second CPU buys nothing; but every hand-off to a
    thread or shard sleeping on another virtual CPU is a wake-up through
    the hypervisor, whose latency swings with the host's load and that
    no calibration kernel in this process can see (cluster_replay read
    205–435 queries/s across five identical runs). On one CPU a hand-off
    is a context switch, and the kernels share the work's CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent dies (a
    shard's workers, say, when the shard is killed), so ``stop_children``
    sees it; and leave through ``finally`` when asked to terminate."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                # pid (comm) state ppid ...; comm may hold anything
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``teardown`` shuts the shards down in order; this is for whatever
    that leaves on any way out: a shard that was terminated but not
    waited for, one an exception skipped, and multiprocessing's resource
    tracker, which the spawned shards bring with them and which otherwise
    ends only some time *after* this process has — it ignores SIGTERM and
    ends when the last holder of its pipe (the shards, then this process)
    has closed it.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    how = signal.SIGTERM
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        pids = children()
        if not pids:
            return
        if pids == [tracker_pid] and hasattr(tracker, "_stop"):
            tracker._stop()  # closes the pipe and waits for the tracker
            tracker_pid = None
            continue
        if time.monotonic() > deadline:
            how, tracker_pid = signal.SIGKILL, None
        for pid in pids:
            if pid == tracker_pid:
                continue
            try:
                os.kill(pid, how)
                os.waitpid(pid, os.WNOHANG)
            except OSError:  # ended and reaped between the two calls
                pass
        time.sleep(0.01)


def git_sha() -> str | None:
    """The checkout's commit, when it is a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def peak_rss_mb(child_pids: list[int]) -> float:
    """Driver ``ru_maxrss`` plus each live child's ``VmHWM``."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------
class Measurement:
    """Everything one run of batches produced."""

    def __init__(self) -> None:
        self.batches: list[dict] = []
        self.latency_ms: dict[str, list[float]] = {}
        self.latency_ms_clocked: dict[str, list[float]] = {}
        self.overhead_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.totals = {key: 0 for key in COUNTERS}
        #: Counters and timers some result did not carry (the shard
        #: envelope sends a subset): what is built on them is not
        #: available for this workload, which is not the same as zero.
        self.absent: set[str] = set()
        self.statement_counts: dict[str, tuple] = {}
        self.frame_bytes: list[int] = []
        self.sample_response: dict | None = None

    def untraced(self) -> list[dict]:
        return [b for b in self.batches if not b["traced"]]

    def traced(self) -> list[dict]:
        return [b for b in self.batches if b["traced"]]


def batch_count(workload, seconds: float, trace: bool) -> int:
    """Fixed work: the batches that take ``seconds`` at reference speed
    (``batch_seconds`` is frozen in ``spec.py``, not measured by the
    run), never fewer than ``MIN_BATCHES``; half of that when tracing."""
    full = max(spec.MIN_BATCHES, round(seconds / workload.sizes["batch_seconds"]))
    return full // 2 if trace else full


def run_batches(workload, batches: int, recorder=None) -> Measurement:
    """Run ``batches`` identical batches.

    Each batch: collect garbage, run the batch's requests through
    ``run_calibrated``, then the end-of-batch work through
    ``run_ticked``. Outside the timed regions every result is compared
    with the reference. With a ``recorder`` every second batch runs with
    the tracing wrappers installed.
    """
    m = Measurement()
    for index in range(batches):
        requests = workload.batch(index)
        traced = recorder is not None and index % 2 == 1
        gc.collect()
        first_span = 0
        if traced:
            first_span = len(recorder.spans)
            recorder.install()
            batch_span = recorder.begin("bench.batch")
        written_before = workload.bytes_written()
        tracer = recorder if traced else None
        results, calibrations = run_calibrated(
            requests, workload.execute, tracer, f"b{index}"
        )
        clocked_s = sum(latency for _, latency, _, _ in results)
        norm_s = sum(latency * scale for _, latency, _, scale in results)
        end_norm_s = 0.0
        if workload.has_end_batch:
            _, end_clocked_s, end_norm_s, samples = run_ticked(
                lambda: workload.end_batch(index), tracer
            )
            calibrations += samples
            clocked_s += end_clocked_s
            norm_s += end_norm_s
        if traced:
            recorder.end(batch_span)
            recorder.uninstall()
        batch_scale = norm_s / clocked_s

        # ---- untimed from here: verification and bookkeeping ----------
        batch = {
            "index": index,
            "traced": traced,
            "queries": len(requests),
            "clocked_s": clocked_s,
            "norm_s": norm_s,
            "end_batch_norm_s": end_norm_s,
            "cal_ms": calibrations,
            "bytes_written": workload.bytes_written() - written_before,
            "spans": (first_span, len(recorder.spans)) if traced else None,
        }
        counters = {key: 0 for key in COUNTERS}
        timers = {key: 0.0 for key in TIMERS}
        for request, latency, outcome, scale in results:
            m.attempted += 1
            if isinstance(outcome, Exception):
                m.failed += 1
                m.problems.append(f"{request.cls}: {type(outcome).__name__}: {outcome}")
                continue
            if digest(outcome.rows) != workload.reference(request):
                m.failed += 1
                m.problems.append(f"{request.cls}: rows differ from the reference")
                continue
            metrics = outcome.metrics
            for totals in (counters, timers):
                for key in totals:
                    if key in metrics:
                        totals[key] += metrics[key]
                    else:
                        m.absent.add(key)
            if workload.exact_counters:
                seen = tuple(int(metrics[key]) for key in EXACT_COUNTERS)
                first = m.statement_counts.setdefault(request.sql, seen)
                if first != seen:
                    m.failed += 1
                    m.problems.append(
                        f"{request.cls}: counters drifted for one statement: {first} -> {seen}"
                    )
                    continue
            if not traced:
                m.latency_ms.setdefault(request.cls, []).append(latency * scale * 1000.0)
                m.latency_ms_clocked.setdefault(request.cls, []).append(latency * 1000.0)
                # The shard envelope reports no planning time: through
                # the router it stays in the overhead.
                engine = metrics["total_seconds"] + metrics.get("plan_seconds", 0.0)
                m.overhead_ms.append((latency - engine) * scale * 1000.0)
            elif outcome.shard is not None:
                m.frame_bytes.append(workload.frame_bytes(request, outcome))
                if m.sample_response is None:
                    m.sample_response = workload.reply_frame(outcome)
        for key in COUNTERS:
            m.totals[key] += counters[key]
        batch["counters"] = counters
        batch["timers_norm"] = {k: v * batch_scale for k, v in timers.items()}
        batch["reported_total_clocked_s"] = timers["total_seconds"]
        m.batches.append(batch)
    return m


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(workload, m: Measurement, setups: list[StepTimer]) -> tuple[dict, dict, dict]:
    """(normalised metrics, as-clocked metrics, notes)."""
    batches = m.untraced()
    queries = batches[0]["queries"]
    class_medians = {cls: median(v) for cls, v in m.latency_ms.items()}
    pooled = [v for values in m.latency_ms.values() for v in values]
    pooled_clocked = [v for values in m.latency_ms_clocked.values() for v in values]
    order = sorted(class_medians, key=class_medians.get)
    owner, margin = percentile_owner(workload.histogram(), order, 0.95)
    stored = workload.stored_bytes() / workload.user_bytes()
    rss = peak_rss_mb(workload.child_pids())
    metrics = {
        "setup_s": (median(s.total() for s in setups), "s"),
        "queries_per_s": (queries / median(b["norm_s"] for b in batches), "1/s"),
        "query_geomean_ms": (geomean(class_medians.values()), "ms"),
        "query_p95_ms": (percentile(pooled, 0.95), "ms"),
        "stored_bytes_per_user_byte": (stored, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    clocked = {
        "setup_s": (median(s.total(normalised=False) for s in setups), "s"),
        "queries_per_s": (queries / median(b["clocked_s"] for b in batches), "1/s"),
        "query_geomean_ms": (
            geomean(median(v) for v in m.latency_ms_clocked.values()), "ms"),
        "query_p95_ms": (percentile(pooled_clocked, 0.95), "ms"),
        "stored_bytes_per_user_byte": (stored, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "batches": len(batches),
        "queries_per_batch": queries,
        "latency_samples": len(pooled),
        "samples_beyond_p95": len(pooled) - int(0.95 * len(pooled)),
        "min_class_samples": min(len(v) for v in m.latency_ms.values()),
        "p95_owner": owner,
        "p95_margin_points": round(margin, 2),
        "class_median_ms": {c: round(class_medians[c], 3) for c in order},
    }
    return metrics, clocked, notes


def sample_problems(notes: dict) -> list[str]:
    """What a full run's estimators rest on, checked rather than noted."""
    floors = {
        "batches": spec.MIN_BATCHES,
        "min_class_samples": spec.MIN_CLASS_SAMPLES,
        "latency_samples": spec.MIN_LATENCY_SAMPLES,
        "samples_beyond_p95": spec.MIN_BEYOND_P95,
        "p95_margin_points": spec.MIN_P95_MARGIN_POINTS,
    }
    return [
        f"{key}={notes[key]}, below the {floor} the estimators need"
        for key, floor in floors.items()
        if notes[key] < floor
    ]


def ratio(numerator, denominator):
    """``None`` (not available) when a part is, or nothing was counted."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def per_layer(workload, m: Measurement, setup: StepTimer, recorder) -> tuple[dict, dict]:
    """The ledger of the traced run, and the self-time share table.

    A value is ``None`` when the metric does not apply to the workload
    or the program does not report what it is built on there (the shards
    are not instrumented and their envelope carries few counters).
    """
    from bench import layers
    from bench.trace import layer_of, self_times

    untraced, traced = m.untraced(), m.traced()
    first = untraced[0]
    queries = first["queries"]
    nightly = workload.name == "nightly_cycle"
    cluster = workload.name == "cluster_replay"
    out: dict[str, tuple[float | None, str]] = {}

    # -- exact counts, from the first timed batch (fixed by the seed) ---
    c0 = {k: None if k in m.absent else v for k, v in first["counters"].items()}

    def plus(a, b):
        return None if a is None or b is None else a + b

    out["jsonlib.parse_documents"] = (c0["parse_documents"], "count")
    out["jsonlib.doccache_hit_ratio"] = (
        ratio(c0["shared_parse_hits"], plus(c0["shared_parse_hits"], c0["parse_documents"])),
        "ratio")
    out["storage.bytes_read_per_query"] = (ratio(c0["bytes_read"], queries), "B")
    out["storage.row_groups_skipped_ratio"] = (
        ratio(c0["row_groups_skipped"], c0["row_groups_total"]), "ratio")
    out["core.cache_hit_ratio"] = (
        ratio(c0["cache_hits"], plus(c0["cache_hits"], c0["cache_misses"])), "ratio")
    out["engine.plancache_hit_ratio"] = (ratio(c0["plan_cache_hits"], queries), "ratio")
    attempted = sum(b["queries"] for b in m.batches)
    out["engine.resultcache_hit_ratio"] = (
        m.totals["result_cache_hits"] / attempted if cluster else None, "ratio")

    # -- times the program reports about itself, per untraced batch -----
    for name, key in (("engine.compute_s", "compute_seconds"),
                      ("engine.reported_total_s", "total_seconds")):
        out[name] = (
            None if key in m.absent else median(b["timers_norm"][key] for b in untraced), "s")

    # -- spans: self time per layer per traced batch --------------------
    per_batch: list[dict[str, float]] = []  # normalised self seconds by span name
    shares = {layer: 0.0 for layer in (*LAYERS, "unattributed")}
    durations: dict[str, list[float]] = {}
    traced_seconds = 0.0
    for batch in traced:
        lo, hi = batch["spans"]
        spans = recorder.spans[lo:hi]
        scale = batch["norm_s"] / batch["clocked_s"]
        selfs = self_times(spans)
        selfs.pop("bench.calibrate", None)  # the benchmark's own kernels
        per_batch.append({name: s * scale for name, s in selfs.items()})
        for name, seconds in selfs.items():
            layer = layer_of(name)
            shares["unattributed" if layer == "bench" else layer] += seconds
        traced_seconds += sum(selfs.values())  # the batch span less the kernels
        for span in spans:
            durations.setdefault(span[0], []).append((span[2] - span[1]) * scale)

    if cluster:
        # The shards are not instrumented: what the router's rpc_call span
        # covers is seen only through the shard-reported execution time,
        # which moves from the cluster row to the engine row; how it
        # splits over the layers inside a shard is not visible.
        reported = sum(b["reported_total_clocked_s"] for b in traced)
        shares["cluster"] -= reported
        shares["engine"] += reported
        for layer in ("jsonlib", "storage", "core", "server"):
            shares[layer] = None

    def span_self(*names: str):
        if cluster:
            return None
        return median(sum(b.get(n, 0.0) for n in names) for b in per_batch)

    def span_s(name: str):
        values = durations.get(name)
        return median(values) if values and not cluster else None

    out["jsonlib.parse_s"] = (span_self("jsonlib.parse", "jsonlib.extract"), "s")
    out["storage.read_s"] = (span_self("storage.fs_read", "storage.read_columns"), "s")
    out["storage.encode_s"] = (span_self("storage.encode"), "s")
    out["core.stitch_s"] = (span_self("core.stitch"), "s")
    admission = span_s("server.admission")
    out["server.admission_wait_ms"] = (
        None if admission is None else admission * 1000.0, "ms")
    for name in ("core.predict", "core.score", "core.build"):
        out[f"{name}_s"] = (span_s(name), "s")
    out["obs.trace_overhead_ratio"] = (
        median(b["norm_s"] for b in traced) / median(b["norm_s"] for b in untraced), "ratio")
    for layer, seconds in shares.items():
        out[f"share.{layer}"] = (ratio(seconds, traced_seconds), "ratio")

    # -- midnight, from untraced batches and the program's reports ------
    if nightly:
        reports = workload.midnight_reports()
        out["core.midnight_s"] = (median(b["end_batch_norm_s"] for b in untraced), "s")
        out["storage.bytes_written_per_cycle"] = (first["bytes_written"], "B")
        out["core.selected_paths"] = (len(reports[-1].selected), "count")
        out["core.build_bytes_per_s"] = (
            median(r.build.bytes_written / r.build.build_seconds for r in reports[-len(m.batches):]),
            "B/s")
    else:
        out["core.midnight_s"] = (None, "s")
        out["storage.bytes_written_per_cycle"] = (None, "B")
        out["core.selected_paths"] = (None, "count")
        out["core.build_bytes_per_s"] = (None, "B/s")

    # -- client-side differences ---------------------------------------
    overhead = median(m.overhead_ms)
    out["server.overhead_ms"] = (overhead if nightly else None, "ms")
    out["cluster.router_overhead_ms"] = (overhead if cluster else None, "ms")
    if cluster:
        out["cluster.rpc_bytes_per_query"] = (sum(m.frame_bytes) / len(m.frame_bytes), "B")
        out["cluster.metacache_hit_ratio"] = (
            float(workload.router.metacache.snapshot()["hit_rate"]), "ratio")
        out["cluster.rpc_roundtrip_ms"] = (
            layers.probe_rpc(m.sample_response), "ms")
        session = workload.session()
        recurring = [workload.queries[q].sql for q in workload.sizes["recurring_per_batch"]]
        for sql in recurring:
            session.sql(sql)
        out["engine.resultcache_probe_ms"] = (
            layers.timed_median(lambda: [session.sql(sql) for sql in recurring])
            / len(recurring) * 1000.0, "ms")
    else:
        out["cluster.rpc_bytes_per_query"] = (None, "B")
        out["cluster.metacache_hit_ratio"] = (None, "ratio")
        out["cluster.rpc_roundtrip_ms"] = (None, "ms")
        out["engine.resultcache_probe_ms"] = (None, "ms")

    # -- direct probes on the workload's own data -----------------------
    session = workload.session()
    out["jsonlib.parse_mb_per_s"] = (layers.probe_parse(session), "MB/s")
    out["storage.scan_mb_per_s"] = (layers.probe_scan(session), "MB/s")
    out["storage.encode_mb_per_s"] = (layers.probe_encode(session), "MB/s")
    statements = sorted({r.sql for r in workload.batch(0)})[:12]
    plan = layers.probe_plan(session, statements, recorder)
    out["engine.plan_ms"] = (plan["plan_ms"], "ms")
    out["engine.plan_cached_ms"] = (plan["plan_cached_ms"], "ms")
    out["core.rewrite_ms"] = (plan["rewrite_ms"], "ms")

    groups = setup.by_group()
    for group in ("load_tables", "cache_build", "spawn", "warmup"):
        out[f"setup.{group}_s"] = (groups.get(group), "s")
    table = {k.split(".", 1)[1]: v[0] for k, v in out.items() if k.startswith("share.")}
    return out, table


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def run_one(args, benchmark: dict) -> int:
    started_wall = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    workload.generate()
    # The inputs and reference answers are the benchmark's own objects:
    # frozen, neither the collection before each batch nor one inside a
    # timed query walks them.
    gc.collect()
    gc.freeze()
    generated = time.perf_counter()

    full_run = args.batches is None
    repeats = spec.SETUP_REPEATS if full_run and not args.trace else 1
    setups: list[StepTimer] = []
    try:
        for _ in range(repeats):
            workload.teardown()
            gc.collect()
            steps = StepTimer()
            workload.setup(steps)
            setups.append(steps)
        ready = time.perf_counter()

        recorder = None
        if args.trace:
            from bench.trace import SpanRecorder

            recorder = SpanRecorder()
        m = run_batches(
            workload,
            args.batches or batch_count(workload, args.seconds, bool(args.trace)),
            recorder,
        )
        measured = time.perf_counter()
        m.problems += workload.check(m.totals)

        share_table = None
        if args.trace:
            values, share_table = per_layer(workload, m, setups[-1], recorder)
            declared = benchmark["per_layer"]
            clocked_values, notes = None, {
                "traced_batches": len(m.traced()), "untraced_batches": len(m.untraced()),
                "spans": len(recorder.spans)}
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            recorder.write(OUT_DIR / f"{workload.name}.spans.jsonl")
        else:
            values, clocked_values, notes = end_to_end(workload, m, setups)
            declared = benchmark["end_to_end"]
            if full_run:
                m.problems += sample_problems(notes)
    finally:
        workload.teardown()

    missing = [d["name"] for d in declared if d["name"] not in values]
    extra = sorted(set(values) - {d["name"] for d in declared})
    if missing or extra:
        raise SystemExit(f"bench: metric names out of step with BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    # The result line must give every declared metric a number, so one
    # that is not available reads 0 there; it is printed as n/a above the
    # line and listed under ``not_applicable`` in the run's record.
    metrics = {}
    not_applicable = []
    for entry in declared:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"bench: {entry['name']} is in {unit}, declared {entry['unit']}")
        if value is None:
            not_applicable.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": unit}

    correct = m.failed == 0 and not m.problems
    print(f"== {workload.name}  seed={args.seed}  trace={int(args.trace)} ==")
    print(f"why: {workload.why}")
    for name, body in metrics.items():
        if name in not_applicable:
            print(f"  {name:34s} {'n/a':>16s}")
            continue
        line = f"  {name:34s} {body['value']:>16.6f} {body['unit']}"
        if clocked_values is not None and name in clocked_values:
            line += f"   (as clocked {clocked_values[name][0]:.6f})"
        print(line)
    if share_table is not None:
        print("  self-time share of the traced batches (sums to 1):")
        seen = {k: v for k, v in share_table.items() if v is not None}
        for layer, share in sorted(seen.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:14s} {share:8.4f}")
        print(f"    {'sum':14s} {sum(seen.values()):8.4f}")
    print(f"  notes: {json.dumps(notes)}")
    print(f"  attempted={m.attempted} failed={m.failed}")
    for problem in m.problems[:10]:
        print(f"  PROBLEM: {problem}")
    print(
        "  wall: generate %.1fs, set-up %.1fs, measure %.1fs, total %.1fs"
        % (generated - started_wall, ready - generated, measured - ready,
           time.perf_counter() - started_wall)
    )

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(args.trace),
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "reference_cal_ms": REFERENCE_CAL_MS,
        "metrics": metrics,
        "not_applicable": not_applicable,
        "metrics_as_clocked": (
            {k: {"value": v[0], "unit": v[1]} for k, v in clocked_values.items()}
            if clocked_values else None),
        "notes": notes,
        "setup_steps": [s.steps for s in setups],
        "calibrations_ms": [b["cal_ms"] for b in m.batches]
        + [s.calibrations for s in setups],
        "batches_norm_s": [b["norm_s"] for b in m.batches],
        "problems": m.problems,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{workload.name}.trace{int(args.trace)}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command += ["--batches", "2"]
            status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    benchmark = load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batches", type=int, default=None,
                        help="run exactly this many batches, set up once (smoke runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, two batches each")
    args = parser.parse_args(argv)
    require_program()
    if args.workload is None:
        return run_all(args)
    pin_layout()
    pin_to_one_cpu()
    adopt_orphans()
    try:
        return run_one(args, benchmark)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
