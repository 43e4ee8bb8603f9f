"""A/A harness: the same code, many fresh processes, how far apart?

    python3 bench/aa.py --runs 10

runs every workload ``--runs`` times with ``--trace 0`` (one fresh
process and one new seed per run, as the driver does), twice over, and
reports per workload × end-to-end metric the median, the quartile spread
(Q3 − Q1) / median and the largest deviation from the median, plus how
far the second set's median moved from the first's. It then runs each
workload twice with ``--trace 1`` on one seed and requires the exact
counts of the ledger to be identical. ``bench/AA.md`` is rewritten with
the tables, the last of which derives each metric's bound:
max(floor, 3 × worst spread), the contract wanting every spread below a
third of its bound.

Exit status is non-zero when any end-to-end metric deviates from its
set's median by more than 0.10, an exact count differs, a second-set
median is worse than the first by more than the bound, or a derived
bound is above the contract's 0.25 or above the one ``BENCHMARK.json``
states.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.estimators import quartile_spread  # noqa: E402

SETS = 2
FIRST_SEED = 1
#: Ledger entries that are counts of work, fixed by the seed.
EXACT = (
    "jsonlib.parse_documents",
    "jsonlib.doccache_hit_ratio",
    "storage.bytes_read_per_query",
    "storage.row_groups_skipped_ratio",
    "storage.bytes_written_per_cycle",
    "core.cache_hit_ratio",
    "core.selected_paths",
)
#: Smallest bound per metric (the issue's starting values).
FLOOR = {
    "setup_s": 0.10,
    "queries_per_s": 0.07,
    "query_geomean_ms": 0.07,
    "query_p95_ms": 0.10,
    "stored_bytes_per_user_byte": 0.001,
    "peak_rss_mb": 0.08,
}
MAX_BOUND = 0.25
MAX_DEVIATION = 0.10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"aa: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"aa: {workload} seed {seed} reported failures")
    result["wall_s"] = wall
    return result


def traced_counts(workload: str, seconds: int) -> dict[str, float | None]:
    """The exact counts of one ``--trace 1`` run; ``None`` where the
    run's record says the count is not available for the workload."""
    metrics = run_once(workload, FIRST_SEED, seconds, trace=1)["metrics"]
    with open(ROOT / "bench" / "out" / f"{workload}.trace1.json", encoding="utf-8") as handle:
        missing = set(json.load(handle)["not_applicable"])
    return {name: None if name in missing else metrics[name]["value"] for name in EXACT}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    e2e = {m["name"]: m for m in benchmark["end_to_end"]}

    # sets[s][workload][metric] -> values; seeds differ in every run
    sets: list[dict[str, dict[str, list[float]]]] = []
    walls: list[float] = []
    seed = FIRST_SEED
    for set_index in range(SETS):
        current: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
        for _ in range(args.runs):
            for workload in workloads:
                result = run_once(workload, seed, seconds, trace=0)
                walls.append(result["wall_s"])
                for name, body in result["metrics"].items():
                    current[workload].setdefault(name, []).append(body["value"])
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{result['wall_s']:.1f}s wall", flush=True)
            seed += 1
        sets.append(current)

    lines = [
        "# A/A record",
        "",
        f"`python3 bench/aa.py --runs {args.runs}`: {SETS} sets of "
        f"{args.runs} fresh-process runs per workload, {seconds} s each, a new seed per run, "
        "same code. Spread is (Q3 − Q1) / median with `statistics.quantiles(n=4)`; "
        "max dev is the largest |value − median| / median; drift is how much worse "
        "the set's median is than the first set's (negative: better); bound is the one "
        "in `BENCHMARK.json`.",
        "",
    ]
    failed = False
    worst: dict[str, float] = {name: 0.0 for name in e2e}
    for workload in workloads:
        lines += [f"## {workload}", "",
                  "| metric | unit | set | median | spread | max dev | drift | bound |",
                  "|---|---|---|---|---|---|---|---|"]
        for name, meta in e2e.items():
            first_median = None
            for set_index, current in enumerate(sets):
                values = current[workload][name]
                mid = statistics.median(values)
                sp = quartile_spread(values)
                dev = max(abs(v - mid) / mid for v in values)
                drift = 0.0 if first_median is None else worse_by(first_median, mid, meta["better"])
                if first_median is None:
                    first_median = mid
                worst[name] = max(worst[name], sp)
                flags = []
                if dev > MAX_DEVIATION:
                    flags.append("DEVIATION")
                if drift > meta["bound"]:
                    flags.append("DRIFT")
                failed = failed or bool(flags)
                lines.append(
                    f"| `{name}` | {meta['unit']} | {set_index + 1} | {mid:.6g} | {sp:.4f} | "
                    f"{dev:.4f} | {drift:+.4f} | {meta['bound']} {' '.join(flags)} |")
        lines.append("")

    # exact counts: two traced runs of one seed must agree bit for bit
    lines += [f"## exact counts (two `--trace 1` runs of seed {FIRST_SEED} per workload)", "",
              "n/a: the program does not report the count on that workload.", "",
              "| workload | count | run 1 | run 2 |", "|---|---|---|---|"]
    for workload in workloads:
        a = traced_counts(workload, seconds)
        b = traced_counts(workload, seconds)
        for name in EXACT:
            same = a[name] == b[name]
            failed = failed or not same
            shown = ["n/a" if v is None else f"{v:.10g}" for v in (a[name], b[name])]
            lines.append(f"| {workload} | `{name}` | {shown[0]} | "
                         f"{shown[1]}{'' if same else ' DIFFERS'} |")
    lines.append("")

    lines += ["## bounds", "",
              "derived = max(floor, 3 × worst spread over workloads and sets, rounded up "
              "to 0.01), so that every spread seen is below a third of its bound. "
              f"A derived bound above {MAX_BOUND} (the contract's largest) or above the "
              "stated one fails the run.", "",
              "| metric | worst spread | floor | derived | stated |", "|---|---|---|---|---|"]
    for name, meta in e2e.items():
        derived = max(FLOOR[name], math.ceil(300.0 * worst[name]) / 100.0)
        flags = []
        if derived > MAX_BOUND:
            flags.append("TOO NOISY")
        if derived > meta["bound"]:
            flags.append("STATED TOO TIGHT")
        failed = failed or bool(flags)
        lines.append(f"| `{name}` | {worst[name]:.4f} | {FLOOR[name]} | {derived} | "
                     f"{meta['bound']} {' '.join(flags)} |")
    runs = 4 + 22 * len(workloads)
    lines += ["", f"Wall time per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s over {len(walls)} runs; the driver's "
              f"{runs} runs at the median take "
              f"{statistics.median(walls) * runs:.0f} s.", ""]

    (ROOT / "bench" / "AA.md").write_text("\n".join(lines), encoding="utf-8")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
