"""Frozen sizes and layouts of the four workloads.

Every count here is fixed work: a run repeats a fixed number of
*identical batches* and reports medians over them. ``batch_seconds`` is
what one batch of a workload took on the reference host, its
calibrations and checks included; a run of ``--seconds S`` is
``S / batch_seconds`` batches, however fast the host or the program is.
Changing a value in this file changes what the metrics mean; re-measure
the baseline when you do.
"""

from __future__ import annotations

#: Times the whole set-up is performed per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A run has at least this many batches, whatever ``--seconds`` says, and
#: fails when its estimators rest on less than the rest: samples of the
#: rarest class behind ``query_geomean_ms``, pooled samples behind
#: ``query_p95_ms`` and how many lie beyond it, and the distance in
#: percentage points from the p95 rank to the edge of its class's band.
MIN_BATCHES = 40
MIN_CLASS_SAMPLES = 40
MIN_LATENCY_SAMPLES = 400
MIN_BEYOND_P95 = 20
MIN_P95_MARGIN_POINTS = 3.0

DAYS = 3
START_DATE = 20190101
ROW_GROUP_SIZE = 100

#: How many distinct JSON-predicate thresholds one seed draws (Q2/Q9).
#: Small, so reference answers stay cheap; the values move with the seed.
THRESHOLD_POOL = 4
THRESHOLD_RANGE = (8800, 9200)

RAW_PARSE = {
    "rows_per_table": 150,
    "passes_per_batch": 1,
    "batch_seconds": 0.31,
}

CACHED_HOT = {
    "rows_per_table": 150,
    "passes_per_batch": 8,
    "batch_seconds": 0.235,
}

NIGHTLY_CYCLE = {
    "rows_per_table": 66,
    "tenants": 4,
    "warmup_days": 1,
    "batch_seconds": 0.52,
    # One virtual day: 66 requests, the same every day. Frozen for two
    # reasons. (a) The scoring function times its own parse sample, so a
    # budget cut that falls between paths of similar score would select
    # different paths — and give different latencies — from run to run.
    # The five large-document tables get the popular ranks; their
    # lowest-scored path then scores ≥ 3× the best path of the other
    # five, and the budget is exactly their measured size, so every
    # midnight selects exactly their 49 paths. (b) Sorted by latency the
    # classes put the pooled p95 3.5 points inside Q2's band (raw, 6 of
    # 66) instead of on an edge between two latency levels.
    "day_histogram": {
        "Q6": 16,
        "Q10": 12,
        "Q3": 8,
        "Q9": 6,
        "Q4": 6,
        "Q2": 6,
        "Q8": 4,
        "Q1": 4,
        "Q7": 3,
        "Q5": 1,
    },
    # Tables whose every path each midnight must select (and no other).
    "cached_tables": ("Q9", "Q3", "Q4", "Q6", "Q10"),
}

CLUSTER_REPLAY = {
    "shards": 2,
    "rows_per_table": 100,
    # The six small-document tables: the serving tier is the subject, and
    # every shard loads its own copy of the data at spawn.
    "table_ids": ("Q1", "Q2", "Q5", "Q6", "Q7", "Q8"),
    "tenants": 4,
    # 80 % recurring statements (result-cache hits) and 20 % ad-hoc
    # variants (result- and plan-cache misses, cached execution). The
    # ad-hoc classes are the slowest, so the pooled p95 lies 5 points
    # inside the slower one's band.
    "recurring_per_batch": {"Q1": 16, "Q2": 16, "Q5": 16, "Q6": 16, "Q7": 16, "Q8": 16},
    # Ad-hoc variants change the template's LIMIT, not its JSON-predicate
    # threshold: the result cache counts a template's recurrences by its
    # canonical text, which abstracts literals, so threshold variants
    # inherit the template's count, out-score every other recurring
    # statement and evict it for good — the recurring 80 % would stop
    # hitting the cache at all. A LIMIT is part of the canonical text, so
    # each variant counts once and only ad-hoc entries evict each other.
    "adhoc_per_batch": {"Q5": 12, "Q8": 12},
    # Distinct ad-hoc limits per seed, drawn from this range; more than
    # the shards' result cache holds (256 entries each), all above the
    # table's row count so every variant returns the template's rows.
    "adhoc_pool": 2000,
    "adhoc_limit_range": (101, 10_000),
    # Throwaway statements that bring both result caches to capacity.
    "fill_requests": 640,
    "warmup_batches": 1,
    "batch_seconds": 0.24,
}
