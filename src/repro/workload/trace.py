"""Synthetic Alibaba-style query trace.

The paper's predictor and cache are driven by a five-month production
trace whose *published statistics* are the contract this generator
honours:

* ~82% of queries come from recurring templates; of those ~71% repeat
  daily (a further ~7% with multi-day windows) and ~17% weekly
  (paper §II-D1);
* JSONPath popularity is heavily skewed: a small fraction of paths
  receives most of the parse traffic (§II-D2: "89% of the parsing traffic
  are on 27% JSONPaths", ~14 queries per path on average);
* table updates cluster around midday and are rare at midnight (Fig 2);
* queries only touch data loaded before the current day.

The generator is seeded and deterministic. Every query event carries the
JSONPaths it parses, so the trace can drive the collector, the predictor,
the online-LRU replay, and the workload-analysis figures without ever
materialising real SQL for the bulk of the 3M-query-scale runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MPJP_THRESHOLD",
    "PathKey",
    "TraceQuery",
    "TableUpdate",
    "TraceConfig",
    "SyntheticTrace",
]

#: The paper's MPJP rule (§I): a JSONPath parsed at least this many times
#: on one day is a Multiple-Parsed JSONPath. Ground truth, features,
#: oracle labels and the efficacy book all read it from here.
MPJP_THRESHOLD = 2


@dataclass(frozen=True, order=True)
class PathKey:
    """Fully qualified JSONPath location: (db, table, column, path)."""

    database: str
    table: str
    column: str
    path: str


@dataclass(frozen=True)
class TraceQuery:
    """One executed query in the trace."""

    day: int
    seconds: int
    """Submission time within the day, seconds since midnight."""
    user: str
    template_id: int
    """Recurring template this firing belongs to; -1 for ad-hoc queries."""
    kind: str
    """'daily' | 'daily_window' | 'weekly' | 'adhoc'."""
    paths: tuple[PathKey, ...]
    window_days: int = 1

    @property
    def recurring(self) -> bool:
        return self.template_id >= 0


@dataclass(frozen=True)
class TableUpdate:
    """One table load event."""

    day: int
    seconds: int
    database: str
    table: str


@dataclass(frozen=True)
class TraceConfig:
    """Scale and mixture knobs; defaults reproduce the paper's shape at
    laptop scale (the real trace has ~3M queries over ~24k tables)."""

    days: int = 150
    users: int = 60
    tables: int = 40
    paths_per_table: tuple[int, int] = (8, 30)
    templates_per_user: tuple[int, int] = (2, 6)
    paths_per_query: tuple[int, int] = (2, 12)
    recurring_fraction: float = 0.82
    daily_share: float = 0.71
    daily_window_share: float = 0.07
    weekly_share: float = 0.17
    fire_probability: float = 0.98
    burst_fraction: float = 0.35
    """Fraction of template groups with an on/off burst schedule. Burst
    and weekly groups are the temporally-structured positives that only
    sequence models predict well — the mechanism behind the recall gap in
    the paper's Table III."""
    churn_fraction: float = 0.12
    """Fraction of groups that retire before the trace ends (their
    disappearance is unpredictable and bounds every model's precision)."""
    zipf_alpha: float = 2.0
    adhoc_zipf_alpha: float = 3.0
    """Ad-hoc queries concentrate even harder on the popular paths, so
    they rarely flip the MPJP label of a mid-popularity path."""
    adhoc_per_day: float = 10.0
    seed: int = 2020


@dataclass
class _Template:
    template_id: int
    user: str
    kind: str
    paths: tuple[PathKey, ...]
    hour: int
    window_days: int
    weekday: int
    start_day: int
    end_day: int
    burst_period: int
    """0 = always active; k>0 = active k days out of every 2k (bursty)."""


class SyntheticTrace:
    """Deterministic synthetic workload trace.

    Attributes
    ----------
    queries:
        Chronologically ordered :class:`TraceQuery` events.
    updates:
        :class:`TableUpdate` events (one per table per day).
    path_universe:
        Every :class:`PathKey` that exists in the synthetic warehouse.
    """

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config or TraceConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.path_universe: list[PathKey] = []
        self._table_paths: dict[str, list[PathKey]] = {}
        self.templates: list[_Template] = []
        self.queries: list[TraceQuery] = []
        self.updates: list[TableUpdate] = []
        self._build_universe()
        self._build_templates()
        self._generate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_universe(self) -> None:
        cfg = self.config
        rng = self._rng
        lo, hi = cfg.paths_per_table
        for t in range(cfg.tables):
            table = f"t{t:03d}"
            n_paths = int(rng.integers(lo, hi + 1))
            paths = [
                PathKey("wh", table, "payload", f"$.f{i:03d}")
                for i in range(n_paths)
            ]
            self._table_paths[table] = paths
            self.path_universe.extend(paths)

    def _zipf_sample(
        self, pool: list[PathKey], count: int, alpha: float | None = None
    ) -> tuple[PathKey, ...]:
        """Sample ``count`` distinct paths with Zipf-ranked popularity."""
        if count <= 0:
            return ()
        ranks = np.arange(1, len(pool) + 1, dtype=float)
        weights = ranks ** (-(alpha if alpha is not None else self.config.zipf_alpha))
        weights /= weights.sum()
        count = min(count, len(pool))
        chosen = self._rng.choice(len(pool), size=count, replace=False, p=weights)
        return tuple(pool[i] for i in sorted(chosen))

    def _build_templates(self) -> None:
        """Templates come in *groups* sharing a path theme.

        A group models one user's suite of related queries over one table
        — the paper's Fig 1 pattern, where two daily queries both parse
        ``item_name`` and ``item_id``. Theme paths touched by a group of
        k templates are parsed k times per firing day, so groups with
        k >= 2 produce stable MPJPs; the group's recurrence kind (daily /
        daily-window / weekly) and burst phase are shared, which is what
        gives the labels their learnable temporal structure.
        """
        cfg = self.config
        rng = self._rng
        tables = list(self._table_paths)
        template_id = 0
        for u in range(cfg.users):
            user = f"user{u:03d}"
            n_owned = int(rng.integers(1, 4))
            owned = list(
                rng.choice(tables, size=min(n_owned, len(tables)), replace=False)
            )
            n_templates = int(
                rng.integers(cfg.templates_per_user[0], cfg.templates_per_user[1] + 1)
            )
            remaining = n_templates
            while remaining > 0:
                group_size = min(int(rng.integers(1, 4)), remaining)
                remaining -= group_size
                table = owned[int(rng.integers(0, len(owned)))]
                pool = self._table_paths[table]
                theme_size = int(
                    rng.integers(
                        cfg.paths_per_query[0],
                        max(cfg.paths_per_query[0] + 1, cfg.paths_per_query[1] // 2 + 1),
                    )
                )
                theme = self._zipf_sample(pool, theme_size)
                # Group-level recurrence kind. The configured shares are
                # *query-volume* shares (what the paper reports); weekly
                # templates fire 1/7 as often as daily ones, so their
                # template-count weight is scaled up by 7 to compensate.
                w_daily = cfg.daily_share
                w_window = cfg.daily_window_share
                w_weekly = cfg.weekly_share * 7
                roll = rng.random() * (w_daily + w_window + w_weekly)
                if roll < w_daily:
                    kind, window = "daily", 1
                elif roll < w_daily + w_window:
                    kind, window = "daily_window", int(rng.integers(2, 8))
                else:
                    kind, window = "weekly", 7
                weekday = int(rng.integers(0, 7))
                start = int(rng.integers(0, max(cfg.days // 3, 1)))
                if rng.random() < cfg.churn_fraction:
                    end = int(rng.integers(start + cfg.days // 3, cfg.days + 1))
                else:
                    end = cfg.days
                burst = 0
                if kind == "daily" and rng.random() < cfg.burst_fraction:
                    # Short on/off periods: within a one-week window the
                    # active-day mix looks the same whether tomorrow is on
                    # or off, so order-free features cannot separate the
                    # two — only the sequence models can.
                    burst = int(rng.integers(2, 6))
                for _ in range(group_size):
                    extras = self._zipf_sample(
                        pool, int(rng.integers(0, 4))
                    )
                    paths = tuple(sorted(set(theme) | set(extras)))
                    self.templates.append(
                        _Template(
                            template_id=template_id,
                            user=user,
                            kind=kind,
                            paths=paths,
                            hour=int(rng.integers(1, 24)),
                            window_days=window,
                            weekday=weekday,
                            start_day=start,
                            end_day=end,
                            burst_period=burst,
                        )
                    )
                    template_id += 1

    def _template_fires(self, template: _Template, day: int) -> bool:
        if not template.start_day <= day < template.end_day:
            return False
        if template.burst_period:
            phase = (day - template.start_day) % (2 * template.burst_period)
            if phase >= template.burst_period:
                return False
            # Burst schedules are driven by upstream pipelines: within the
            # active phase they fire deterministically, which is what makes
            # the on/off pattern learnable from the sequence.
            return True
        if template.kind == "weekly":
            if day % 7 != template.weekday:
                return False
        return self._rng.random() < self.config.fire_probability

    def _update_seconds(self) -> int:
        """Time-of-day for table updates: midday-heavy, midnight-rare."""
        rng = self._rng
        if rng.random() < 0.85:
            hour = float(np.clip(rng.normal(12.5, 2.8), 0.0, 23.99))
        else:
            hour = float(rng.uniform(6.0, 22.0))
        return int(hour * 3600)

    def _generate(self) -> None:
        cfg = self.config
        rng = self._rng
        adhoc_total_weight = cfg.recurring_fraction
        for day in range(cfg.days):
            day_queries: list[TraceQuery] = []
            for template in self.templates:
                if self._template_fires(template, day):
                    seconds = template.hour * 3600 + int(rng.integers(0, 3600))
                    day_queries.append(
                        TraceQuery(
                            day=day,
                            seconds=seconds,
                            user=template.user,
                            template_id=template.template_id,
                            kind=template.kind,
                            paths=template.paths,
                            window_days=template.window_days,
                        )
                    )
            # Ad-hoc load proportional so recurring ends up near the
            # configured fraction of all queries.
            recurring_today = len(day_queries)
            expected_adhoc = recurring_today * (1 - adhoc_total_weight) / max(
                adhoc_total_weight, 1e-9
            )
            n_adhoc = rng.poisson(max(expected_adhoc, 0.0))
            tables = list(self._table_paths)
            for _ in range(int(n_adhoc)):
                table = tables[int(rng.integers(0, len(tables)))]
                pool = self._table_paths[table]
                n_paths = int(
                    rng.integers(cfg.paths_per_query[0], cfg.paths_per_query[1] + 1)
                )
                paths = self._zipf_sample(pool, n_paths, alpha=cfg.adhoc_zipf_alpha)
                day_queries.append(
                    TraceQuery(
                        day=day,
                        seconds=int(rng.integers(0, 86400)),
                        user=f"user{int(rng.integers(0, cfg.users)):03d}",
                        template_id=-1,
                        kind="adhoc",
                        paths=paths,
                    )
                )
            day_queries.sort(key=lambda q: q.seconds)
            self.queries.extend(day_queries)
            for table in self._table_paths:
                self.updates.append(
                    TableUpdate(
                        day=day,
                        seconds=self._update_seconds(),
                        database="wh",
                        table=table,
                    )
                )

    # ------------------------------------------------------------------
    # analysis accessors (drive Fig 2, Fig 4 and the collector)
    # ------------------------------------------------------------------
    def queries_on_day(self, day: int) -> list[TraceQuery]:
        return [q for q in self.queries if q.day == day]

    def daily_path_counts(self, day: int) -> Counter:
        """Counter of PathKey -> parse count for one day."""
        counts: Counter = Counter()
        for query in self.queries:
            if query.day == day:
                counts.update(query.paths)
        return counts

    def path_count_matrix(self) -> tuple[list[PathKey], np.ndarray]:
        """(paths, counts[day, path]) over the whole trace."""
        index = {key: i for i, key in enumerate(self.path_universe)}
        matrix = np.zeros((self.config.days, len(index)), dtype=np.int64)
        for query in self.queries:
            for key in query.paths:
                matrix[query.day, index[key]] += 1
        return list(self.path_universe), matrix

    def queries_per_path(self) -> Counter:
        """PathKey -> number of queries touching it (paper Fig 4)."""
        counts: Counter = Counter()
        for query in self.queries:
            counts.update(set(query.paths))
        return counts

    def recurring_fraction(self) -> float:
        if not self.queries:
            return 0.0
        return sum(1 for q in self.queries if q.recurring) / len(self.queries)

    def traffic_concentration(self, top_fraction: float = 0.27) -> float:
        """Share of parse traffic hitting the most popular paths.

        The paper reports 89% of traffic on the top 27% of paths.
        """
        counts: Counter = Counter()
        for query in self.queries:
            counts.update(query.paths)
        if not counts:
            return 0.0
        ordered = sorted(counts.values(), reverse=True)
        top = max(1, int(math.ceil(len(ordered) * top_fraction)))
        return sum(ordered[:top]) / sum(ordered)

    def update_hour_histogram(self) -> np.ndarray:
        """24-bin histogram of update times (paper Fig 2)."""
        hist = np.zeros(24, dtype=np.int64)
        for update in self.updates:
            hist[min(update.seconds // 3600, 23)] += 1
        return hist

    def mpjp_labels(
        self, day: int, threshold: int = MPJP_THRESHOLD
    ) -> dict[PathKey, int]:
        """1 if the path was parsed >= threshold times on ``day`` else 0,
        for every path in the universe (the MPJP definition, §I)."""
        counts = self.daily_path_counts(day)
        return {
            key: int(counts.get(key, 0) >= threshold) for key in self.path_universe
        }
