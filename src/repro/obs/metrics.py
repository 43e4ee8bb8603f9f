"""Process-wide metrics registry with Prometheus text exposition.

The server keeps one :class:`MetricsRegistry` and feeds it from the
query path (counters, latency histograms) and the status snapshot
(gauges). ``to_prometheus()`` renders the standard text exposition
format (``# HELP`` / ``# TYPE`` / samples) that a scraper — or the
repo's own :mod:`repro.obs.promlint` validator — consumes.

Everything is bounded by construction:

* histograms have a fixed bucket ladder chosen at creation;
* labelled metrics cap the number of distinct label sets
  (``max_label_sets``); overflow is folded into an ``other`` series
  instead of growing without limit (tenant names are client-controlled);
* the registry itself only holds metrics created through it, so the
  exposition size is proportional to code, not traffic.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Seconds ladder covering sub-millisecond engine hits through slow
#: degraded queries; chosen once so dashboards stay comparable.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(c not in _NAME_OK for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(value)}"' for key, value in labels
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class _Metric:
    """Shared plumbing: name, help text, labelled children, lock."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...] = (),
        max_label_sets: int = 64,
    ) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self.max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._series: dict[tuple[tuple[str, str], ...], object] = {}
        if not self.label_names:
            self._series[()] = self._zero()

    def _zero(self):
        return 0.0

    def _series_for(self, label_values: dict[str, str]):
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(label_values)}"
            )
        key = tuple((name, str(label_values[name])) for name in self.label_names)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self.max_label_sets:
                    # Cardinality cap: fold the overflow into 'other'.
                    key = tuple((name, "other") for name in self.label_names)
                    series = self._series.get(key)
                    if series is None:
                        series = self._series[key] = self._zero()
                else:
                    series = self._series[key] = self._zero()
            return key, series

    def samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        raise NotImplementedError

    def expose(self) -> list[str]:
        samples = self.samples()
        if not samples:
            # A labelled metric with no series yet: emitting HELP/TYPE
            # with zero samples is a lint violation, so emit nothing.
            return []
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for sample_name, labels, value in samples:
            lines.append(
                f"{sample_name}{_format_labels(labels)} {_format_value(value)}"
            )
        return lines


class _Scalar(_Metric):
    """One number per label set: what counters and gauges share."""

    def value(self, **labels) -> float:
        key, _ = self._series_for(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def samples(self):
        with self._lock:
            return [
                (self.name, labels, float(value))
                for labels, value in sorted(self._series.items())
            ]


class Counter(_Scalar):
    """Monotonically increasing counter (optionally labelled)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key, _ = self._series_for(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def advance_to(self, cumulative: float, **labels) -> None:
        """Mirror a cumulative count that is kept elsewhere (an engine
        cache's evictions, a store's appended events): raise the series
        to ``cumulative`` if it is below it. Callable at any time, in
        any order — the counter never moves backwards."""
        key, _ = self._series_for(labels)
        with self._lock:
            if cumulative > self._series.get(key, 0.0):
                self._series[key] = float(cumulative)

    def total(self) -> float:
        """Sum over every label set (the folded ``other`` series too)."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(_Scalar):
    """A value that can go up and down (set from status snapshots)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key, _ = self._series_for(labels)
        with self._lock:
            self._series[key] = float(value)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative histogram over a fixed, bounded bucket ladder."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets=DEFAULT_LATENCY_BUCKETS,
        label_names: tuple[str, ...] = (),
        max_label_sets: int = 64,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        super().__init__(name, help_text, label_names, max_label_sets)

    def _zero(self):
        return _HistogramSeries(len(self.bounds) + 1)  # +Inf bucket

    def observe(self, value: float, **labels) -> None:
        key, _ = self._series_for(labels)
        with self._lock:
            series: _HistogramSeries = self._series[key]
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            series.bucket_counts[index] += 1
            series.total += value
            series.count += 1

    def count(self, **labels) -> int:
        key, _ = self._series_for(labels)
        with self._lock:
            return self._series[key].count

    def samples(self):
        out = []
        with self._lock:
            for labels, series in sorted(self._series.items()):
                cumulative = 0
                for bound, bucket in zip(self.bounds, series.bucket_counts):
                    cumulative += bucket
                    out.append(
                        (
                            f"{self.name}_bucket",
                            labels + (("le", _format_value(bound)),),
                            float(cumulative),
                        )
                    )
                cumulative += series.bucket_counts[-1]
                out.append(
                    (
                        f"{self.name}_bucket",
                        labels + (("le", "+Inf"),),
                        float(cumulative),
                    )
                )
                out.append((f"{self.name}_sum", labels, series.total))
                out.append((f"{self.name}_count", labels, float(series.count)))
        return out


class MetricsRegistry:
    """Creates and owns metrics; renders the full exposition."""

    def __init__(self, namespace: str = "maxson") -> None:
        self.namespace = _check_name(namespace)
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered "
                        f"as {existing.kind}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def _full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def counter(self, name: str, help_text: str, label_names=()) -> Counter:
        return self._register(
            Counter(self._full_name(name), help_text, tuple(label_names))
        )

    def gauge(self, name: str, help_text: str, label_names=()) -> Gauge:
        return self._register(
            Gauge(self._full_name(name), help_text, tuple(label_names))
        )

    def histogram(
        self, name: str, help_text: str, buckets=DEFAULT_LATENCY_BUCKETS,
        label_names=(),
    ) -> Histogram:
        return self._register(
            Histogram(
                self._full_name(name), help_text, buckets, tuple(label_names)
            )
        )

    def names(self) -> list[str]:
        """Every registered metric, sorted — including labelled ones that
        have no series yet and so do not show in the exposition."""
        with self._lock:
            return sorted(self._metrics)

    def to_prometheus(self) -> str:
        """The complete text exposition, terminated by a newline."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, object]:
        """JSON-safe {metric: {label-string: value}} view (histograms
        expose their _sum/_count/_bucket samples)."""
        out: dict[str, object] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            for sample_name, labels, value in metric.samples():
                series = out.setdefault(sample_name, {})
                series[_format_labels(labels) or "{}"] = value
        return out
