"""repro.obs: end-to-end observability for the Maxson reproduction.

Four concerns, one subsystem:

* **Tracing** (:mod:`~repro.obs.trace`, :mod:`~repro.obs.instrument`,
  :mod:`~repro.obs.explain`) — per-query span trees recorded by wrapping
  physical operators, exported as JSONL, rendered as ``EXPLAIN ANALYZE``.
* **Metrics** (:mod:`~repro.obs.metrics`, :mod:`~repro.obs.promlint`) —
  a bounded process-wide registry with Prometheus text exposition and a
  dependency-free format validator for CI.
* **Structured logging** (:mod:`~repro.obs.logging`) — NDJSON events
  with query/generation correlation IDs and a slow-query filter.
* **Cache efficacy** (:mod:`~repro.obs.efficacy`) — per-generation
  precision/recall of the MPJP prediction against realized parse demand,
  count- and byte-weighted.

The engine imports only :func:`~repro.obs.trace.span_if` (a span, or
a no-op when there is no tracer) at module load; the rest it reaches
lazily and only when a query carries a tracer, keeping the disabled path
byte-identical to the uninstrumented code.
"""

from .efficacy import EfficacyAccountant, GenerationEfficacy
from .explain import render_explain_analyze
from .instrument import TracedExec, instrument_plan
from .logging import StructuredLogger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .promlint import validate_text
from .systables import SYSTEM_DATABASE, SYSTEM_TABLES, TelemetryStore
from .trace import Span, TraceSink, Tracer, export_subtree

__all__ = [
    "Span",
    "Tracer",
    "TraceSink",
    "export_subtree",
    "TelemetryStore",
    "SYSTEM_DATABASE",
    "SYSTEM_TABLES",
    "TracedExec",
    "instrument_plan",
    "render_explain_analyze",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "StructuredLogger",
    "EfficacyAccountant",
    "GenerationEfficacy",
    "validate_text",
]
