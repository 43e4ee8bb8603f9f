"""Host-speed calibration and the estimators every metric is built from.

Stdlib only, never imports ``repro``: a change under ``src/`` cannot move
the calibration kernel, so it cannot move the normalisation either.

The sandbox's CPU speed drifts by tens of percent over seconds, and
``time.process_time()`` drifts with it (the slowdown is clock speed, not
descheduling). What repeats is the *ratio* of a stretch of identical work
to a fixed kernel run immediately around it, and the *median* of that
ratio over many batches.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

__all__ = [
    "REFERENCE_CAL_MS",
    "calibrate_ms",
    "normalise",
    "run_calibrated",
    "run_ticked",
    "percentile",
    "percentile_owner",
    "geomean",
    "quartile_spread",
]

#: Frozen: what the calibration kernel took on the reference host when the
#: benchmark was defined (median of 300 runs). Normalised times read as
#: "time at reference speed".
REFERENCE_CAL_MS = 0.75

_PARSES = 18

#: Requests run this long between two calibrations.
STRETCH_SECONDS = 0.008
#: A call that cannot be split is interrupted this often for one.
TICK_SECONDS = 0.010

_DOCUMENT = (
    '{"id": 12345, "name": "alpha-beta-gamma", "tags": ["x", "y", "zed", "w"], '
    '"nested": {"a": 1.5, "b": [1, 2, 3, {"c": "deep", "d": null}], "e": true}, '
    '"filler": "' + "abcdefghijklmnopqrstuvwxyz" * 6 + '", "metric": 9021, '
    '"items": [' + ", ".join('{"k": %d, "v": "val%d"}' % (i, i) for i in range(8)) + "]}"
)
_SPACE = " \t\n\r"


def _parse(text: str, at: int):
    """(value, next index) of the JSON value of ``_DOCUMENT``'s dialect
    (no string escapes) that starts at or after ``text[at]``."""
    while text[at] in _SPACE:
        at += 1
    char = text[at]
    if char == '"':
        end = text.index('"', at + 1)
        return text[at + 1:end], end + 1
    if char == "{":
        members = {}
        at += 1
        while True:
            while text[at] in _SPACE:
                at += 1
            if text[at] == "}":
                return members, at + 1
            key, at = _parse(text, at)
            while text[at] in _SPACE:
                at += 1
            members[key], at = _parse(text, at + 1)  # past the colon
            while text[at] in _SPACE:
                at += 1
            if text[at] == ",":
                at += 1
    if char == "[":
        items = []
        at += 1
        while True:
            while text[at] in _SPACE:
                at += 1
            if text[at] == "]":
                return items, at + 1
            item, at = _parse(text, at)
            items.append(item)
            while text[at] in _SPACE:
                at += 1
            if text[at] == ",":
                at += 1
    for literal, value in (("true", True), ("false", False), ("null", None)):
        if text.startswith(literal, at):
            return value, at + len(literal)
    end = at
    while end < len(text) and text[end] in "+-0123456789.eE":
        end += 1
    number = text[at:end]
    return (float(number) if "." in number or "e" in number.lower() else int(number)), end


def _kernel(parses: int) -> int:
    """A fixed piece of the program's kind of work: a recursive-descent
    parse of one small JSON document, character tests, slices and
    dict/list builds included. Over minutes of the same batches a parse
    kernel tracked them closer than an arithmetic loop did (15 s window
    medians within 1.2 % against 2.1 % on ``raw_parse``)."""
    members = 0
    for _ in range(parses):
        members += len(_parse(_DOCUMENT, 0)[0])
    return members


def calibrate_ms(recorder=None) -> float:
    """Wall milliseconds of one kernel run (≈ ``REFERENCE_CAL_MS`` on
    the reference host); with a ``bench.trace.SpanRecorder`` inside a
    ``bench.calibrate`` span, so a traced batch can tell the benchmark's
    kernels from the program.

    The kernel is small because host speed moves within a batch, not only
    between batches: two 12 ms kernels around a 0.3 s batch left a
    10–19 % batch-to-batch spread, this one every few milliseconds of
    work leaves 5–9 %."""
    span = recorder.begin("bench.calibrate") if recorder is not None else None
    started = time.perf_counter()
    _kernel(_PARSES)
    elapsed = time.perf_counter() - started
    if span is not None:
        recorder.end(span)
    return elapsed * 1000.0


def normalise(clocked: float, cal_ms: float) -> float:
    """``t_norm = t_clocked × REFERENCE_CAL_MS / cal_ms``."""
    return clocked * (REFERENCE_CAL_MS / cal_ms)


def run_ticked(call, recorder=None):
    """``call()`` — work the benchmark cannot split: a cache build, a
    spawn, a midnight cycle, a probe repetition — timed against kernels
    run before it, after it and, from a ``SIGALRM`` handler, every
    ``TICK_SECONDS`` while it runs. Main thread only.

    Returns ``(result, clocked seconds, normalised seconds, kernel
    samples in ms)``; the kernels' own time is taken out of both
    readings, and the normalised one is the mean over the samples. Two
    kernels around a 1.2 s cache build, host speed drifting inside it,
    read 1.03–1.52 s over twelve builds; with the ticks, 1.17–1.32 s.
    The handler runs between two bytecodes of the main thread, so it
    also serves a call whose work is done by a worker thread or a shard
    while the main thread waits.
    """
    samples = [calibrate_ms(recorder)]

    def tick(signum, frame) -> None:
        samples.append(calibrate_ms(recorder))

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
    started = time.perf_counter()
    try:
        result = call()
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    clocked = elapsed - sum(samples[1:]) / 1000.0
    samples.append(calibrate_ms(recorder))
    return result, clocked, statistics.fmean(normalise(clocked, k) for k in samples), samples


def run_calibrated(requests, execute, recorder=None, label: str = ""):
    """Run ``requests`` one at a time (closed loop, one client) with a
    calibration before the first and again after every
    ``STRETCH_SECONDS`` of requests; each stretch is normalised by the
    two kernels around it.

    Returns ``(results, calibrations)``: one ``(request, latency seconds,
    outcome or the exception raised, scale)`` per request, where
    ``latency × scale`` is the normalised latency, and every kernel
    sample in milliseconds. With a ``bench.trace.SpanRecorder`` each
    request and each kernel runs inside a span.
    """
    results: list[list] = []
    calibrations = [calibrate_ms(recorder)]
    stretch_start, stretch_s = 0, 0.0
    last = len(requests) - 1
    for position, request in enumerate(requests):
        if recorder is not None:
            span = recorder.begin_request(f"{label}q{position}")
        sent = time.perf_counter()
        try:
            outcome = execute(request)
        except Exception as exc:  # a failed request is a result, not a crash
            outcome = exc
        latency = time.perf_counter() - sent
        if recorder is not None:
            recorder.end_request(span)
        results.append([request, latency, outcome, 1.0])
        stretch_s += latency
        if stretch_s >= STRETCH_SECONDS or position == last:
            calibrations.append(calibrate_ms(recorder))
            scale = normalise(1.0, (calibrations[-2] + calibrations[-1]) / 2.0)
            for result in results[stretch_start:]:
                result[3] = scale
            stretch_start, stretch_s = len(results), 0.0
    return results, calibrations


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (1-based rank ``ceil(fraction × n)``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def percentile_owner(
    class_counts: dict[str, int],
    class_order: list[str],
    fraction: float,
) -> tuple[str, float]:
    """Which class a pooled percentile falls in, and how far inside.

    ``class_counts`` is one batch's histogram; ``class_order`` lists the
    classes from fastest to slowest. Returns the owning class and the
    distance, in percentage points of the pooled sample, from the
    percentile to the nearer edge of that class's band. A pooled
    percentile that sits on a band edge flips between two latency levels
    from run to run; the workloads are laid out so this margin is ≥ 3.
    """
    total = sum(class_counts[c] for c in class_order)
    target = fraction * 100.0
    low = 0.0
    for name in class_order:
        high = low + 100.0 * class_counts[name] / total
        if target <= high or name == class_order[-1]:
            return name, min(target - low, high - target)
        low = high
    raise ValueError("empty class order")


def geomean(values) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> float:
    """(Q3 − Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
