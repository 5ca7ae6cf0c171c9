"""Spans and self time of the e2e benchmark's traced run.

A span is ``{"name", "start", "end", "parent", "step"}``: ``start``/``end``
are ``time.perf_counter()`` seconds, ``parent`` is the index of the span
that was open when this one began (``None`` for a root), ``step`` is the
step number every span of one optimizer step shares.  Spans are kept in
memory and written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time

__all__ = ["Tracer", "NULL_TRACER", "samples_beyond", "self_times",
           "median_ms_by_name", "chrome_trace", "write_chrome_trace"]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile.

    Percentiles follow ``np.percentile``'s default rule: rank
    ``(n - 1) * q / 100``, interpolated linearly between order statistics.
    One is only reported as trustworthy with at least ten samples beyond
    it: p95 needs n >= 200, p99 needs n >= 1000.
    """
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, step: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if step is None and parent is not None:
            step = self.spans[parent]["step"]
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "step": step}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class _NullTracer:
    """Tracing off: ``span`` hands back one shared no-op context manager."""

    spans: tuple = ()
    _noop = contextlib.nullcontext()

    def span(self, name: str, step: int | None = None):
        return self._noop


NULL_TRACER = _NullTracer()


def self_times(spans: list[dict]) -> list[float]:
    """Per-span self time in seconds: duration minus what children cover.

    Children may overlap one another (rank timelines of one ``train_step``
    run in parallel), so the covered part is the *union* of the direct
    children's intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def median_ms_by_name(spans: list[dict]) -> dict[str, float]:
    """Median duration (ms) of the spans sharing each name."""
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(
            (span["end"] - span["start"]) * 1e3)
    return {name: statistics.median(durs) for name, durs in by_name.items()}


def chrome_trace(spans: list[dict], meta: dict) -> dict:
    """Chrome ``traceEvents`` document (open in chrome://tracing / Perfetto).

    Spans carry an optional ``track`` (default ``"step loop"``): the step
    loop is one thread, each mp rank's timeline another.  ``args`` holds
    the step number and the span's self time.
    """
    tracks: dict[str, int] = {}
    events = []
    origin = min((s["start"] for s in spans), default=0.0)
    for span, self_s in zip(spans, self_times(spans)):
        track = span.get("track", "step loop")
        tid = tracks.setdefault(track, len(tracks))
        events.append({
            "name": span["name"], "ph": "X", "pid": 0, "tid": tid,
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"step": span["step"], "self_us": self_s * 1e6},
        })
    for track, tid in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                       "args": {"name": track}})
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def write_chrome_trace(path: str, spans: list[dict], meta: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans, meta), fh)
