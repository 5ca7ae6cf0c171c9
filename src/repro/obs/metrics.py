"""Run telemetry: step-scoped timers, counters and gauges as rank events.

A :class:`RunRecorder` is a parent-side producer of the rank event record
(:mod:`repro.parallel.backend.events`, rank −1).  Within a step the caller
sets *gauges* (instantaneous values: loss, grad-norm, lr), bumps *counters*
(monotonic totals: tokens, samples) and wraps code regions in *timers*
(phase wall-time).  They become ``gauge``, ``count`` and ``span`` (cat
``phase``) events between a ``step_begin`` and a ``step_end``.

The record's JSONL sink is the run file: ``stream_path`` is written live,
one flush per completed step, in the ``conc-rank*.jsonl`` format, and
:func:`~repro.parallel.backend.events.load_events` reads it back.  Every
view — :attr:`RunRecorder.records`, :meth:`RunRecorder.to_csv`,
:meth:`RunRecorder.summary`, ``repro.obs report`` and
:func:`repro.obs.trace.chrome_trace` — is a fold over those events;
:func:`step_records` and :func:`summarize` are the per-step ones.

Untouched callers pay nothing: every recording entry point takes an
optional recorder defaulting to :data:`NULL_RECORDER`, whose methods are
no-ops (the timer context manager yields without reading the clock).
"""

from __future__ import annotations

import contextlib
import csv
import os
import time
from typing import Iterator

from repro.parallel.backend.events import EventRecord

__all__ = ["RunRecorder", "NullRecorder", "NULL_RECORDER", "step_records",
           "summarize"]


def step_records(events) -> list[dict]:
    """One dict per closed step: ``step t_start_ms wall_ms gauges counters
    timers_ms``, with ``t_start_ms`` relative to the first event."""
    records: list[dict] = []
    origin = current = None
    begin = 0.0
    for e in events:
        if origin is None:
            origin = e["t"]
        kind = e["kind"]
        if kind == "step_begin":
            begin = e["t"]
            current = {"step": e["step"], "t_start_ms": (begin - origin) * 1e3,
                       "wall_ms": None, "gauges": {}, "counters": {},
                       "timers_ms": {}}
        elif current is None:
            continue
        elif kind == "step_end":
            current["wall_ms"] = (e["t"] - begin) * 1e3
            records.append(current)
            current = None
        elif kind == "gauge":
            current["gauges"][e["name"]] = e["value"]
        elif kind == "count":
            counters = current["counters"]
            counters[e["name"]] = counters.get(e["name"], 0) + e["n"]
        elif kind == "span" and e["cat"] == "phase":
            timers = current["timers_ms"]
            timers[e["name"]] = timers.get(e["name"], 0.0) + e["dur"] * 1e3
    return records


def summarize(events) -> dict:
    """Aggregates over a run: per-gauge last/mean/min/max, per-timer and
    per-counter totals, summed step wall time."""
    meta = next((e for e in events if e["kind"] == "meta"), {})
    records = step_records(events)
    gauges: dict[str, list[float]] = {}
    timers: dict[str, float] = {}
    counters: dict[str, int] = {}
    for record in records:
        for name, value in record["gauges"].items():
            gauges.setdefault(name, []).append(value)
        for name, value in record["timers_ms"].items():
            timers[name] = timers.get(name, 0.0) + value
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {
        "run_id": meta.get("run_id", "?"),
        "steps": len(records),
        "wall_ms": sum(r["wall_ms"] for r in records),
        "gauges": {
            name: {"last": vals[-1], "mean": sum(vals) / len(vals),
                   "min": min(vals), "max": max(vals)}
            for name, vals in gauges.items()
        },
        "timers_ms": timers,
        "counters": counters,
    }


class RunRecorder:
    """Collects per-step metrics for one run as rank events.

    Parameters
    ----------
    run_id:
        Label stamped on the record's ``meta`` event (scheme, task, layout...).
    meta:
        Extra key/value context for the ``meta`` event.
    stream_path:
        Optional JSONL path, the record's sink, (re)created at construction
        with the ``meta`` event; every completed step is appended — and
        flushed — from :meth:`end_step`, so a run killed mid-flight (chaos
        plans, SIGKILL) retains every completed step with no truncated line.
    """

    enabled: bool = True

    def __init__(self, run_id: str = "run", meta: dict | None = None,
                 stream_path: str | None = None):
        self.run_id = run_id
        self.meta = dict(meta) if meta else {}
        self.stream_path = stream_path
        if stream_path is not None:
            os.makedirs(os.path.dirname(os.path.abspath(stream_path)), exist_ok=True)
            open(stream_path, "w", encoding="utf-8").close()  # a new run, a new file
        self.record = EventRecord(-1, 1, stream_path)
        self.record.events[0].update(run_id=run_id, **self.meta)  # the meta event
        #: Every flushed event of the run (the sink forgets, this does not).
        self.events: list[dict] = self.record.flush()
        self._step: int | None = None
        self._next_step = 0

    # ------------------------------------------------------------------
    # Step lifecycle
    # ------------------------------------------------------------------
    def start_step(self, step: int | None = None) -> None:
        """Open a new step (implicitly closing an unfinished one)."""
        if self._step is not None:
            self.end_step()
        self._step = step if step is not None else self._next_step
        self._next_step = self._step + 1
        self.record.emit("step_begin", step=self._step)

    def end_step(self) -> None:
        """Close the open step and flush it to the sink."""
        if self._step is None:
            raise RuntimeError("end_step() without a matching start_step()")
        self.record.emit("step_end", step=self._step)
        self._step = None
        # One append per step: a SIGKILL between steps can lose at most
        # the step in progress, never corrupt a written line.
        self.events += self.record.flush()

    @contextlib.contextmanager
    def step(self, step: int | None = None) -> Iterator[None]:
        """``with recorder.step():`` — start/end pair as a context."""
        self.start_step(step)
        try:
            yield
        finally:
            self.end_step()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _open(self) -> None:
        if self._step is None:
            self.start_step()

    def gauge(self, name: str, value: float) -> None:
        """Set an instantaneous value for this step (last write wins)."""
        self._open()
        self.record.emit("gauge", name=name, value=float(value))

    def count(self, name: str, n: int = 1) -> None:
        """Increment a per-step counter."""
        self._open()
        self.record.emit("count", name=name, n=n)

    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Record the wrapped region as a ``phase`` span of this step."""
        start = time.monotonic()
        try:
            yield
        finally:
            self._open()
            self.record.span(name, "phase", start)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[dict]:
        """The completed steps (:func:`step_records` of :attr:`events`)."""
        return step_records(self.events)

    def to_csv(self, path: str) -> str:
        """Write one flattened row per step; returns ``path``.

        Columns are the union over steps: ``gauge.*``, ``counter.*`` and
        ``timer_ms.*`` prefixes keep the three instrument kinds apart.
        """
        columns = ["step", "t_start_ms", "wall_ms"]
        groups = (("gauge", "gauges"), ("counter", "counters"),
                  ("timer_ms", "timers_ms"))
        rows = []
        for record in self.records:
            row = {k: record[k] for k in columns}
            for prefix, group in groups:
                for name, value in record[group].items():
                    row[f"{prefix}.{name}"] = value
            rows.append(row)
        extras = sorted({col for row in rows for col in row} - set(columns))
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns + extras)
            writer.writeheader()
            writer.writerows(rows)
        return path

    def summary(self) -> dict:
        """:func:`summarize` over the run's events."""
        return summarize(self.events)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(run_id={self.run_id!r}, steps={len(self.records)})"


class NullRecorder(RunRecorder):
    """No-op recorder: the default for every instrumented call site.

    Methods neither read the clock nor emit events, so threading a
    recorder through a hot loop costs one attribute lookup per call.
    """

    enabled = False

    def __init__(self):
        super().__init__(run_id="null")

    def start_step(self, step: int | None = None) -> None:
        return None

    def end_step(self) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def count(self, name: str, n: int = 1) -> None:
        return None

    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        yield


#: Shared no-op instance used as the default recorder everywhere.
NULL_RECORDER = NullRecorder()
