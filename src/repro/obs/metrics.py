"""Run telemetry: step-scoped timers, counters and gauges as rank events.

A :class:`RunRecorder` is a parent-side producer of the rank event record
(:mod:`repro.parallel.backend.events`, rank −1).  Within a step the caller
sets *gauges* (instantaneous values: loss, grad-norm, lr), bumps *counters*
(monotonic totals: tokens, samples) and wraps code regions in *timers*
(phase wall-time).  They become ``gauge``, ``count`` and ``span`` (cat
``phase``) events between a ``step_begin`` and a ``step_end``.  While a
step is open the recorder's record is the process's active one, so an
in-process step's ``comm`` and ``fidelity`` events land in it too; work
outside a step (evaluation) records nothing.

The record's JSONL sink is the run file: ``stream_path`` is written live,
one flush per completed step, in the ``conc-rank*.jsonl`` format, and
:func:`~repro.parallel.backend.events.load_events` reads it back.  Every
view — :attr:`RunRecorder.records`, :meth:`RunRecorder.to_csv`,
:meth:`RunRecorder.summary`, ``repro.obs report`` and
:func:`repro.obs.trace.chrome_trace` — is a fold over those events.
:func:`step_rows` is the one per-step fold, for this record and the mp
workers' alike (the parent's rows are rank −1): the health rules read its
rows, and :func:`summarize` folds them into the one run-level dict that
``repro.obs report``, ``top``, ``html`` and ``diff`` render.

Untouched callers pay nothing: every recording entry point takes an
optional recorder defaulting to :data:`NULL_RECORDER`, whose methods are
no-ops (the timer context manager yields without reading the clock).
"""

from __future__ import annotations

import collections
import contextlib
import csv
import os
import time
from typing import Iterator

from repro.parallel.backend import events as _events
from repro.parallel.backend.events import EventRecord

__all__ = ["RunRecorder", "NullRecorder", "NULL_RECORDER", "STEP_COLUMNS",
           "step_rows", "summarize"]


#: The numeric per-step columns of a :func:`step_rows` row; ``gauges``,
#: ``counters``, ``timers_ms`` and ``fidelity`` are dicts beside them.
STEP_COLUMNS = ("wall_ms", "comm_wait_ms", "busy_ms", "fault_ms", "retries",
                "drops", "delays")

def _fold_site(calls: list[dict]) -> dict:
    """One site's ``fidelity`` events of one step, as a row's entry."""
    n = len(calls)
    return {"rel_l2": sum(e["rel_l2"] for e in calls) / n,
            "ratio": sum(e["ratio"] for e in calls) / n,
            "residual_norm": calls[-1]["residual_norm"]}


def step_rows(events) -> list[dict]:
    """The per-step fold: one row per (rank, step) that a ``step_end`` closes.

    ``events`` is any mix of ranks in per-rank order (step slices off the
    reply, :func:`~repro.parallel.backend.events.load_events` output, a
    recorder's events); rows come out in ``step_end`` order.  Columns:

    - ``rank step``, and ``t_start_ms`` from the rank's first event;
    - ``wall_ms`` (``step_begin`` → ``step_end``), ``comm_wait_ms``
      (``mp.wait`` spans), ``busy_ms`` (wall − wait, at least 0) and
      ``fault_ms`` (``mp.fault`` spans);
    - ``retries drops delays``, counted from ``fault`` events (a retry is
      a corrupt or a dropped attempt);
    - ``gauges`` (last write wins), ``counters`` (summed), ``timers_ms``
      (``phase`` spans by name) and ``fidelity`` (site → the mean
      ``rel_l2`` and ``ratio`` and the last ``residual_norm`` of the
      step's ``fidelity`` events there).
    """
    rows: list[dict] = []
    origin: dict[int, float] = {}
    begin: dict[int, float] = {}
    current: dict[int, dict] = {}
    for e in events:
        rank, kind = e["rank"], e["kind"]
        origin.setdefault(rank, e["t"])
        if kind == "step_begin":
            begin[rank] = e["t"]
            current[rank] = {
                "rank": rank, "step": e["step"],
                "t_start_ms": (e["t"] - origin[rank]) * 1e3, "wall_ms": None,
                "comm_wait_ms": 0.0, "busy_ms": 0.0, "fault_ms": 0.0,
                "retries": 0, "drops": 0, "delays": 0, "gauges": {},
                "counters": {}, "timers_ms": {}, "fidelity": {}}
            continue
        row = current.get(rank)
        if row is None:
            continue
        if kind == "step_end":
            row["wall_ms"] = (e["t"] - begin[rank]) * 1e3
            row["busy_ms"] = max(row["wall_ms"] - row["comm_wait_ms"], 0.0)
            row["fidelity"] = {site: _fold_site(calls)
                               for site, calls in row["fidelity"].items()}
            rows.append(current.pop(rank))
        elif kind == "span":
            ms = e["dur"] * 1e3
            if e["cat"] == "mp.wait":
                row["comm_wait_ms"] += ms
            elif e["cat"] == "mp.fault":
                row["fault_ms"] += ms
            elif e["cat"] == "phase":
                timers = row["timers_ms"]
                timers[e["name"]] = timers.get(e["name"], 0.0) + ms
        elif kind == "fault":
            row["retries"] += e["fault"] in ("corrupt", "drop")
            row["drops"] += e["fault"] == "drop"
            row["delays"] += e["fault"] == "delay"
        elif kind == "gauge":
            row["gauges"][e["name"]] = e["value"]
        elif kind == "count":
            counters = row["counters"]
            counters[e["name"]] = counters.get(e["name"], 0) + e["n"]
        elif kind == "fidelity":
            # An open row holds each site's calls; step_end folds them.
            row["fidelity"].setdefault(e["site"], []).append(e)
    return rows


def summarize(events) -> dict:
    """The run-level fold: every run view (``repro.obs report``, ``top``,
    ``html``, ``diff``) reads this one dict.  Over :func:`step_rows` of
    ``events``, any mix of ranks:

    - ``run_id`` and ``meta``, the first ``meta`` event's fields;
    - ``steps``, summed step ``wall_ms``, per-gauge ``last mean min max`` and
      per-timer and per-counter totals, over the lead rank's rows: the
      parent's (rank −1) when it recorded, else the lowest rank's;
    - ``fidelity``: per compression site, over every rank's rows, the steps
      that observed it, the mean and max of its ``rel_l2``, the mean
      ``ratio`` and the last ``residual_norm``;
    - ``ranks``, ``last_step``, ``per_rank`` and ``pooled``: window
      statistics (:func:`~repro.obs.telemetry.health.window_stats`, with
      ``count`` the run's samples) per worker rank and metric — the step
      columns and the gauges — and pooled over the worker ranks, where a
      gauge the parent records is the run's own series and replaces the
      pooled one (``loss``: one value per step, not one per stage);
    - ``health``: the alerts a default
      :class:`~repro.obs.telemetry.health.HealthMonitor` raises checking the
      rows after each step, as ``repro.obs top`` shows them live.  They are
      replayed here, never stored.
    """
    from repro.obs.telemetry.health import (
        PARENT, WINDOW, HealthMonitor, values, window, window_stats, worker_ranks)

    meta = next((e for e in events if e["kind"] == "meta"), {})
    rows = step_rows(events)
    lead = min((row["rank"] for row in rows), default=PARENT)
    own = [row for row in rows if row["rank"] == lead]
    gauges: dict[str, list[float]] = {}
    timers: dict[str, float] = {}
    counters: dict[str, int] = {}
    for row in own:
        for name, value in row["gauges"].items():
            gauges.setdefault(name, []).append(value)
        for name, value in row["timers_ms"].items():
            timers[name] = timers.get(name, 0.0) + value
        for name, value in row["counters"].items():
            counters[name] = counters.get(name, 0) + value
    fidelity: dict[str, list[dict]] = {}
    for row in rows:
        for site, fields in row["fidelity"].items():
            fidelity.setdefault(site, []).append({"step": row["step"], **fields})

    recent = window(rows)

    def stats(metric: str, rank: int | None = None) -> dict:
        return {**window_stats(values(recent, metric, rank)),
                "count": len(values(rows, metric, rank))}

    ranks = worker_ranks(rows)
    metrics = [*STEP_COLUMNS, *sorted({g for row in rows if row["rank"] >= 0
                                       for g in row["gauges"]})]
    pooled = {m: stats(m) for m in metrics if values(rows, m)}
    pooled.update({g: stats(g, PARENT) for row in rows
                   if row["rank"] == PARENT for g in row["gauges"]})
    monitor = HealthMonitor()
    tails: dict[int, collections.deque] = {}  # what ``window`` can return
    for i, row in enumerate(rows):  # a check as each step's last row lands
        tails.setdefault(row["rank"], collections.deque(maxlen=WINDOW)).append(row)
        if i + 1 == len(rows) or rows[i + 1]["step"] != row["step"]:
            monitor.check([r for tail in tails.values() for r in tail], row["step"])
    return {
        "run_id": meta.get("run_id", "?"),
        "meta": {k: v for k, v in meta.items() if k not in ("kind", "rank", "idx", "t")},
        "steps": len(own),
        "wall_ms": sum(row["wall_ms"] for row in own),
        "gauges": {
            name: {"last": vals[-1], "mean": sum(vals) / len(vals),
                   "min": min(vals), "max": max(vals)}
            for name, vals in gauges.items()
        },
        "timers_ms": timers,
        "counters": counters,
        "fidelity": {
            site: {"steps": len({f["step"] for f in calls}),
                   "rel_l2_mean": sum(f["rel_l2"] for f in calls) / len(calls),
                   "rel_l2_max": max(f["rel_l2"] for f in calls),
                   "ratio_mean": sum(f["ratio"] for f in calls) / len(calls),
                   "residual_norm_last": calls[-1]["residual_norm"]}
            for site, calls in fidelity.items()
        },
        "ranks": ranks,
        "last_step": {row["rank"]: row["step"] for row in rows if row["rank"] >= 0},
        "per_rank": {rank: {m: stats(m, rank) for m in metrics if values(rows, m, rank)}
                     for rank in ranks},
        "pooled": pooled,
        "health": monitor.summary(),
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
        """Open a new step (implicitly closing an unfinished one) and make
        the record the active one until :meth:`end_step`."""
        if self._step is not None:
            self.end_step()
        self._step = step if step is not None else self._next_step
        self._next_step = self._step + 1
        self._previous = _events.active()
        _events.install(self.record)
        self.record.emit("step_begin", step=self._step)

    def end_step(self) -> None:
        """Close the open step, hand the record seam back to its previous
        owner and flush the step to the sink."""
        if self._step is None:
            raise RuntimeError("end_step() without a matching start_step()")
        self.record.emit("step_end", step=self._step)
        _events.install(self._previous)
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
        """The completed steps (:func:`step_rows` of :attr:`events`)."""
        return step_rows(self.events)

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
