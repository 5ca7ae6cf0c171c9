"""Observability: run telemetry, compression-fidelity metrics, trace export.

The parent's observers write the same rank event record the mp workers do
(:mod:`repro.parallel.backend.events`, parent rank −1, one monotonic
clock), and every view below is a fold over those events.

- :mod:`repro.obs.metrics` — :class:`RunRecorder`, step-scoped gauges,
  counters and phase timers as events whose JSONL sink is the run file
  (:data:`NULL_RECORDER` is the free default), and :func:`step_rows`, the
  one per-step fold: one row per (rank, step) of any ranks' events.  Its
  rows are behind the recorder's CSV and the health rules, and
  :func:`summarize` folds them into the one run-level summary —
  windows, per-site fidelity, replayed alerts — that ``repro.obs
  report``, ``top``, ``diff`` and ``html`` render.  Compression
  fidelity is one more rank event: the collectives emit a ``fidelity``
  event per compressed-site call into the active record (an installed
  recorder's step, a profiler, an observed mp step), and the fold pools
  them per site.
- :mod:`repro.obs.profile` — :class:`OpProfiler`, an op-level
  deterministic profiler on the ``repro.tensor`` op-hook seam (wall time,
  call counts, FLOP/byte estimates, allocation high-water marks) whose
  spans, op calls and — while installed — ``comm`` and ``fidelity``
  events go to its record.
- :mod:`repro.obs.trace` — :func:`chrome_trace`, the one Chrome-trace
  (Perfetto) fold over rank events, the simulated GPipe/1F1B iteration
  trace, and :func:`merge_traces` to render them side by side.
- :mod:`repro.obs.telemetry` — live cross-rank telemetry: the mp
  workers' step-end gauge events, ``HealthMonitor`` alert rules over
  :func:`step_rows` rows, the run registry (a directory of run files and
  the one loader that reads them) and the terminal/HTML views
  (``python -m repro.obs top / diff / html``); its names are imported
  from there.
- ``python -m repro.obs report RUN`` — terminal report of any run file:
  a ``RunRecorder``'s, ``smoke``'s or ``top``'s (every rank's events).
"""

from repro.obs.metrics import (
    NULL_RECORDER,
    NullRecorder,
    RunRecorder,
    step_rows,
    summarize,
)
from repro.obs.profile import OpProfiler, OpStats
from repro.obs.trace import (
    chrome_trace,
    merge_traces,
    simulated_iteration_trace,
    validate_against_breakdown,
    write_trace,
)

__all__ = [
    "RunRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "step_rows",
    "summarize",
    "OpProfiler",
    "OpStats",
    "chrome_trace",
    "simulated_iteration_trace",
    "merge_traces",
    "validate_against_breakdown",
    "write_trace",
]
