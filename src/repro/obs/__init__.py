"""Observability: run telemetry, compression-fidelity metrics, trace export.

The parent's observers write the same rank event record the mp workers do
(:mod:`repro.parallel.backend.events`, parent rank −1, one monotonic
clock), and every view below is a fold over those events.

- :mod:`repro.obs.metrics` — :class:`RunRecorder`, step-scoped gauges,
  counters and phase timers as events whose JSONL sink is the run file
  (:data:`NULL_RECORDER` is the free default); :func:`step_records` /
  :func:`summarize` are the per-step folds behind its CSV, its summary and
  ``repro.obs report``.
- :mod:`repro.obs.fidelity` — :class:`FidelityProbe`, attached to a
  ``CommTracker``, records per-site reconstruction error / realized
  ratio / EF-residual norms from inside the collectives.
- :mod:`repro.obs.profile` — :class:`OpProfiler`, an op-level
  deterministic profiler on the ``repro.tensor`` op-hook seam (wall time,
  call counts, FLOP/byte estimates, allocation high-water marks) whose
  spans, op calls and — while installed — ``comm`` events go to its record.
- :mod:`repro.obs.trace` — :func:`chrome_trace`, the one Chrome-trace
  (Perfetto) fold over rank events, the simulated GPipe/1F1B iteration
  trace, and :func:`merge_traces` to render them side by side.
- :mod:`repro.obs.telemetry` — live cross-rank telemetry: a per-rank
  step summary folded from the mp backend's rank event record
  (:func:`step_summary`), parent-side :class:`Collector` sliding windows,
  :class:`HealthMonitor` alert rules, the run registry and the
  terminal/HTML dashboards (``python -m repro.obs top / diff / html``).
- ``python -m repro.obs report run.jsonl`` — terminal report of a run.
"""

from repro.obs.fidelity import FidelityProbe, FidelityRecord
from repro.obs.metrics import (
    NULL_RECORDER,
    NullRecorder,
    RunRecorder,
    step_records,
    summarize,
)
from repro.obs.profile import OpProfiler, OpStats
from repro.obs.telemetry import (
    Alert,
    Collector,
    HealthMonitor,
    SlidingWindow,
    build_summary,
    default_rules,
    diff_runs,
    load_run,
    save_run,
    step_summary,
)
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
    "step_records",
    "summarize",
    "FidelityProbe",
    "FidelityRecord",
    "OpProfiler",
    "OpStats",
    "step_summary",
    "Collector",
    "SlidingWindow",
    "HealthMonitor",
    "Alert",
    "default_rules",
    "build_summary",
    "save_run",
    "load_run",
    "diff_runs",
    "chrome_trace",
    "simulated_iteration_trace",
    "merge_traces",
    "validate_against_breakdown",
    "write_trace",
]
