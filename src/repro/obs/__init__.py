"""Observability: run telemetry, compression-fidelity metrics, trace export.

- :mod:`repro.obs.metrics` — :class:`RunRecorder` step-scoped telemetry
  with JSONL/CSV sinks (:data:`NULL_RECORDER` is the free default).
- :mod:`repro.obs.fidelity` — :class:`FidelityProbe`, attached to a
  ``CommTracker``, records per-site reconstruction error / realized
  ratio / EF-residual norms from inside the collectives.
- :mod:`repro.obs.profile` — :class:`OpProfiler`, an op-level
  deterministic profiler on the ``repro.tensor`` op-hook seam (wall time,
  call counts, FLOP/byte estimates, allocation high-water marks, span
  stack with ``CommTracker`` cross-links).
- :mod:`repro.obs.trace` — Chrome-trace (Perfetto) export of recorded
  runs, profiled sessions and simulated GPipe iterations, plus
  :func:`merge_traces` to render them side by side.
- :mod:`repro.obs.telemetry` — live cross-rank telemetry: a per-rank
  step summary folded from the mp backend's rank event record
  (:func:`step_summary`), parent-side :class:`Collector` sliding windows,
  :class:`HealthMonitor` alert rules, the run registry and the
  terminal/HTML dashboards (``python -m repro.obs top / diff / html``).
- ``python -m repro.obs report run.jsonl`` — terminal report of a run.
"""

from repro.obs.fidelity import FidelityProbe, FidelityRecord
from repro.obs.metrics import NULL_RECORDER, NullRecorder, RunRecorder, load_jsonl
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
    merge_traces,
    profiler_trace,
    simulated_iteration_trace,
    trace_from_run,
    validate_against_breakdown,
    write_trace,
)

__all__ = [
    "RunRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "load_jsonl",
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
    "trace_from_run",
    "simulated_iteration_trace",
    "profiler_trace",
    "merge_traces",
    "validate_against_breakdown",
    "write_trace",
]
