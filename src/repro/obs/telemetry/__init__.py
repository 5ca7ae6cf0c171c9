"""Live cross-rank telemetry: worker gauges, health rules, run views.

The subsystem in one sentence: on an observed step (off by default;
``collect_timelines`` or the ``REPRO_CONC_LOG`` sink), each mp rank ends
the step by emitting its gauges into the step's slice of its event record
(:func:`~repro.obs.telemetry.agent.emit_step_telemetry`), beside the
``fidelity`` events its collectives emitted, and the slice rides the step
reply when the parent collects it; ``repro.obs top`` streams the slices
with its own into one run file, a rank-event JSONL file like every other
(:mod:`~repro.obs.telemetry.registry`), and
:func:`repro.obs.metrics.summarize` folds any run file's events — per-step
rows (:func:`repro.obs.metrics.step_rows`), windows over each rank's last
:data:`~repro.obs.telemetry.health.WINDOW` of them, and the typed alerts
(:class:`~repro.obs.telemetry.health.Alert`) a
:class:`~repro.obs.telemetry.health.HealthMonitor` raises over them step by
step — into the one summary that the terminal and HTML views and
``repro.obs diff`` read.  Everything is bitwise-neutral to training.
"""

from repro.obs.telemetry.dashboard import render_html, render_top, write_html
from repro.obs.telemetry.health import (
    Alert,
    CommStallRule,
    FidelityDriftRule,
    HealthMonitor,
    LossRule,
    Rule,
    StragglerRule,
    default_rules,
)
from repro.obs.telemetry.registry import (
    check_run_id,
    diff_runs,
    format_diff,
    list_runs,
    read_run,
    resolve_run,
)

__all__ = [
    "Alert",
    "Rule",
    "StragglerRule",
    "CommStallRule",
    "FidelityDriftRule",
    "LossRule",
    "HealthMonitor",
    "default_rules",
    "check_run_id",
    "list_runs",
    "resolve_run",
    "read_run",
    "diff_runs",
    "format_diff",
    "render_top",
    "render_html",
    "write_html",
]
