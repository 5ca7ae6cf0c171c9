"""Live cross-rank telemetry: worker gauges, health rules, registry.

The subsystem in one sentence: with ``REPRO_TELEMETRY`` set (off by
default), each mp rank ends a step by emitting its gauges and per-site
fidelity into the step's slice of its event record
(:func:`~repro.obs.telemetry.agent.emit_step_telemetry`), which rides the
step reply; the parent folds the slices into rows
(:func:`repro.obs.metrics.step_rows`), a
:class:`~repro.obs.telemetry.health.HealthMonitor` evaluates its rules
over the last :data:`~repro.obs.telemetry.health.WINDOW` steps of rows
into typed :class:`~repro.obs.telemetry.health.Alert`s, and the
``repro.obs top`` dashboard, HTML snapshots and the run registry
(:mod:`~repro.obs.telemetry.registry`, with ``repro.obs diff``) read the
same rows.  Everything is bitwise-neutral to training.
"""

from repro.obs.telemetry.agent import ENV_VAR, enabled
from repro.obs.telemetry.dashboard import render_html, render_top, write_html
from repro.obs.telemetry.health import (
    Alert,
    CommStallRule,
    FidelityDriftRule,
    HealthMonitor,
    LossRule,
    RetryStormRule,
    Rule,
    StragglerRule,
    default_rules,
)
from repro.obs.telemetry.registry import (
    RUN_SCHEMA,
    RunSchemaError,
    build_summary,
    diff_runs,
    format_diff,
    list_runs,
    load_run,
    resolve_run,
    save_run,
    validate_run,
)

__all__ = [
    "ENV_VAR",
    "enabled",
    "Alert",
    "Rule",
    "StragglerRule",
    "CommStallRule",
    "RetryStormRule",
    "FidelityDriftRule",
    "LossRule",
    "HealthMonitor",
    "default_rules",
    "RUN_SCHEMA",
    "RunSchemaError",
    "validate_run",
    "build_summary",
    "save_run",
    "load_run",
    "list_runs",
    "resolve_run",
    "diff_runs",
    "format_diff",
    "render_top",
    "render_html",
    "write_html",
]
