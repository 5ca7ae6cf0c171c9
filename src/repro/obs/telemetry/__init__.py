"""Live cross-rank telemetry: agent, collector, health rules, registry.

The subsystem in one sentence: each mp rank folds a step's slice of its
event record into one ``step`` summary
(:func:`~repro.obs.telemetry.agent.step_summary`; off by default, armed by
``REPRO_TELEMETRY``) that rides the step reply; the parent's
:class:`~repro.obs.telemetry.collector.Collector` keeps sliding-window
time-series that a :class:`~repro.obs.telemetry.health.HealthMonitor`
evaluates into typed :class:`~repro.obs.telemetry.health.Alert`s; the
``repro.obs top`` dashboard, HTML snapshots, and the run registry
(:mod:`~repro.obs.telemetry.registry`, with ``repro.obs diff``) consume
the result.  Everything is bitwise-neutral to training.
"""

from repro.obs.telemetry.agent import ENV_VAR, enabled, step_summary
from repro.obs.telemetry.collector import DEFAULT_WINDOW, Collector, SlidingWindow
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
    "step_summary",
    "DEFAULT_WINDOW",
    "SlidingWindow",
    "Collector",
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
