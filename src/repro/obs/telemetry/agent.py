"""The worker's side of live telemetry: measure, emit, never fold.

With ``REPRO_TELEMETRY`` set, each mp worker ends a step by emitting what
only it can read into the step's slice of its event record
(:mod:`repro.parallel.backend.events`) — :func:`emit_step_telemetry`:

- three ``gauge`` events: ``loss`` (last pipeline stage only),
  ``ring_occupancy`` (its mailbox) and ``peak_rss_kb`` (its process),
- one ``fidelity`` event per compressed site with ``site rel_l2 ratio
  residual_norm``, the aggregates of a worker-local
  :class:`~repro.obs.fidelity.FidelityProbe`, which is then reset.

The slice rides the step reply to the parent with everything else, and
the parent folds it (:func:`repro.obs.metrics.step_rows`) and judges it
(:mod:`repro.obs.telemetry.health`).  It only observes: telemetry-on and
telemetry-off runs produce bitwise-identical losses and weights (tested),
and without the variable no probe is attached and nothing is emitted.
"""

from __future__ import annotations

import os

__all__ = ["ENV_VAR", "enabled", "process_peak_rss_kb", "emit_step_telemetry"]

#: Presence (any non-empty value except ``0``) turns telemetry on.
ENV_VAR = "REPRO_TELEMETRY"


def enabled() -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for step telemetry."""
    value = os.environ.get(ENV_VAR, "")
    return bool(value) and value != "0"


def process_peak_rss_kb() -> float:
    try:
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):  # non-POSIX hosts: gauge degrades to 0
        return 0.0


def emit_step_telemetry(record, probe, *, loss, ring_occupancy: int) -> None:
    """Emit a step's gauges and per-site fidelity into ``record``, then
    reset ``probe``; ``loss`` is ``None`` off the last pipeline stage."""
    if loss is not None:
        record.emit("gauge", name="loss", value=float(loss))
    record.emit("gauge", name="ring_occupancy", value=ring_occupancy)
    record.emit("gauge", name="peak_rss_kb", value=process_peak_rss_kb())
    for site, agg in probe.per_site().items():
        record.emit("fidelity", site=site, rel_l2=agg["rel_l2_error_mean"],
                    ratio=agg["ratio_mean"],
                    residual_norm=agg["residual_norm_last"])
    probe.reset()
