"""The worker's side of live telemetry: measure, emit, never fold.

An mp worker ends each observed step (the parent asked for the step's
record, or the JSONL sink is attached) by emitting what only it can read
into the step's slice of its event record
(:mod:`repro.parallel.backend.events`) — :func:`emit_step_telemetry`:
three ``gauge`` events, ``loss`` (last pipeline stage only),
``ring_occupancy`` (its mailbox) and ``peak_rss_kb`` (its process).  The
step's ``fidelity`` events are already there: the collectives emit one
per compressed-site call.

The slice rides the step reply to the parent with everything else, and
the parent folds it (:func:`repro.obs.metrics.step_rows`) and judges it
(:mod:`repro.obs.telemetry.health`).  It only observes: observed and
unobserved runs produce bitwise-identical losses and weights (tested).
"""

from __future__ import annotations

__all__ = ["process_peak_rss_kb", "emit_step_telemetry"]


def process_peak_rss_kb() -> float:
    try:
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):  # non-POSIX hosts: gauge degrades to 0
        return 0.0


def emit_step_telemetry(record, *, loss, ring_occupancy: int) -> None:
    """Emit a step's gauges into ``record``; ``loss`` is ``None`` off the
    last pipeline stage."""
    if loss is not None:
        record.emit("gauge", name="loss", value=float(loss))
    record.emit("gauge", name="ring_occupancy", value=ring_occupancy)
    record.emit("gauge", name="peak_rss_kb", value=process_peak_rss_kb())
