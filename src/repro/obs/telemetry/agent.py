"""The telemetry step summary: one fold over a rank's step slice.

With ``REPRO_TELEMETRY`` set, each mp worker ends a step by folding the
step's slice of its event record
(:mod:`repro.parallel.backend.events`) into one ``step`` event and
appending it to the record, so it travels to the parent on the step
reply with everything else.  The summary carries the signals the
health rules and the dashboard read:

- step wall time, ``step_begin`` → ``step_end`` (``step_begin`` is
  stamped before fault injection, so a straggler's delay is in it),
- comm-wait (summed ``mp.wait`` spans) and the derived *busy* time
  (wall − wait — the quantity whose cross-rank z-score identifies a
  straggler, because a peer's barrier wait absorbs the straggler's delay
  while its own busy time shows it),
- injected-fault time (``mp.fault`` spans) and retries/drops/delays,
  counted from the slice's ``fault`` events,
- and three gauges the worker reads at step end: mailbox ring occupancy,
  per-site compression fidelity (a worker-local
  :class:`~repro.obs.fidelity.FidelityProbe`'s aggregates) and the
  process's peak RSS.

It only observes: telemetry-on and telemetry-off runs produce
bitwise-identical losses and weights (tested), and without the variable
no probe is attached and no step is summarised.
"""

from __future__ import annotations

import os
from collections import Counter

__all__ = ["ENV_VAR", "enabled", "process_peak_rss_kb", "step_summary"]

#: Presence (any non-empty value except ``0``) turns telemetry on.
ENV_VAR = "REPRO_TELEMETRY"


def enabled() -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for step summaries."""
    value = os.environ.get(ENV_VAR, "")
    return bool(value) and value != "0"


def process_peak_rss_kb() -> float:
    try:
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):  # non-POSIX hosts: gauge degrades to 0
        return 0.0


def step_summary(events, *, loss=None, ring_occupancy: int = 0,
                 fidelity: dict | None = None,
                 peak_rss_kb: float = 0.0) -> dict:
    """Fields of the ``step`` event for one rank's step slice.

    ``events`` is the slice, ``step_begin`` to ``step_end``; ``fidelity`` is
    :meth:`FidelityProbe.per_site` output.  A pure function of its
    arguments.
    """
    step = None
    t_begin = t_end = 0.0
    span_ms: Counter[str] = Counter()  # by span category
    faults: Counter[str] = Counter()  # by fault kind
    for e in events:
        kind = e["kind"]
        if kind == "step_begin":
            step, t_begin = e["step"], e["t"]
        elif kind == "step_end":
            t_end = e["t"]
        elif kind == "span":
            span_ms[e["cat"]] += e["dur"] * 1e3
        elif kind == "fault":
            faults[e["fault"]] += 1
    wall_ms = (t_end - t_begin) * 1e3
    comm_wait_ms = float(span_ms["mp.wait"])
    summary = {
        "step": step,
        "wall_ms": wall_ms,
        "comm_wait_ms": comm_wait_ms,
        "busy_ms": max(wall_ms - comm_wait_ms, 0.0),
        "fault_ms": float(span_ms["mp.fault"]),
        "ring_occupancy": ring_occupancy,
        "retries": faults["corrupt"] + faults["drop"],
        "drops": faults["drop"],
        "delays": faults["delay"],
        "peak_rss_kb": peak_rss_kb,
    }
    if loss is not None:
        summary["loss"] = float(loss)
    if fidelity:
        summary["fidelity"] = {
            site: {"rel_l2": agg["rel_l2_error_mean"],
                   "ratio": agg["ratio_mean"],
                   "residual_norm": agg["residual_norm_last"]}
            for site, agg in fidelity.items()}
    return summary
