"""The rank event record: one producer, one clock, every observer a view.

An :class:`EventRecord` is the only thing an mp rank writes while a step
is observed, and the only store of the parent's own observers
(:class:`~repro.obs.metrics.RunRecorder`, installed for each of its
steps, and :class:`~repro.obs.profile.OpProfiler`), whose events carry
rank −1 or the logical rank a profiler span names.  Every event is
``{kind, rank, idx, t, ...}`` with ``idx`` a
dense per-rank counter (program order) and ``t = time.monotonic()`` taken
*at emit* — CLOCK_MONOTONIC on Linux, one system-wide clock, so stamps
compare across ranks.  A span is emitted when it ends and carries ``dur``
(it started at ``t - dur``), so ``idx`` order is ``t`` order for every
kind.  The Chrome trace (:func:`repro.obs.trace.chrome_trace`, and
:func:`span_view` for per-rank timelines), the DYN003 happens-before
replay (``.github/scripts/race_replay.py``) and the per-step rows behind
telemetry and run reports (:func:`repro.obs.metrics.step_rows`) are folds
over it.

Event kinds (DESIGN.md "Rank event record" has the sink column):

====================  =====================================================
``meta``              ``world`` — first event of every record
``step_begin``        ``step`` — stamped before fault injection
``step_end``          ``step``
``span``              ``name cat dur`` — ``mp.wait`` blocking wait,
                      ``mp.async`` staged ring send still in flight,
                      ``mp.phase`` compute, ``mp.fault`` injected-fault
                      window; in the parent ``phase`` (a ``RunRecorder``
                      timer block, an ``OpProfiler`` span's default) or a
                      caller's cat, a profiler span adding ``path
                      alloc_bytes op_calls``
``comm``              a ``CommEvent``'s fields — one per tracked message
``gauge`` / ``count`` ``name value`` / ``name n`` (``RunRecorder``); a
                      worker emits ``gauge`` at an observed step's end:
                      ``loss`` (last stage), ``ring_occupancy``,
                      ``peak_rss_kb``
``fidelity``          ``site scheme group rel_l2 ratio residual_norm`` —
                      one per compressed-site call
``op``                ``name phase dur alloc_bytes`` — one tensor op call
                      (``OpProfiler(record_events=True)``)
``fault``             ``fault`` + ``src dst slot seq attempt`` (channel) or
                      ``step`` (rank) — one per fired fault
``send``              ``src dst slot seq nbytes`` — ring-slot commit
                      (status→FULL) of ``nbytes`` payload bytes;
                      ``dropped retry`` mark a resend's lost attempts
``recv``              ``src dst slot seq got_seq`` — drain (status→EMPTY)
``barrier_arrive``    ``gen`` — own generation slot bumped
``barrier_depart``    ``gen`` — all peers observed at ``gen``
====================  =====================================================

Rules every emit site keeps:

- **Side channel, bitwise-neutral.**  No byte on the wire and no data
  operation changes.  An event that *publishes* state to peers (send,
  barrier arrival) is stamped immediately before the single store that
  makes it visible, and a recv before its slot release, so in a correct
  run the observer's stamp is later than the publisher's — the wall-order
  invariant DYN003 checks.
- **Off by default.**  A step nobody observes has no record installed
  and each site costs one :func:`active` / :func:`protocol` lookup and an
  ``is None`` check.  The protocol kinds (send/recv/barrier) are taken
  only while the JSONL sink is attached; any observed step takes spans,
  faults, ``comm`` and ``fidelity`` events, and on a worker the step-end
  gauges.
- **Bounded.**  The record holds the current step's slice; :meth:`flush`
  hands it to the sinks and forgets it.

The record is process-global, like the fault plan: a rank is a process.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = ["EventRecord", "ENV_VAR", "active", "protocol", "install",
           "uninstall", "load_events", "span_view"]

#: Directory of the JSONL sink (``conc-rank{r}.jsonl``); presence attaches it.
ENV_VAR = "REPRO_CONC_LOG"

_ACTIVE: "EventRecord | None" = None


def active() -> "EventRecord | None":
    """The record of an observed step, or ``None`` (the common case)."""
    return _ACTIVE


def protocol() -> "EventRecord | None":
    """The active record iff its JSONL sink is attached (protocol sites)."""
    record = _ACTIVE
    return record if record is not None and record.path is not None else None


def install(record: "EventRecord | None") -> "EventRecord | None":
    """Make ``record`` the process-wide producer (``None``: none) and return it."""
    global _ACTIVE
    _ACTIVE = record
    return record


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


class EventRecord:
    """One rank's events since the last :meth:`flush`.

    ``path`` attaches the JSONL sink.  :meth:`from_env` is how a worker
    builds its record: ``REPRO_CONC_LOG`` names the sink's directory.
    """

    def __init__(self, rank: int, world: int, path: str | Path | None = None):
        self.rank = rank
        self.path = Path(path) if path is not None else None
        self.events: list[dict] = []
        self._idx = 0
        self.emit("meta", world=world)

    @classmethod
    def from_env(cls, rank: int, world: int) -> "EventRecord":
        outdir = os.environ.get(ENV_VAR)
        if not outdir:
            return cls(rank, world)
        os.makedirs(outdir, exist_ok=True)
        return cls(rank, world, Path(outdir) / f"conc-rank{rank}.jsonl")

    def emit(self, kind: str, **fields) -> dict:
        event = {"kind": kind, "rank": self.rank, "idx": self._idx,
                 "t": time.monotonic(), **fields}
        self._idx += 1
        self.events.append(event)
        return event

    def span(self, name: str, cat: str, start: float, **fields) -> None:
        """Close a span opened at monotonic time ``start``."""
        event = self.emit("span", name=name, cat=cat, **fields)
        event["dur"] = event["t"] - start

    def flush(self) -> list[dict]:
        """Append the slice to the JSONL sink, forget it, and return it.

        The worker flushes after every step and before a planned kill, so
        a crashed run still leaves a replayable prefix on disk.
        """
        events, self.events = self.events, []
        if self.path is not None and events:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.writelines(json.dumps(event) + "\n" for event in events)
        return events


def load_events(path: str | Path) -> list[dict]:
    """Load a recorded run: one ``conc-rank*.jsonl`` file or a directory.

    Returns the concatenation of every rank's events (per-rank order is
    preserved; cross-rank order is irrelevant — the checker rebuilds it
    from the happens-before graph).  Raises ``FileNotFoundError`` for a
    missing path and ``ValueError`` for a directory with no log files,
    so a CI job pointed at the wrong artifact fails loudly.
    """
    path = Path(path)
    files = sorted(path.glob("conc-rank*.jsonl")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"no conc-rank*.jsonl files under {path}")
    events: list[dict] = []
    for f in files:
        with open(f, "r", encoding="utf-8") as fh:
            events.extend(json.loads(line) for line in fh if line.strip())
    return events


def span_view(events) -> dict[int, list[dict]]:
    """Rank → timeline spans (``name``/``cat``/``ts_ms``/``dur_ms``).

    ``events`` is any mix of ranks in per-rank order (step slices off the
    reply, or :func:`load_events` output); ``ts_ms`` is relative to the
    rank's own latest ``step_begin``.
    """
    out: dict[int, list[dict]] = {}
    origin: dict[int, float] = {}
    for e in events:
        if e["kind"] == "step_begin":
            origin[e["rank"]] = e["t"]
            out.setdefault(e["rank"], [])
        elif e["kind"] == "span":
            out[e["rank"]].append({
                "name": e["name"], "cat": e["cat"],
                "ts_ms": (e["t"] - e["dur"] - origin[e["rank"]]) * 1e3,
                "dur_ms": e["dur"] * 1e3,
            })
    return out
