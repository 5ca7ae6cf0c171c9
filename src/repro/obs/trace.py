"""Chrome-trace / Perfetto JSON export of recorded and simulated runs.

Two producers share one event format (the Trace Event Format's complete
``"X"`` slices, timestamps in microseconds, loadable in Perfetto or
``chrome://tracing``):

- :func:`chrome_trace` folds rank events (:mod:`repro.parallel.backend.events`)
  into one track per rank — a recorded run's steps, phase timers and gauge
  counters, a profiled session's spans, op calls and comm instants, an mp
  gang's worker timelines — whichever producers wrote them.
- :func:`simulated_iteration_trace` renders the pipeline schedule (GPipe
  or 1F1B) of one :class:`~repro.simulator.SimSetting` — one track per
  pipeline stage with per-microbatch forward/backward boxes at the
  schedule's op start times, TP collective slices, encode/decode kernel
  slices and per-boundary sends, so a Table-4 row becomes a visual
  timeline.

:func:`validate_against_breakdown` closes the loop: it recomputes every
:class:`~repro.simulator.IterationBreakdown` column from the trace's
slices (categories sum; compute phases contribute their makespan) and
returns the per-column absolute differences, which the test suite pins to
1e-6 ms.
"""

from __future__ import annotations

import json
import os

from repro.simulator.calibration import CALIBRATION, Calibration
from repro.simulator.iteration import IterationBreakdown, IterationSimulator, SimSetting

__all__ = [
    "chrome_trace",
    "simulated_iteration_trace",
    "merge_traces",
    "validate_against_breakdown",
    "write_trace",
]

_MS_TO_US = 1000.0


class _TraceBuilder:
    """Allocates named tracks and accumulates trace events."""

    def __init__(self, process: str):
        self.events: list[dict] = []
        self._tids: dict[str, int] = {}
        self._async_ids = 0
        self.pid = 1
        self.events.append({
            "ph": "M", "pid": self.pid, "tid": 0, "name": "process_name",
            "args": {"name": process},
        })

    def tid(self, track: str) -> int:
        if track not in self._tids:
            tid = len(self._tids) + 1
            self._tids[track] = tid
            self.events.append({
                "ph": "M", "pid": self.pid, "tid": tid, "name": "thread_name",
                "args": {"name": track},
            })
        return self._tids[track]

    def slice(self, track: str, name: str, cat: str, ts_ms: float, dur_ms: float,
              args: dict | None = None) -> None:
        if dur_ms <= 0.0:
            return
        event = {
            "ph": "X", "pid": self.pid, "tid": self.tid(track), "name": name,
            "cat": cat, "ts": ts_ms * _MS_TO_US, "dur": dur_ms * _MS_TO_US,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def async_span(self, track: str, name: str, cat: str, start_ms: float,
                   end_ms: float, args: dict | None = None) -> None:
        """An async ``b``/``e`` pair: work in flight while the track's
        ``X`` slices keep executing — Perfetto draws it as a floating bar
        above the thread, which is exactly a staged send's in-flight
        window."""
        if end_ms <= start_ms:
            return
        self._async_ids += 1
        ident = f"0x{self._async_ids:x}"
        tid = self.tid(track)
        begin = {
            "ph": "b", "pid": self.pid, "tid": tid, "name": name,
            "cat": cat, "id": ident, "ts": start_ms * _MS_TO_US,
        }
        if args:
            begin["args"] = args
        self.events.append(begin)
        self.events.append({
            "ph": "e", "pid": self.pid, "tid": tid, "name": name,
            "cat": cat, "id": ident, "ts": end_ms * _MS_TO_US,
        })

    def instant(self, track: str, name: str, cat: str, ts_ms: float,
                args: dict | None = None) -> None:
        event = {
            "ph": "i", "pid": self.pid, "tid": self.tid(track), "name": name,
            "cat": cat, "ts": ts_ms * _MS_TO_US, "s": "t",
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, track: str, name: str, ts_ms: float, value: float) -> None:
        self.events.append({
            "ph": "C", "pid": self.pid, "tid": self.tid(track), "name": name,
            "ts": ts_ms * _MS_TO_US, "args": {name: value},
        })

    def build(self, meta: dict | None = None) -> dict:
        trace = {"traceEvents": self.events, "displayTimeUnit": "ms"}
        if meta:
            trace["otherData"] = meta
        return trace


# ----------------------------------------------------------------------
# Simulated pipeline iterations
# ----------------------------------------------------------------------
def simulated_iteration_trace(
    setting: SimSetting | IterationSimulator, cal: Calibration = CALIBRATION
) -> dict:
    """Chrome trace of one simulated pipeline iteration (GPipe or 1F1B).

    One compute track per pipeline stage (F/B boxes at the schedule's op
    start times — contiguous forward-then-backward regions under GPipe,
    warmup/steady/drain interleaving under 1F1B), one collective track
    per stage, one encode/decode track per compressed stage and one track
    per pipeline boundary.  Slice categories mirror the
    :class:`IterationBreakdown` columns so
    :func:`validate_against_breakdown` can re-derive them.
    """
    sim = setting if isinstance(setting, IterationSimulator) else IterationSimulator(setting, cal)
    s = sim.s
    m = s.num_microbatches
    pp = s.pp
    fwd_stage, bwd_stage = sim.stage_compute_ms()
    enc_mult, gpu_mult = sim.encdec_multipliers()
    site = sim.site_cost()
    compressed_scheme = sim.spec.family != "none"

    b = _TraceBuilder(
        f"simulated iteration: {s.scheme} TP={s.tp} PP={pp} "
        f"b={s.micro_batch} s={s.seq} m={m} {s.schedule}"
    )
    fwd_end, _, _ = sim.compute_makespans()  # forward region makespan
    op_starts = [sim.stage_op_starts(st) for st in range(pp)]
    bwd_end = op_starts[0][1][m - 1] + bwd_stage  # stage 0 drains last

    for st in range(pp):
        compute = f"stage {st}"
        f_starts, b_starts = op_starts[st]
        for i in range(m):
            b.slice(compute, f"F{i}", "forward_compute", f_starts[i], fwd_stage)
            b.slice(compute, f"B{i}", "backward_compute", b_starts[i], bwd_stage)

        comm_track = f"stage {st} tp-comm"
        fwd_cursor = f_starts[0]
        bwd_cursor = b_starts[0]
        for layer in s.partition.layers_of(st):
            comm_f = sim.tp_forward_comm_ms(sim.layer_compressed(layer))
            comm_b = sim.tp_backward_comm_ms()
            for i in range(m):
                for tp_site in ("attn", "mlp"):
                    b.slice(comm_track, f"g L{layer} {tp_site} mb{i}", "tensor_comm",
                            fwd_cursor, comm_f)
                    fwd_cursor += comm_f
                    b.slice(comm_track, f"f L{layer} {tp_site} mb{i}", "backward_comm",
                            bwd_cursor, comm_b)
                    bwd_cursor += comm_b

        encdec_track = f"stage {st} enc/dec"
        enc_cursor = f_starts[0]
        for layer in s.partition.layers_of(st):
            if not sim.layer_compressed(layer):
                continue
            for _ in range(2 * enc_mult):
                b.slice(encdec_track, f"enc L{layer}", "encode", enc_cursor, site.encode_ms)
                enc_cursor += site.encode_ms
            for _ in range(2 * gpu_mult):
                b.slice(encdec_track, f"dec L{layer}", "decode", enc_cursor, site.decode_ms)
                enc_cursor += site.decode_ms
            for _ in range(2 * gpu_mult):
                b.slice(encdec_track, f"ae-bwd L{layer}", "ae_backward",
                        enc_cursor, site.backward_ms)
                enc_cursor += site.backward_ms

    if pp > 1:
        bcost = sim.boundary_site_cost()
        for bd, last_layer in enumerate(s.partition.boundaries()):
            track = f"boundary {bd}<->{bd + 1}"
            fwd_send, bwd_send = sim.boundary_send_ms(bd)
            for i in range(m):
                # Forward send departs when the upstream stage finishes
                # F_i; the gradient send when the downstream finishes B_i.
                b.slice(track, f"send mb{i}", "pipeline",
                        op_starts[bd][0][i] + fwd_stage, fwd_send)
                b.slice(track, f"send-grad mb{i}", "pipeline",
                        op_starts[bd + 1][1][i] + bwd_stage, bwd_send)
            b.slice(track, "pipeline overhead", "pipeline", fwd_end,
                    sim.cal.pipeline_overhead_ms)
            if compressed_scheme and s.policy.boundary_compressed(last_layer):
                cursor = op_starts[bd][0][0] + fwd_stage
                for _ in range(enc_mult):
                    b.slice(track, "boundary enc", "encode", cursor, bcost.encode_ms)
                    cursor += bcost.encode_ms
                for _ in range(gpu_mult):
                    b.slice(track, "boundary dec", "decode", cursor, bcost.decode_ms)
                    cursor += bcost.decode_ms

    b.slice("optimizer", "optimizer step", "optimizer", bwd_end, sim.cal.optimizer_ms)
    return b.build({
        "scheme": s.scheme, "tp": s.tp, "pp": pp, "micro_batch": s.micro_batch,
        "seq": s.seq, "num_microbatches": m, "schedule": s.schedule,
    })


def chrome_trace(events, meta: dict | None = None) -> dict:
    """Chrome trace of rank events — any mix of producers and ranks.

    One fold for every recorded run: a :class:`~repro.obs.metrics.RunRecorder`
    file, an :class:`~repro.obs.profile.OpProfiler` session's record, the mp
    workers' ``conc-rank*.jsonl`` files or ``StepResult.record``.  Each rank
    is one track (``parent`` for rank −1; ``rank r · tp…/pp…`` when ``meta``
    names ``tp``), in rank order whatever the input order.  A ``span``
    becomes an ``X`` slice at its real time, an ``mp.async`` span a
    ``b``/``e`` pair floating above the track (a staged send still in
    flight); a step (``step_begin`` … ``step_end``) and an ``op`` become
    ``X`` slices (cat ``step`` / ``op.<phase>``); a ``comm`` event becomes
    an instant and a ``gauge`` a counter.  Other kinds draw nothing.
    Timestamps count from the first ``step_begin`` (else the first event),
    on the record's one monotonic clock.  No category is a breakdown
    column, so a merged real+simulated trace never perturbs
    :func:`validate_against_breakdown`.
    """
    meta = meta or {}
    events = list(events)
    begins = [e["t"] for e in events if e["kind"] == "step_begin"]
    origin = min(begins or [e["t"] for e in events] or [0.0])
    by_rank: dict[int, list[dict]] = {}
    for e in events:
        by_rank.setdefault(e["rank"], []).append(e)
    tp = meta.get("tp")
    b = _TraceBuilder(f"repro run: {meta.get('run_id', 'run')}")
    for rank in sorted(by_rank):
        if rank < 0:
            track = "parent"
        elif isinstance(tp, int) and tp > 0:
            track = f"rank {rank} · tp{rank % tp}/pp{rank // tp}"
        else:
            track = f"rank{rank}"
        begin = None
        for e in by_rank[rank]:
            kind = e["kind"]
            ts = (e["t"] - origin) * 1e3
            if kind == "span" and e["cat"] == "mp.async":
                b.async_span(track, e["name"], "mp.async", ts - e["dur"] * 1e3, ts)
            elif kind == "span":
                args = {k: e[k] for k in ("path", "alloc_bytes", "op_calls") if k in e}
                b.slice(track, e["name"], e["cat"], ts - e["dur"] * 1e3,
                        e["dur"] * 1e3, args)
            elif kind == "op":
                b.slice(track, e["name"], f"op.{e['phase']}", ts - e["dur"] * 1e3,
                        e["dur"] * 1e3, {"alloc_bytes": e["alloc_bytes"]})
            elif kind == "step_begin":
                begin = ts
            elif kind == "step_end" and begin is not None:
                b.slice(track, f"step {e['step']}", "step", begin, ts - begin)
                begin = None
            elif kind == "comm":
                b.instant(track, f"{e['op']} {e['site']}" if e["site"] else e["op"],
                          "comm", ts, {k: e[k] for k in ("group", "phase", "scheme",
                                                         "wire_bytes")})
            elif kind == "gauge":
                b.counter(track, e["name"], ts, e["value"])
    return b.build(meta)


def merge_traces(*traces: dict, meta: dict | None = None) -> dict:
    """Merge traces into one timeline, one Chrome process per input.

    Each input's events keep their timestamps and thread ids but are
    re-homed to a distinct ``pid``, so e.g. a profiled real run and the
    simulated GPipe schedule of the same setting render side by side in
    Perfetto.  Categories are untouched: because :func:`chrome_trace`
    draws no breakdown-column category, a merged trace still satisfies
    :func:`validate_against_breakdown` for the simulated half.
    """
    events: list[dict] = []
    other: dict = {}
    for pid, trace in enumerate(traces, start=1):
        for event in trace["traceEvents"]:
            merged = dict(event)
            merged["pid"] = pid
            events.append(merged)
        other.update(trace.get("otherData", {}))
    if meta:
        other.update(meta)
    out = {"traceEvents": events, "displayTimeUnit": "ms"}
    if other:
        out["otherData"] = other
    return out


def validate_against_breakdown(trace: dict, breakdown: IterationBreakdown) -> dict[str, float]:
    """Absolute per-column difference between trace slices and a breakdown.

    Column conventions follow Table 4's caption (see
    :class:`IterationBreakdown`): the Forward column is forward-compute
    *makespan* plus the forward collectives and enc/dec kernels; Backward
    is backward-compute makespan plus the backward ``f`` all-reduces and
    the AE's extra backward GEMMs; the remaining columns are plain sums of
    their category's slices.  ``overlap_ms`` is re-derived as the
    intersection of the forward- and backward-compute windows — zero for
    a GPipe trace, the steady-state interleave for 1F1B — so the same
    validation covers both schedules.
    """
    sums: dict[str, float] = {}
    spans: dict[str, tuple[float, float]] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") != "X":
            continue
        cat = event.get("cat", "")
        dur = event["dur"] / _MS_TO_US
        sums[cat] = sums.get(cat, 0.0) + dur
        start = event["ts"] / _MS_TO_US
        lo, hi = spans.get(cat, (start, start + dur))
        spans[cat] = (min(lo, start), max(hi, start + dur))

    def total(cat: str) -> float:
        return sums.get(cat, 0.0)

    def makespan(cat: str) -> float:
        if cat not in spans:
            return 0.0
        lo, hi = spans[cat]
        return hi - lo

    overlap = 0.0
    if "forward_compute" in spans and "backward_compute" in spans:
        f_lo, f_hi = spans["forward_compute"]
        b_lo, b_hi = spans["backward_compute"]
        overlap = max(0.0, min(f_hi, b_hi) - max(f_lo, b_lo))

    derived = {
        "forward_ms": makespan("forward_compute") + total("tensor_comm")
        + total("encode") + total("decode"),
        "backward_ms": makespan("backward_compute") + total("backward_comm")
        + total("ae_backward"),
        "optimizer_ms": total("optimizer"),
        "pipeline_ms": total("pipeline"),
        "encode_ms": total("encode"),
        "decode_ms": total("decode"),
        "tensor_comm_ms": total("tensor_comm"),
        "overlap_ms": overlap,
    }
    return {
        field: abs(derived[field] - getattr(breakdown, field)) for field in derived
    }


def write_trace(trace: dict, path: str) -> str:
    """Serialize a trace dict to ``path`` (JSON); returns ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return path
