"""Op-level deterministic profiler for ``repro.tensor`` graphs.

An :class:`OpProfiler` attaches to the op-hook seam of
:mod:`repro.tensor` (:func:`~repro.tensor.register_op_hook`, the same
side-channel mechanism as the lint sanitizer's ``tensor_guard``) and
observes every op output and every executed backward closure.  Per op it
accumulates

- call counts and wall time (attributed as the gap since the previous
  profiler event — ops execute serially, so the gap is the op's compute
  plus interpreter overhead);
- FLOP and memory-traffic estimates derived from the op name and operand
  shapes (matmul = 2·N·K, elementwise = one FLOP and one traversal per
  element), convertible to predicted ms through the *same*
  :mod:`repro.simulator.kernels` formulas the timing tables use;
- allocation bytes (every op output's ``nbytes``) and an allocation
  high-water mark per logical rank: NumPy exposes no frees, so the mark
  is the largest amount allocated inside any one span tagged with that
  rank — a deterministic upper bound on live bytes per step.

A span stack (:meth:`OpProfiler.span`) tags forward/backward/collective
regions, optionally per SPMD rank; :meth:`OpProfiler.watch` wraps a
:class:`~repro.parallel.collectives.CommTracker` so every
:class:`~repro.parallel.collectives.CommEvent` is cross-linked to the
span that was open when it fired (and to its index in the tracker's
event list).  :func:`repro.obs.trace.profiler_trace` renders all of it as
a Chrome trace whose categories are ``prof.*``-prefixed, so merging with
a simulated-iteration trace never disturbs
:func:`~repro.obs.trace.validate_against_breakdown`.

Everything here is a side channel (DESIGN decision #7): with no profiler
installed the tensor hot path pays one empty-list truthiness check, and
installing one changes no numerics — only observes them.

The *deterministic* half of the profile — call counts, FLOPs, bytes,
allocations, comm cross-links — is identical run to run for a seeded
workload; only the wall-time columns are measurements.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.simulator.calibration import CALIBRATION, Calibration
from repro.simulator.hardware import V100, GPUSpec
from repro.simulator.kernels import gemm_time
from repro.tensor import register_op_hook, unregister_op_hook

__all__ = ["OpStats", "SpanRecord", "CommLink", "OpProfiler", "op_flops", "op_bytes"]

_FP32_BYTES = 4

#: Ops costing one FLOP (and roughly one memory traversal) per output
#: element. Shape/indexing ops (reshape, transpose, __getitem__, ...)
#: move bytes but add no FLOPs.
_ELEMENTWISE_OPS = frozenset({
    "__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__",
    "exp", "log", "tanh", "sqrt", "abs", "maximum",
})
_REDUCTION_OPS = frozenset({"sum", "mean", "max"})
_GEMM_OPS = frozenset({"__matmul__", "linear"})


def op_flops(op: str, out_shape: tuple, parent_shapes: tuple) -> float:
    """Estimated FLOPs of one op call from its name and operand shapes.

    A GEMM is 2·N·K; ``linear`` adds one FLOP per output for its bias.
    """
    n = float(np.prod(out_shape)) if out_shape else 1.0
    if op in _GEMM_OPS and parent_shapes:
        return 2.0 * n * float(parent_shapes[0][-1]) + (n if len(parent_shapes) == 3 else 0.0)
    if op in _ELEMENTWISE_OPS:
        return n
    if op in _REDUCTION_OPS and parent_shapes:
        return float(np.prod(parent_shapes[0]))
    return 0.0


def op_bytes(op: str, out_nbytes: int, parent_shapes: tuple) -> float:
    """Estimated memory traffic (bytes read + written) of one op call."""
    read = sum(float(np.prod(s)) for s in parent_shapes) * _FP32_BYTES
    return read + float(out_nbytes)


@dataclass
class OpStats:
    """Aggregate over all calls of one (phase, op) pair."""

    calls: int = 0
    wall_ms: float = 0.0
    flops: float = 0.0
    bytes_moved: float = 0.0
    alloc_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "wall_ms": self.wall_ms,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "alloc_bytes": self.alloc_bytes,
        }


@dataclass
class SpanRecord:
    """One closed region from the span stack."""

    name: str
    cat: str  # "phase" | "collective" | caller-chosen
    path: str  # "step0/forward" — joined stack of open span names
    rank: int | None
    t_start_ms: float
    dur_ms: float
    alloc_bytes: int
    op_calls: int


@dataclass(frozen=True)
class CommLink:
    """Cross-link between a CommEvent and the profiler's span stack."""

    event_index: int  # index into the watched tracker's ``events`` list
    op: str
    group: str
    phase: str
    scheme: str
    site: str
    wire_bytes: int
    t_ms: float
    span_path: str
    rank: int | None


class OpProfiler:
    """Deterministic op-level profiler; install via ``with profiler:``.

    Parameters
    ----------
    clock:
        Monotonic clock in seconds; injectable for deterministic tests.
    cal:
        Calibration used when converting FLOP rollups to predicted ms.
    record_events:
        Keep one timeline entry per op call for Chrome-trace export.
        Rollups (counts/FLOPs/bytes) are collected either way; disable for
        long benchmark loops where only aggregates matter.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cal: Calibration = CALIBRATION,
        gpu: GPUSpec = V100,
        record_events: bool = True,
    ):
        self._clock = clock
        self.cal = cal
        self.gpu = gpu
        self.record_events = record_events
        self._t0 = clock()
        self._last = self._t0
        self._installed = False
        self.ops: dict[tuple[str, str], OpStats] = {}  # (phase, op) -> stats
        self.op_events: list[tuple[str, str, float, float, int, int | None]] = []
        self.spans: list[SpanRecord] = []
        self.comm_links: list[CommLink] = []
        self._stack: list[dict] = []
        self._watched: list[tuple[object, Callable]] = []
        self.alloc_bytes = 0
        self.peak_alloc_by_rank: dict[int, int] = {}
        self.peak_span_alloc = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "OpProfiler":
        """Register with the tensor op-hook seam."""
        if not self._installed:
            register_op_hook(self._on_op)
            self._installed = True
            self._last = self._clock()
        return self

    def uninstall(self) -> None:
        """Unregister and unwrap any watched trackers."""
        if self._installed:
            unregister_op_hook(self._on_op)
            self._installed = False
        for tracker, original in self._watched:
            if getattr(original, "__self__", None) is tracker:
                # Wrapper was instance-level over the class method: drop it.
                tracker.__dict__.pop("record", None)
            else:
                tracker.record = original
        self._watched.clear()

    def __enter__(self) -> "OpProfiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Hook targets
    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (self._clock() - self._t0) * 1e3

    def _on_op(self, op: str, data: np.ndarray, parent_shapes: tuple, phase: str) -> None:
        now = self._clock()
        dt_ms = (now - self._last) * 1e3
        self._last = now
        stats = self.ops.get((phase, op))
        if stats is None:
            stats = self.ops[(phase, op)] = OpStats()
        nbytes = int(data.nbytes)
        stats.calls += 1
        stats.wall_ms += dt_ms
        stats.flops += op_flops(op, data.shape, parent_shapes)
        stats.bytes_moved += op_bytes(op, nbytes, parent_shapes)
        stats.alloc_bytes += nbytes
        self.alloc_bytes += nbytes
        rank = None
        if self._stack:
            for frame in self._stack:
                frame["alloc"] += nbytes
                frame["op_calls"] += 1
            rank = self._stack[-1]["rank"]
        if self.record_events:
            t_end = (now - self._t0) * 1e3
            self.op_events.append((op, phase, t_end - dt_ms, dt_ms, nbytes, rank))

    def _on_comm(self, tracker, event) -> None:
        frame = self._stack[-1] if self._stack else None
        self.comm_links.append(CommLink(
            event_index=len(tracker.events) - 1,
            op=event.op, group=event.group, phase=event.phase,
            scheme=event.scheme, site=event.site, wire_bytes=event.wire_bytes,
            t_ms=self._now_ms(),
            span_path="/".join(f["name"] for f in self._stack),
            rank=frame["rank"] if frame else None,
        ))

    # ------------------------------------------------------------------
    # Span stack & CommTracker cross-link
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, cat: str = "phase", rank: int | None = None) -> Iterator[None]:
        """Tag a region; nested spans inherit the innermost rank by default."""
        if rank is None and self._stack:
            rank = self._stack[-1]["rank"]
        start = self._now_ms()
        frame = {"name": name, "cat": cat, "rank": rank, "start": start,
                 "alloc": 0, "op_calls": 0}
        self._stack.append(frame)
        self._last = self._clock()  # don't attribute pre-span time to the first op
        try:
            yield
        finally:
            self._stack.pop()
            end = self._now_ms()
            self.spans.append(SpanRecord(
                name=name, cat=cat,
                path="/".join([f["name"] for f in self._stack] + [name]),
                rank=rank, t_start_ms=start, dur_ms=end - start,
                alloc_bytes=frame["alloc"], op_calls=frame["op_calls"],
            ))
            if rank is not None:
                prev = self.peak_alloc_by_rank.get(rank, 0)
                self.peak_alloc_by_rank[rank] = max(prev, frame["alloc"])
            self.peak_span_alloc = max(self.peak_span_alloc, frame["alloc"])
            self._last = self._clock()

    def watch(self, tracker) -> None:
        """Cross-link a CommTracker: every recorded event gets a span tag."""
        original = tracker.record

        def record(event, _original=original):
            _original(event)
            if tracker.enabled:
                self._on_comm(tracker, event)

        tracker.record = record
        self._watched.append((tracker, original))

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        return sum(s.flops for s in self.ops.values())

    def total_wall_ms(self) -> float:
        return sum(s.wall_ms for s in self.ops.values())

    def predicted_ms(self) -> float:
        """FLOP/byte rollup priced by the simulator's kernel formulas.

        GEMM FLOPs at the calibrated TP=1 effective throughput plus every
        op's memory traffic at HBM bandwidth — the same
        :func:`~repro.simulator.kernels.gemm_time` / bandwidth model the
        timing tables use, so profiled and simulated runs are comparable.
        """
        matmul_flops = sum(s.flops for (_, op), s in self.ops.items() if op in _GEMM_OPS)
        bytes_moved = sum(s.bytes_moved for s in self.ops.values())
        mem_ms = bytes_moved / (self.gpu.mem_bandwidth_gbps * 1e9) * 1e3
        return gemm_time(matmul_flops, self.cal.gemm_tflops(1)) + mem_ms

    def comm_bytes(self) -> dict[str, int]:
        """Cross-linked wire bytes keyed ``group/phase/scheme`` (sorted)."""
        out: dict[str, int] = {}
        for link in self.comm_links:
            key = f"{link.group}/{link.phase}/{link.scheme}"
            out[key] = out.get(key, 0) + link.wire_bytes
        return dict(sorted(out.items()))

    def summary(self) -> dict:
        """Deterministically ordered rollup of everything observed."""
        ops = {
            f"{phase}/{op}": stats.as_dict()
            for (phase, op), stats in sorted(self.ops.items())
        }
        span_totals: dict[str, float] = {}
        for span in self.spans:
            span_totals[span.name] = span_totals.get(span.name, 0.0) + span.dur_ms
        return {
            "op_calls": sum(s.calls for s in self.ops.values()),
            "wall_ms": self.total_wall_ms(),
            "flops": self.total_flops(),
            "bytes_moved": sum(s.bytes_moved for s in self.ops.values()),
            "alloc_bytes": self.alloc_bytes,
            "peak_alloc_bytes": self.peak_span_alloc,
            "peak_alloc_by_rank": {
                str(r): b for r, b in sorted(self.peak_alloc_by_rank.items())
            },
            "predicted_ms": self.predicted_ms(),
            "ops": ops,
            "spans_ms": dict(sorted(span_totals.items())),
            "comm_bytes": self.comm_bytes(),
            "comm_events": len(self.comm_links),
        }
