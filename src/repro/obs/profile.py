"""Op-level deterministic profiler for ``repro.tensor`` graphs.

An :class:`OpProfiler` attaches to the op-hook seam of
:mod:`repro.tensor` (:func:`~repro.tensor.register_op_hook`, the one
observer seam on ``Tensor`` ops) and observes every op output and every
executed backward closure.  Per op it
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

Its timeline is a rank event record
(:mod:`repro.parallel.backend.events`, rank −1): a span stack
(:meth:`OpProfiler.span`) tags forward/backward/collective regions as
``span`` events carrying ``path alloc_bytes op_calls``, optionally under
the logical SPMD rank the span names; op calls become ``op`` events when
``record_events`` is set; and while the profiler is installed its record
is the active one, so every tracked
:class:`~repro.parallel.collectives.CommEvent` lands in it as a ``comm``
event whose ``t`` lies inside the span it fired under.
:func:`repro.obs.trace.chrome_trace` renders the record.

Everything here is a side channel (DESIGN decision #7): with no profiler
installed the tensor hot path pays one empty-list truthiness check, and
installing one changes no numerics — only observes them.

The *deterministic* half of the profile — call counts, FLOPs, bytes,
allocations, comm events — is identical run to run for a seeded
workload; only the wall-time columns are measurements.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.parallel.backend import events
from repro.parallel.backend.events import EventRecord
from repro.simulator.calibration import CALIBRATION
from repro.simulator.hardware import V100
from repro.simulator.kernels import gemm_time
from repro.tensor import register_op_hook, unregister_op_hook

__all__ = ["OpStats", "OpProfiler", "op_flops", "op_bytes"]

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


class OpProfiler:
    """Deterministic op-level profiler; install via ``with profiler:``.

    Installing it makes :attr:`record` the process's active event record,
    so every :class:`~repro.parallel.collectives.CommEvent` tracked while
    it is installed lands there as a ``comm`` event.

    Parameters
    ----------
    record_events:
        Also emit one ``op`` event per op call (for the Chrome trace).
        Rollups (counts/FLOPs/bytes) are collected either way; disable for
        long benchmark loops where only aggregates matter.
    """

    def __init__(self, record_events: bool = True):
        self.record_events = record_events
        self.record = EventRecord(-1, 1)
        self._last = time.monotonic()
        self._installed = False
        self._previous: EventRecord | None = None
        self.ops: dict[tuple[str, str], OpStats] = {}  # (phase, op) -> stats
        self._stack: list[dict] = []
        self.alloc_bytes = 0
        self.peak_alloc_by_rank: dict[int, int] = {}
        self.peak_span_alloc = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "OpProfiler":
        """Register with the tensor op-hook seam and the event record seam."""
        if not self._installed:
            register_op_hook(self._on_op)
            self._previous = events.active()
            events.install(self.record)
            self._installed = True
            self._last = time.monotonic()
        return self

    def uninstall(self) -> None:
        """Unregister, handing the record seam back to its previous owner."""
        if self._installed:
            unregister_op_hook(self._on_op)
            events.install(self._previous)
            self._installed = False

    def __enter__(self) -> "OpProfiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Hook target and span stack
    # ------------------------------------------------------------------
    def _on_op(self, op: str, data: np.ndarray, parent_shapes: tuple, phase: str) -> None:
        now = time.monotonic()
        dt = now - self._last
        self._last = now
        stats = self.ops.get((phase, op))
        if stats is None:
            stats = self.ops[(phase, op)] = OpStats()
        nbytes = int(data.nbytes)
        stats.calls += 1
        stats.wall_ms += dt * 1e3
        stats.flops += op_flops(op, data.shape, parent_shapes)
        stats.bytes_moved += op_bytes(op, nbytes, parent_shapes)
        stats.alloc_bytes += nbytes
        self.alloc_bytes += nbytes
        for frame in self._stack:
            frame["alloc"] += nbytes
            frame["op_calls"] += 1
        if self.record_events:
            self.record.emit("op", t=now, name=op, phase=phase, dur=dt,
                             alloc_bytes=nbytes)

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "phase", rank: int | None = None) -> Iterator[None]:
        """Tag a region.  A span that names a logical ``rank`` stamps every
        event emitted inside it with that rank (the op, comm and nested
        span events); otherwise they keep the enclosing one (−1, the
        parent's, outside any span that names one)."""
        outer = self.record.rank
        if rank is not None:
            self.record.rank = rank
        frame = {"name": name, "alloc": 0, "op_calls": 0}
        self._stack.append(frame)
        start = self._last = time.monotonic()  # pre-span time is no op's
        try:
            yield
        finally:
            self._stack.pop()
            self.record.span(
                name, cat, start,
                path="/".join([f["name"] for f in self._stack] + [name]),
                alloc_bytes=frame["alloc"], op_calls=frame["op_calls"])
            rank, self.record.rank = self.record.rank, outer
            if rank >= 0:
                prev = self.peak_alloc_by_rank.get(rank, 0)
                self.peak_alloc_by_rank[rank] = max(prev, frame["alloc"])
            self.peak_span_alloc = max(self.peak_span_alloc, frame["alloc"])
            self._last = time.monotonic()

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
        mem_ms = bytes_moved / (V100.mem_bandwidth_gbps * 1e9) * 1e3
        return gemm_time(matmul_flops, CALIBRATION.gemm_tflops(1)) + mem_ms

    def _kind(self, kind: str) -> list[dict]:
        return [e for e in self.record.events if e["kind"] == kind]

    def comm_bytes(self) -> dict[str, int]:
        """Wire bytes of the ``comm`` events keyed ``group/phase/scheme`` (sorted)."""
        out: dict[str, int] = {}
        for e in self._kind("comm"):
            key = f"{e['group']}/{e['phase']}/{e['scheme']}"
            out[key] = out.get(key, 0) + e["wire_bytes"]
        return dict(sorted(out.items()))

    def summary(self) -> dict:
        """Deterministically ordered rollup of everything observed."""
        ops = {
            f"{phase}/{op}": stats.as_dict()
            for (phase, op), stats in sorted(self.ops.items())
        }
        span_totals: dict[str, float] = {}
        for span in self._kind("span"):
            span_totals[span["name"]] = span_totals.get(span["name"], 0.0) + span["dur"] * 1e3
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
            "comm_events": len(self._kind("comm")),
        }
