"""Op-level deterministic profiler for ``repro.tensor`` graphs.

An :class:`OpProfiler` attaches to the op-hook seam of
:mod:`repro.tensor` (:func:`~repro.tensor.register_op_hook`, the one
observer seam on ``Tensor`` ops) and observes every op output and every
executed backward closure.  Per (phase, op) it accumulates call counts,
wall time (attributed as the gap since the previous profiler event — ops
execute serially, so the gap is the op's compute plus interpreter
overhead) and allocation bytes (every op output's ``nbytes``; a backward
closure counts the gradient it is handed).

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

Call counts, allocation bytes and comm events are identical run to run
for a seeded workload; only the wall-time columns are measurements.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.parallel.backend import events
from repro.parallel.backend.events import EventRecord
from repro.tensor import register_op_hook, unregister_op_hook

__all__ = ["OpStats", "OpProfiler"]


@dataclass
class OpStats:
    """Aggregate over all calls of one (phase, op) pair."""

    calls: int = 0
    wall_ms: float = 0.0
    alloc_bytes: int = 0


class OpProfiler:
    """Deterministic op-level profiler; install via ``with profiler:``.

    Installing it makes :attr:`record` the process's active event record,
    so every :class:`~repro.parallel.collectives.CommEvent` tracked while
    it is installed lands there as a ``comm`` event.

    Parameters
    ----------
    record_events:
        Also emit one ``op`` event per op call (for the Chrome trace).
        The per-op aggregates are collected either way; disable for long
        benchmark loops where only aggregates matter.
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
            self.record.rank = outer
            self._last = time.monotonic()

    def total_wall_ms(self) -> float:
        return sum(s.wall_ms for s in self.ops.values())
