"""The SPMD rank context and the :class:`Group` seam above it.

The in-process runtime materializes *every* logical rank; a worker process
of the mp backend executes the *same* model code but owns exactly one
(dp_rank, stage, sp_rank, tp_rank) coordinate, which it publishes by
activating a :class:`RankContext`.

Nothing outside this package reads the context.  Model code and the
collectives ask for a :class:`Group` — one parallel axis as seen from this
process — and get the same three things on either backend: which members
are ``local`` (all of them in-process, one in a worker), whether this
process ``records`` the axis's events, and a ``gather`` / ``all_reduce`` /
``send`` over the members.  In-process those are the identity (every
member's value is already here), so each collective is written once and
the oracle keeps executing exactly the float operations it always did.

The context is deliberately a plain module global (not a thread-local):
a worker process runs one rank, full stop, and the inproc backend never
sets it.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.parallel.backend import events
from repro.parallel.backend.base import BackendError

__all__ = ["RankContext", "Group", "sum_in_order", "grad_views",
           "rank_context", "set_rank_context", "active_context", "global_rank"]

#: Axis name -> the RankContext field holding this rank's coordinate on it.
_COORD = {"tp": "tp_rank", "pp": "stage", "sp": "sp_rank", "dp": "dp_rank"}


@dataclass
class RankContext:
    """One worker's coordinates in the DP×PP×SP×TP grid plus its transport."""

    tp: int
    pp: int
    tp_rank: int
    stage: int
    transport: object | None = None  # RankTransport; None in transport-less tests
    rng: np.random.Generator | None = None  # per-rank stream, seeded (seed, rank)
    timeout: float = 60.0
    #: Data/sequence axes, both defaulting to the degenerate 1×1 so every
    #: pre-grid construction site keeps its meaning: with ``dp == sp == 1``
    #: the rank formula collapses to the historical ``stage*tp + tp_rank``.
    dp: int = 1
    sp: int = 1
    dp_rank: int = 0
    sp_rank: int = 0

    def __post_init__(self):
        for axis, coord in _COORD.items():
            if not (0 <= getattr(self, coord) < getattr(self, axis)):
                raise ValueError(f"{coord} {getattr(self, coord)} out of range "
                                 f"for {axis}={getattr(self, axis)}")

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Global rank, dp-major / tp-minor:
        ``((dp_rank*pp + stage)*sp + sp_rank)*tp + tp_rank``."""
        return global_rank(self.stage, self.tp_rank, self.tp, pp=self.pp,
                           sp=self.sp, sp_rank=self.sp_rank,
                           dp_rank=self.dp_rank)

    @property
    def records(self) -> bool:
        """Whether this rank is its stage's designated event recorder.

        The inproc oracle logs exactly one :class:`CommEvent` per logical
        collective; under SPMD every tp/sp peer executes the site, so only
        the (tp_rank 0, sp_rank 0) corner records — the merged event
        multiset then matches the oracle event-for-event.  ``dp_rank`` is
        deliberately *not* gated: each data-parallel gang runs its own
        batch shard, so each gang contributes its own copy of the stream.
        """
        return self.tp_rank == 0 and self.sp_rank == 0

    def peers(self, axis: str) -> list[int]:
        """Global ranks of this rank's group along ``axis``, in the order
        of their coordinate on it (the other three coordinates are ours)."""
        coords = {coord: getattr(self, coord) for coord in _COORD.values()}
        return [global_rank(tp=self.tp, pp=self.pp, sp=self.sp,
                            **{**coords, _COORD[axis]: r})
                for r in range(getattr(self, axis))]

    def peer(self, stage: int) -> int:
        """Global rank of the same (dp, sp, tp) coordinate at another stage."""
        return self.peers("pp")[stage]


def global_rank(stage: int, tp_rank: int, tp: int, *, pp: int = 1,
                sp: int = 1, sp_rank: int = 0, dp_rank: int = 0) -> int:
    """Rank in the dp-major/tp-minor grid.

    The keyword axes default to the degenerate grid, so two-axis callers
    (``global_rank(stage, tp_rank, tp)``) keep the historical
    ``stage*tp + tp_rank`` numbering bitwise.
    """
    return ((dp_rank * pp + stage) * sp + sp_rank) * tp + tp_rank


_CTX: RankContext | None = None


def rank_context() -> RankContext | None:
    """The active context, or ``None`` in the in-process oracle.

    Read only inside this package (lint rule REPRO011): everything above
    it asks for a :class:`Group` instead.
    """
    return _CTX


def set_rank_context(ctx: RankContext | None) -> None:
    global _CTX
    _CTX = ctx


@contextlib.contextmanager
def active_context(ctx: RankContext):
    """Scope ``ctx`` as the process's rank context (tests, worker steps)."""
    prev = rank_context()
    set_rank_context(ctx)
    try:
        yield ctx
    finally:
        set_rank_context(prev)


def sum_in_order(terms: list, *, out: np.ndarray | None = None):
    """Left-to-right sum of arrays (or tensors) given in group-rank order:
    the one reduction order both backends share.  With ``out`` (arrays
    only; ``terms[0]`` itself folds in place) every addition writes there."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term if out is None else np.add(total, term, out=out)
    return total


def grad_views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Name -> view of ``flat``: arrays of ``shapes`` packed from its start
    in sorted-name order, the one layout of a dp gradient vector."""
    views, offset = {}, 0
    for name in sorted(shapes):
        n = math.prod(shapes[name])
        views[name] = flat[offset:offset + n].reshape(shapes[name])
        offset += n
    return views


class Group:
    """One parallel axis (``"tp"``, ``"pp"``, ``"sp"``, ``"dp"``) as seen from
    this process.

    ``world`` is the axis size the caller was built for; ``local`` the
    group ranks whose values live in this process, ascending.  Built from
    the active context and nothing else: with none, every member is local
    and the data-plane methods are the identity; inside an mp worker one
    member is local and they move arrays over the context's transport.
    A ``world`` that disagrees with the worker's grid is a typed error,
    not a silent collapse onto the wrong rank.
    """

    def __init__(self, axis: str, world: int):
        ctx = rank_context()
        self.axis = axis
        self.world = world
        self._ctx = ctx
        if ctx is None:
            self.local = tuple(range(world))
            self.records = True
            return
        if world != getattr(ctx, axis):
            raise BackendError(
                f"{axis} group of size {world} requested, but this rank's "
                f"context has {axis}={getattr(ctx, axis)}", rank=ctx.rank)
        self.local = (getattr(ctx, _COORD[axis]),)
        self.records = ctx.records

    @classmethod
    def holding(cls, axis: str, count: int) -> "Group":
        """The ``axis`` group of a caller that was handed ``count`` members'
        values and no size: in-process those *are* the group; a worker must
        hold exactly its own, and the size is its context's."""
        ctx = rank_context()
        if ctx is None:
            return cls(axis, count)
        if count != 1:
            raise ValueError(f"a worker holds exactly its own {axis} member's "
                             f"value, got {count}")
        return cls(axis, getattr(ctx, axis))

    @property
    def whole(self) -> bool:
        """Whether every member is local (nothing crosses a process)."""
        return len(self.local) == self.world

    # ------------------------------------------------------------------
    def gather(self, values: list, *, label: str) -> list:
        """Every member's value, in group-rank order.

        ``values`` holds one value per ``local`` rank: an array, or a tuple
        of arrays (a compressed message's payloads, one mailbox message
        each).  Remote members' arrays come back as plain data (constants
        to autograd); a local member's slot is the very value passed in.
        """
        if len(values) != len(self.local):
            raise ValueError(f"expected {len(self.local)} local {self.axis} "
                             f"value(s), got {len(values)}")
        if self.whole:
            return list(values)
        ctx = self._ctx
        peers = ctx.peers(self.axis)
        gathered = ctx.transport.exchange(peers, values[0], timeout=ctx.timeout,
                                          label=label)
        return [gathered[p] for p in peers]

    def all_reduce(self, partial: np.ndarray, *, label: str) -> np.ndarray:
        """Sum over all members of ``partial``, the sum over the local ones.

        In-process the local sum already is the total (autograd
        accumulated it), so this returns ``partial`` itself.  A worker
        gathers and adds in group-rank order, whatever the arrival order
        — the same additions in the same order on every member.
        """
        if self.whole:
            return partial
        return sum_in_order(self.gather([partial], label=label))

    def stores(self) -> list[np.ndarray]:
        """Every dp member's gradient slab (its flat vector), in rank order.

        Workers only.  A member's parameter-sized value does not fit a
        mailbox slot: it is exchanged by writing it over the member's own
        slab and reading the peers', with a :meth:`gather` in between (of
        nothing, if need be) so that every write precedes every read.
        """
        return [self._ctx.transport.grad_flat(d) for d in range(self.world)]

    def send(self, dst: int, arrays: list[np.ndarray], *, label: str) -> None:
        """Point-to-point hop of ``arrays`` to group member ``dst`` (the
        pipeline send), one mailbox message each, in order.

        In-process the receiver reads the sender's tensor directly.  A
        worker stages the payloads in ``dst``'s ring mailbox (blocking only
        when the receiver lags a full ring behind); the in-flight window
        is recorded as an ``mp.async`` span.
        """
        ctx = self._ctx
        if ctx is None:
            return
        issued_at = time.monotonic()
        peer = ctx.peers(self.axis)[dst]
        for array in arrays:
            ctx.transport.send(peer, array, timeout=ctx.timeout)
        rec = events.active()
        if rec is not None:
            rec.span(label, "mp.async", issued_at)
