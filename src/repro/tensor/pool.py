"""Recycling buffer pool for op outputs and kernel scratch.

glibc hands freed pages back to the kernel and the next step faults them in
again, zero-filled: a warmed training step paid 4 700-8 600 minor faults
for arrays whose sizes repeat exactly every step (EXPERIMENTS.md, "Buffer
pool").  :func:`empty` keeps such blocks instead.

A request below :data:`FLOOR` is ``np.empty``: ``malloc`` serves it from
bins that never fault.  Above it, a block (a cache-line-aligned slice of a
``bytearray``) is taken from the free list of its byte size, or made, and
wrapped in an ndarray, the *token*, whose death pushes the block back.  Every array NumPy derives from
the token (reshape, transpose, slices, ``memoryview``) holds it through
``.base``, so a block is recycled exactly when no live array aliases it:
there is no ``release()``, and an array a caller keeps stays valid.  The
block must not itself be an ndarray: NumPy collapses ``.base`` chains to
the first array owning its data, so views would skip the token and pin the
raw block while the token died under them.

A pool's footprint is the sum of its per-size peaks, so buffers that live
for the whole run (parameters, leaf gradients) are plain allocations, and
what a finished phase leaves idle (training blocks during the evaluation
that follows) should not add to the next.  The bound comes from what the
pool sees, not from a setting: it grows past the most bytes it has wanted
so far only after dropping every idle block (:func:`_grow`).  A warmed step
never grows the pool and pays nothing; phases that keep alternating are one
period to the pool, which settles at their sum.
"""

from __future__ import annotations

import weakref
from math import prod

import numpy as np

__all__ = ["ALIGN", "FLOOR", "empty", "empty_like"]

#: Requests below this many bytes go to ``np.empty``.
FLOOR = 64 * 1024

#: Blocks start on a cache line, the widest vector store: NumPy's elementwise
#: loops run up to twice as fast into one as into ``malloc``'s 16-byte
#: alignment (EXPERIMENTS.md, "Buffer pool").
ALIGN = 64

_free: dict[int, list[memoryview]] = {}
#: Leases of blocks that are out, by ``id``: a weak reference must itself
#: stay alive for its callback to run.
_leases: dict[int, "_Lease"] = {}
_held = 0  # bytes in blocks, out or idle
_high = 0  # the most bytes wanted at once: ``_held`` plus the request, at its largest


class _Lease(weakref.ref):
    """Weak reference to a token, carrying the block the token wraps."""

    __slots__ = ("block",)


def _retire(lease: _Lease) -> None:
    del _leases[id(lease)]
    _free.setdefault(len(lease.block), []).append(lease.block)


def _grow(nbytes: int) -> memoryview:
    """A new block, dropping the idle ones first if it takes the pool past its mark."""
    global _held, _high
    if _held + nbytes > _high:
        # The mark is what was wanted, before the drop: blocks the program
        # still uses must come back without setting off the next one.
        _high = _held + nbytes
        _held -= sum(size * len(bucket) for size, bucket in _free.items())
        _free.clear()
    _held += nbytes
    raw = bytearray(nbytes + ALIGN)
    start = -np.frombuffer(raw, np.uint8).ctypes.data % ALIGN
    return memoryview(raw)[start:start + nbytes]


def empty(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """Uninitialised C-contiguous array, recycled when at least ``FLOOR`` bytes."""
    dtype = np.dtype(dtype)
    nbytes = prod(shape) * dtype.itemsize
    if nbytes < FLOOR:
        return np.empty(shape, dtype)
    bucket = _free.get(nbytes)
    block = bucket.pop() if bucket else _grow(nbytes)
    token = np.ndarray(shape, dtype, block)
    lease = _Lease(token, _retire)
    lease.block = block
    _leases[id(lease)] = lease
    return token


def empty_like(a: np.ndarray) -> np.ndarray:
    """:func:`empty` with the shape and dtype of ``a`` (C-contiguous whatever ``a`` is)."""
    return empty(a.shape, a.dtype)
