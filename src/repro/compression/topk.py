"""Sparsification: the codec Top-K and Random-K share, and Top-K's selection.

A sparse codec keeps ``k = max(1, round(fraction·n))`` entries of the
flattened activation.  The wire message is ``(values fp16, indices int32)``
— two tensors of different dtypes, which is why the runtime cannot sum it
with all-reduce and must fall back to all-gather (paper §3.2).  The
schemes differ only in *which* entries they keep: Top-K the ``k`` largest
magnitudes (exactly ``k``; magnitude ties at the threshold go to the
lowest index — :func:`select_topk`), Random-K a random draw
(:mod:`repro.compression.randomk`).

Gradient semantics: the backward message keeps only the selected entries
(``Compressor.sparse``), mirroring the paper's observation that compressing
the forward activation also shrinks the backward (gradient-of-activation)
message.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.compression.base import (
    BYTES_FP16,
    BYTES_INT32,
    CompressedMessage,
    Compressor,
    register_compressor,
)
from repro.tensor import pool

__all__ = ["SparseCompressor", "TopKCompressor", "select_topk", "topk_mask"]


def select_topk(x: np.ndarray, k: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Flat boolean mask of the ``k`` largest-|x| entries, in C order.

    The one selection routine of the Top-K scheme.  Exactly ``k`` entries
    are kept: everything above the k-th largest magnitude, then entries
    *equal* to it in ascending index order until ``k`` is reached, so the
    result depends on the values alone (not on the call, the memory
    layout or the partition's internal order).  NaN magnitudes rank as
    the largest, as they do in NumPy's sort order (with ``k`` or more of
    them nothing is dropped: a poisoned tensor stays visibly poisoned).

    The threshold comes from an in-place ``partition`` of |x|, which is
    then recomputed for the comparison: two cheap passes instead of an
    ``argpartition`` over a length-n index array.  Non-negative IEEE
    floats order like their bit patterns, so float magnitudes are
    partitioned as same-width integers (NumPy's integer quickselect has no
    NaN-aware compare and runs about twice as fast).  ``scratch`` is an
    optional 1-d buffer of ``x``'s size and dtype to hold |x| (its contents
    are lost); without one a temporary is allocated.
    """
    flat = x.reshape(-1)
    n = flat.size
    k = int(min(max(k, 1), n))
    if k == n:
        return np.ones(n, dtype=bool)
    mag = np.abs(flat, out=scratch)
    as_bits = mag.dtype.kind == "f" and mag.itemsize <= 8
    bits = mag.view(f"i{mag.itemsize}") if as_bits else mag
    bits.partition(n - k)
    threshold = mag[n - k]
    np.abs(flat, out=mag)
    mask = np.less(mag, threshold)  # "not less", so that NaNs are kept
    np.logical_not(mask, out=mask)
    surplus = np.count_nonzero(mask) - k
    if surplus > 0:
        tied = np.flatnonzero(mag == threshold)
        mask[tied[-surplus:]] = False
    return mask


def topk_mask(x: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the ``k`` largest-|x| entries, in ``x``'s shape."""
    return select_topk(x, k).reshape(x.shape)


class SparseCompressor(Compressor):
    """Keep a ``fraction`` of the entries; subclasses choose which.

    Parameters
    ----------
    fraction:
        Fraction of entries kept, in (0, 1].
    """

    allreduce_compatible = False
    sparse = True
    fields = ("values", "indices")

    def __init__(self, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)

    def _k(self, size: int) -> int:
        return max(1, int(round(self.fraction * size)))

    @abc.abstractmethod
    def _select(self, x: np.ndarray, site: str) -> np.ndarray:
        """Ascending int32 flat indices of the entries ``x`` keeps at ``site``."""

    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        x = np.asarray(x)
        idx = self._select(x, site)
        return CompressedMessage({"values": x.reshape(-1)[idx], "indices": idx},
                                 tuple(x.shape))

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        out = np.zeros(int(np.prod(msg.shape)), dtype=msg.payloads["values"].dtype)
        out[msg.payloads["indices"]] = msg.payloads["values"]
        return out.reshape(msg.shape)

    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        k = self._k(int(np.prod(shape)))
        return k * (BYTES_FP16 + BYTES_INT32)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(fraction={self.fraction:.4f})"


@register_compressor
class TopKCompressor(SparseCompressor):
    """Keep the top ``fraction`` of entries by magnitude."""

    name = "topk"

    def _select(self, x: np.ndarray, site: str) -> np.ndarray:
        mag = pool.empty((x.size,), x.dtype)  # |x|, recycled across calls
        return np.flatnonzero(select_topk(x, self._k(x.size), mag)).astype(np.int32)
