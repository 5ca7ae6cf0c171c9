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
)

__all__ = ["SparseCompressor", "TopKCompressor", "select_topk", "topk_mask"]


#: Vectors at least this long select among the candidates a bracket admits.
BRACKETED = 1 << 17
_SAMPLES = 1 << 12  # the bracket's fixed-stride sample, at least this many
_CHUNK = 1 << 16  # entries scanned for candidates at a time


def select_topk(x: np.ndarray, k: int) -> np.ndarray:
    """Ascending flat indices of the ``k`` largest-|x| entries, in C order.

    The one selection routine of the Top-K scheme.  Exactly ``k`` entries
    are kept: everything above the k-th largest magnitude, then entries
    *equal* to it in ascending index order until ``k`` is reached, so the
    result depends on the values alone (not on the call, the memory
    layout or the partition's internal order).  NaN magnitudes rank as
    the largest, as they do in NumPy's sort order (with ``k`` or more of
    them nothing is dropped: a poisoned tensor stays visibly poisoned).

    The threshold comes from an in-place ``partition`` of the magnitudes,
    which are then recomputed for the comparison.  Non-negative IEEE
    floats order like their bit patterns, so float magnitudes are
    partitioned as same-width integers (NumPy's integer quickselect has no
    NaN-aware compare and runs about twice as fast).  From
    :data:`BRACKETED` entries on, only the candidates that
    :func:`_candidates` admits are partitioned, so no temporary of ``x``'s
    size is made; when it admits too few or too many, all entries are.
    """
    flat = x.reshape(-1)
    n = flat.size
    k = int(min(max(k, 1), n))
    if k == n:
        return np.arange(n)
    pos = _candidates(flat, k) if n >= BRACKETED else None
    values = flat if pos is None else flat[pos]
    mag = np.abs(values)
    as_bits = mag.dtype.kind == "f" and mag.itemsize <= 8
    bits = mag.view(f"i{mag.itemsize}") if as_bits else mag
    bits.partition(mag.size - k)
    threshold = mag[mag.size - k]
    if threshold != threshold:  # k or more NaNs: nothing is dropped
        return np.arange(n)
    np.abs(values, out=mag)
    mask = np.less(mag, threshold)  # "not less", so that NaNs are kept
    np.logical_not(mask, out=mask)
    surplus = np.count_nonzero(mask) - k
    if surplus > 0:
        tied = np.flatnonzero(mag == threshold)
        mask[tied[-surplus:]] = False
    keep = np.flatnonzero(mask)
    return keep if pos is None else pos[keep]


def _candidates(flat: np.ndarray, k: int) -> np.ndarray | None:
    """Ascending positions of the entries of ``flat`` whose magnitude is not
    below a bracket of the k-th largest (NaNs included), or None.

    The bracket is a magnitude of a fixed-stride sample: the one ranked a
    few standard deviations past the sample's expected share of the top
    ``k``, so a little below the k-th largest.  It almost always admits
    at least ``k`` entries and not many more; then the k-th largest of
    the candidates is that of ``flat``, and every entry tied with it is a
    candidate.  None when fewer than ``k`` are admitted (the sample
    missed) or more than twice the expected count (ties at the bracket):
    the caller then selects among all entries.
    """
    n = flat.size
    sample = np.abs(flat[::n // _SAMPLES])
    m = sample.size
    expected = k * m / n
    rank = int(expected + 4 * expected ** 0.5) + 8  # from the top
    if rank >= m:
        return None
    bracket = np.partition(sample, m - rank)[m - rank]  # NaNs sort last
    cap, parts = 2 * rank * n // m, []
    for lo in range(0, n, _CHUNK):
        hit = np.flatnonzero(~np.less(np.abs(flat[lo:lo + _CHUNK]), bracket))
        parts.append(hit + lo)
        cap -= hit.size
        if cap < 0:
            return None
    pos = np.concatenate(parts)
    return pos if pos.size >= k else None


def topk_mask(x: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the ``k`` largest-|x| entries, in ``x``'s shape."""
    return np.isin(np.arange(x.size), select_topk(x, k)).reshape(x.shape)


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

    def message(self, x: np.ndarray, site: str = "default") -> tuple[np.ndarray, np.ndarray]:
        """The message's ``(indices, values)`` for ``x``: the ascending int32
        flat indices it keeps at ``site`` and their values, a copy."""
        idx = self._select(x, site)
        return idx, x.reshape(-1)[idx]

    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        x = np.asarray(x)
        idx, values = self.message(x, site)
        return CompressedMessage({"values": values, "indices": idx}, tuple(x.shape))

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        out = np.zeros(int(np.prod(msg.shape)), dtype=msg.payloads["values"].dtype)
        out[msg.payloads["indices"]] = msg.payloads["values"]
        return out.reshape(msg.shape)

    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        k = self._k(int(np.prod(shape)))
        return k * (BYTES_FP16 + BYTES_INT32)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(fraction={self.fraction:.4f})"


class TopKCompressor(SparseCompressor):
    """Keep the top ``fraction`` of entries by magnitude."""

    name = "topk"

    def _select(self, x: np.ndarray, site: str) -> np.ndarray:
        return select_topk(x, self._k(x.size)).astype(np.int32)
