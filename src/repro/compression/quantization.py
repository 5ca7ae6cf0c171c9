"""Uniform min-max quantization of activations (2/4/8 bits).

Follows the scheme the paper adopts from Wang et al. 2022 ("Fine-tuning
language models over slow networks using activation compression with
guarantees"): per-group uniform quantization with fp16 scale/zero-point
per group, bit-packed payload.

The wire message is ``(packed uint8, scales fp16, zeros fp16)`` — again
not a single float tensor, so it rides the all-gather path. Backward is the
straight-through estimator; as the paper notes, the PyTorch backward engine
keeps the gradient dense fp16, so quantization does **not** shrink the
backward pipeline message (honoured by the runtime's byte accounting).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    BYTES_FP16,
    CompressedMessage,
    Compressor,
)
from repro.tensor import pool

__all__ = ["QuantizationCompressor", "pack_bits", "unpack_bits"]


def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack small unsigned integer ``codes`` (< 2**bits) into a uint8 array."""
    if bits not in (2, 4, 8):
        raise ValueError(f"bits must be 2, 4 or 8, got {bits}")
    codes = codes.astype(np.uint8).reshape(-1)
    per_byte = 8 // bits
    pad = (-codes.size) % per_byte
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    codes = codes.reshape(-1, per_byte)
    out = np.zeros(codes.shape[0], dtype=np.uint8)
    for j in range(per_byte):
        out |= codes[:, j] << (bits * j)
    return out


def unpack_bits(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns ``count`` codes."""
    per_byte = 8 // bits
    mask = (1 << bits) - 1
    cols = [(packed >> (bits * j)) & mask for j in range(per_byte)]
    codes = np.stack(cols, axis=1).reshape(-1)
    return codes[:count]


class QuantizationCompressor(Compressor):
    """Per-group uniform min-max quantization.

    Parameters
    ----------
    bits:
        Precision of each quantized value (2, 4 or 8).
    group_size:
        Elements per quantization group sharing a (scale, zero) pair.
        The default (256) matches per-row grouping for hidden sizes around
        BERT scale without tying the scheme to a layout.

    Error bound: with ``levels = 2**bits - 1`` and each group's stored
    ``scale`` (its ``(max - min) / levels``, rounded to fp32), every element
    decodes within ``scale / 2 + levels * ulp(scale) / 2`` of its input, up
    to the fp32 rounding of ``(x - min) / scale`` and ``code * scale +
    min``.  The first term is half the group's step; the second is the
    rounding of ``scale`` itself, which the top code multiplies ``levels``
    times.  For a normal ``scale`` the second term is at most 1.6e-5 of
    ``scale``; for a subnormal one (a group spanning ~1e-41) it dominates.
    """

    name = "quantization"
    allreduce_compatible = False
    fields = ("packed", "scales", "zeros")

    def __init__(self, bits: int, group_size: int = 256):
        if bits not in (2, 4, 8):
            raise ValueError(f"bits must be 2, 4 or 8, got {bits}")
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        self.bits = bits
        self.group_size = group_size

    # ------------------------------------------------------------------
    def _grouped(self, flat: np.ndarray) -> tuple[np.ndarray, int]:
        """Pad and reshape a flat array into (groups, group_size).

        Padding repeats the final element (edge mode): zero padding would
        pull the last group's min/max toward 0, inflating its quantization
        step — and thus the per-element error bound — whenever the real
        values sit far from zero.
        """
        pad = (-flat.size) % self.group_size
        if pad:
            flat = np.pad(flat, (0, pad), mode="edge")
        return flat.reshape(-1, self.group_size), pad

    def _quantize(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (codes, scales, zeros) for flattened ``x``."""
        grouped, _ = self._grouped(np.asarray(x, dtype=np.float32).reshape(-1))
        lo = grouped.min(axis=1, keepdims=True)
        hi = grouped.max(axis=1, keepdims=True)
        levels = (1 << self.bits) - 1
        scale = (hi - lo) / levels
        scale = np.where(scale == 0, 1.0, scale)
        # clip(round((grouped - lo) / scale), 0, levels).astype(uint8): those
        # operations on one pooled array and the codes.
        q = np.subtract(grouped, lo, out=pool.empty_like(grouped))
        np.divide(q, scale, out=q)
        np.round(q, out=q)
        np.clip(q, 0, levels, out=q)
        codes = pool.empty(q.shape, np.uint8)
        np.copyto(codes, q, casting="unsafe")
        return codes, scale.reshape(-1), lo.reshape(-1)

    def _dequantize(self, codes: np.ndarray, scales: np.ndarray, zeros: np.ndarray, size: int) -> np.ndarray:
        # codes.astype(float32) * scales + zeros, likewise.
        out = pool.empty((scales.size, self.group_size), np.result_type(np.float32, scales, zeros))
        np.copyto(out, codes.reshape(out.shape))
        np.multiply(out, scales[:, None], out=out)
        np.add(out, zeros[:, None], out=out)
        return out.reshape(-1)[:size]

    # ------------------------------------------------------------------
    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        x = np.asarray(x)
        codes, scales, zeros = self._quantize(x)
        return CompressedMessage(
            {"packed": pack_bits(codes, self.bits), "scales": scales, "zeros": zeros},
            tuple(x.shape))

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        size = int(np.prod(msg.shape))
        n_groups = msg.payloads["scales"].size
        codes = unpack_bits(msg.payloads["packed"], self.bits, n_groups * self.group_size)
        out = self._dequantize(codes, msg.payloads["scales"], msg.payloads["zeros"], size)
        return out.reshape(msg.shape)

    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        n = int(np.prod(shape))
        n_groups = -(-n // self.group_size)
        packed = -(-(n_groups * self.group_size * self.bits) // 8)
        return packed + 2 * n_groups * BYTES_FP16

    def backward_bytes(self, shape: tuple[int, ...]) -> int:
        """Dense fp16: the backward engine cannot carry quantized gradients."""
        n = int(np.prod(shape))
        return n * BYTES_FP16

    def __repr__(self) -> str:
        return f"QuantizationCompressor(bits={self.bits}, group_size={self.group_size})"
