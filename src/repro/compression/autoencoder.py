"""Learnable linear auto-encoder (AE) compression.

Matches the paper's §3.2 description: per compression site there is a
learnable encoder matrix ``w ∈ R^{h×c}`` producing the compressed activation
``X w ∈ R^{b×s×c}`` and a decoder matrix ``R^{c×h}`` reconstructing it.
Both matrices are trained jointly with the model by ordinary backprop —
the possibility that distinguishes model-parallel (activation) compression
from gradient compression.

The wire message is the single fp16 code tensor, so AE is the only
compressed scheme that remains all-reduce compatible (the all-reduce then
runs over the *code* dimension).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    BYTES_FP16,
    CompressedMessage,
    Compressor,
)
from repro.nn.module import Parameter
from repro.tensor import Tensor

__all__ = ["AutoencoderCompressor"]


class AutoencoderCompressor(Compressor):
    """Linear encoder/decoder pair with learnable weights.

    Parameters
    ----------
    hidden:
        Activation feature size ``h`` (last axis).
    code_dim:
        Encoder output size ``c`` (< hidden). A1 uses 50, A2 uses 100 for
        BERT-Large's h=1024.
    seed:
        Initialization seed.
    init_std:
        Weight init scale. The decoder is initialised as the scaled
        transpose of the encoder so the initial round-trip is near-PCA-like
        rather than pure noise, which stabilises early training.
    """

    name = "autoencoder"
    allreduce_compatible = True
    learnable = True
    fields = ("code",)

    def __init__(self, hidden: int, code_dim: int, seed: int = 0, init_std: float | None = None):
        if code_dim >= hidden:
            raise ValueError(f"code_dim ({code_dim}) must be < hidden ({hidden})")
        self.hidden = hidden
        self.code_dim = code_dim
        rng = np.random.default_rng(seed)
        std = init_std if init_std is not None else (1.0 / np.sqrt(hidden))
        enc = rng.normal(0.0, std, size=(hidden, code_dim)).astype(np.float32)
        self.encoder = Parameter(enc, name="ae.encoder")
        self.decoder = Parameter((enc.T * (hidden / code_dim) * std**2 * hidden).astype(np.float32),
                                 name="ae.decoder")
        # Orthogonalize the encoder columns for a well-conditioned start and
        # set the decoder to its pseudo-inverse (transpose, once orthonormal).
        q, _ = np.linalg.qr(enc)
        self.encoder.data = q.astype(np.float32)
        self.decoder.data = q.T.astype(np.float32).copy()

    def parameters(self):
        return [self.encoder, self.decoder]

    # ------------------------------------------------------------------
    # Message face (uses current weights, no grad)
    # ------------------------------------------------------------------
    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        x = np.asarray(x)
        if x.shape[-1] != self.hidden:
            raise ValueError(f"expected last axis {self.hidden}, got {x.shape}")
        return CompressedMessage({"code": x @ self.encoder.data}, tuple(x.shape))

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        return msg.payloads["code"] @ self.decoder.data

    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        if shape[-1] != self.hidden:
            raise ValueError(f"expected last axis {self.hidden}, got {shape}")
        return int(np.prod(shape[:-1])) * self.code_dim * BYTES_FP16

    # ------------------------------------------------------------------
    # Graph face (differentiable; trains the AE jointly)
    # ------------------------------------------------------------------
    def encode(self, x: Tensor) -> Tensor:
        """Differentiable encoder GEMM."""
        return x @ self.encoder

    def decode(self, code: Tensor) -> Tensor:
        """Differentiable decoder GEMM."""
        return code @ self.decoder

    def apply(self, x: Tensor, site: str = "default") -> Tensor:
        return self.decode(self.encode(x))

    def __repr__(self) -> str:
        return f"AutoencoderCompressor(hidden={self.hidden}, code_dim={self.code_dim})"
