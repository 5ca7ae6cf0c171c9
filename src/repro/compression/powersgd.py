"""PowerSGD-style low-rank compression (Vogels et al. 2019) — the excluded
baseline.

The paper *deliberately excludes* low-rank compression from the study:
"Since the activation matrices for models are not low-rank (as shown in
Figure 2), low-rank based compression algorithms (such as PowerSGD) are not
suitable for model parallelism compression" (§3.1). We implement it anyway
so the claim is testable: the ablation benchmark
``benchmarks/test_ablation_powersgd.py`` shows PowerSGD reconstructing
weight *gradients* well at rank r ≪ h while failing badly on *activations*
at the same wire budget.

Algorithm (rank-r, single power-iteration step with optional warm start):
for a matrix ``M (n×m)``: ``P = M Q; P = orthonormalize(P); Q = Mᵀ P``;
the message is ``(P, Q)`` and the reconstruction ``P Qᵀ``. Activations
``(b, s, h)`` are flattened to ``(b·s, h)``. The backward is
straight-through: the reconstruction is a data-dependent projection whose
factors are recomputed every call.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    BYTES_FP16,
    CompressedMessage,
    Compressor,
)

__all__ = ["PowerSGDCompressor", "orthonormalize"]


def orthonormalize(matrix: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Gram–Schmidt orthonormalization of the columns (as in PowerSGD)."""
    m = matrix.astype(np.float64).copy()
    for i in range(m.shape[1]):
        col = m[:, i]
        for j in range(i):
            col -= (col @ m[:, j]) * m[:, j]
        norm = np.linalg.norm(col)
        m[:, i] = col / (norm + eps)
    return m.astype(np.float32)


class PowerSGDCompressor(Compressor):
    """Rank-``rank`` power-iteration compression of 2-D-flattened tensors.

    Parameters
    ----------
    rank:
        Rank of the factorization (the PowerSGD ``r``).
    warm_start:
        Reuse the previous ``Q`` as the power-iteration seed (PowerSGD's
        key trick for gradients, which evolve slowly across steps).
    seed:
        Seed for the initial random ``Q``.
    """

    name = "powersgd"
    allreduce_compatible = False  # two factor matrices per message
    fields = ("p", "q")

    def __init__(self, rank: int, warm_start: bool = True, seed: int = 0):
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        self.rank = rank
        self.warm_start = warm_start
        self._rng = np.random.default_rng(seed)
        self._q_cache: dict[tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _as_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 1:
            return x.reshape(-1, 1)
        return x.reshape(-1, x.shape[-1])

    def _factorize(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, m = mat.shape
        r = min(self.rank, n, m)
        key = (n, m, r)
        q = self._q_cache.get(key) if self.warm_start else None
        if q is None or q.shape != (m, r):
            q = self._rng.normal(size=(m, r)).astype(np.float32)
        p = orthonormalize(mat @ q)
        q_new = mat.T @ p
        if self.warm_start:
            self._q_cache[key] = q_new
        return p, q_new

    # ------------------------------------------------------------------
    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        x = np.asarray(x)
        p, q = self._factorize(self._as_matrix(x))
        return CompressedMessage({"p": p, "q": q}, tuple(x.shape))

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        out = msg.payloads["p"] @ msg.payloads["q"].T
        return out.reshape(msg.shape)

    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        n = int(np.prod(shape[:-1])) if len(shape) > 1 else int(np.prod(shape))
        m = shape[-1] if len(shape) > 1 else 1
        r = min(self.rank, n, m)
        return (n * r + m * r) * BYTES_FP16

    def __repr__(self) -> str:
        return f"PowerSGDCompressor(rank={self.rank}, warm_start={self.warm_start})"
