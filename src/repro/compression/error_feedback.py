"""Error-feedback wrapper around any compressor.

Maintains the per-site residual ``e`` of the previous compression step and
adds it to the next input: ``msg = C(x + e); e = (x + e) - D(msg)``.
The paper's implementation "allows the integration of error-feedback
compression algorithms by retaining the error information from the previous
compression step" (§3.3); this wrapper is that mechanism, and the ablation
bench ``benchmarks/test_ablation_error_feedback.py`` measures its effect.

Each distinct activation site (layer / pipeline boundary) must use its own
wrapper instance or its own ``site`` key, since residuals are shape-bound.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedMessage, Compressor
from repro.tensor import Tensor

__all__ = ["ErrorFeedbackCompressor"]


class ErrorFeedbackCompressor(Compressor):
    """Wrap ``inner`` with error feedback state.

    Parameters
    ----------
    inner:
        The compressor producing the actual wire messages.
    decay:
        Residual decay factor in [0, 1]; 1 keeps the full residual.

    A site's residual lives in one buffer that each step updates in place
    (:meth:`residual` returns that buffer, not a snapshot), so ``inner``'s
    messages must own their payloads — every scheme's do, the identity's
    excepted.
    """

    def __init__(self, inner: Compressor, decay: float = 1.0):
        if not 0.0 <= decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {decay}")
        self.inner = inner
        self.decay = decay
        self.name = f"ef({inner.name})"
        self.allreduce_compatible = inner.allreduce_compatible
        self.learnable = inner.learnable
        self._residuals: dict[str, np.ndarray] = {}

    def residual(self, site: str = "default") -> np.ndarray | None:
        """Current residual for ``site`` (None before first use)."""
        return self._residuals.get(site)

    def reset(self) -> None:
        """Drop all residual state."""
        self._residuals.clear()

    # ------------------------------------------------------------------
    def _feed(self, x: np.ndarray, site: str) -> np.ndarray:
        """``x`` plus the site's decayed residual, formed in the residual's
        own buffer (``x`` itself before the site has one of its shape)."""
        prev = self._residuals.get(site)
        if prev is None or prev.shape != x.shape:
            return x
        if prev.dtype != x.dtype:
            return x + self.decay * prev
        if self.decay != 1.0:
            np.multiply(prev, self.decay, out=prev)
        return np.add(x, prev, out=prev)

    def _keep(self, site: str, corrected: np.ndarray, rec: np.ndarray,
              reuse: bool = True) -> None:
        """Store ``corrected - rec`` as the site's residual.

        With ``reuse`` it is written into the buffer the site already has
        (which :meth:`_feed` made ``corrected``), so a warmed step allocates
        nothing of the input's size here."""
        prev = self._residuals.get(site)
        fits = (reuse and prev is not None and prev.shape == corrected.shape
                and prev.dtype == np.result_type(corrected, rec))
        self._residuals[site] = np.subtract(corrected, rec,
                                            out=prev if fits else None)

    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        x = np.asarray(x, dtype=np.float32)
        corrected = self._feed(x, site)
        msg = self.inner.compress(corrected)
        self._keep(site, corrected, self.inner.decompress(msg))
        return msg

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        return self.inner.decompress(msg)

    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        return self.inner.compressed_bytes(shape)

    def backward_bytes(self, shape: tuple[int, ...]) -> int:
        return self.inner.backward_bytes(shape)

    def apply(self, x: Tensor, site: str = "default") -> Tensor:
        """Differentiable path: forward uses error-fed reconstruction.

        The residual update happens on the *values*; gradients flow through
        the inner compressor's own backward rule applied at the corrected
        point (a straight-through treatment of the additive correction).
        """
        data = self._feed(x.data, site)
        corrected = x if data is x.data else Tensor._make(
            data, (x,), lambda g: (g,))
        out = self.inner.apply(corrected, site=site)
        # A backward pass through ``out`` may read ``corrected``: then the
        # graph keeps that buffer and the residual gets a fresh one.
        self._keep(site, corrected.data, out.data, reuse=not out.requires_grad)
        return out

    def parameters(self):
        return self.inner.parameters()

    def runtime_state(self) -> dict:
        state: dict = {"residuals": {site: r.copy()
                                     for site, r in self._residuals.items()}}
        inner = self.inner.runtime_state()
        if inner:
            state["inner"] = inner
        return state

    def load_runtime_state(self, state: dict) -> None:
        self._residuals = {site: np.asarray(r).copy()
                           for site, r in state.get("residuals", {}).items()}
        if "inner" in state:
            self.inner.load_runtime_state(state["inner"])

    def __repr__(self) -> str:
        return f"ErrorFeedbackCompressor({self.inner!r}, decay={self.decay})"
