"""Eq. (1)–(2): analytic per-layer time and AE speedup."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["transformer_layer_flops", "PerfModelParams", "AnalyticalModel"]


def transformer_layer_flops(batch: int, seq: int, hidden: int) -> float:
    """The paper's per-layer FLOP count: ``96·B·s·h² + 16·B·s²·h``.

    (Forward + backward with activation recompute, per Narayanan et al.)
    """
    return 96.0 * batch * seq * hidden**2 + 16.0 * batch * seq**2 * hidden


@dataclass(frozen=True)
class PerfModelParams:
    """Fitted parameters of the §4.7 model.

    Attributes
    ----------
    alpha:
        ms per FLOP — fitted at the *largest* hidden size (the paper notes
        fitting at small sizes inflates predictions ~30× due to low GPU
        utilization).
    beta:
        ms per fp16 element of all-reduce message above the threshold.
    comm_threshold_elems:
        The ``d`` of the piecewise T_comm (in elements).
    comm_const_ms:
        The ``c`` of the piecewise T_comm.
    gamma:
        ms per element of AE encode+decode overhead (``T_overhead = γBsh``).
    """

    alpha: float
    beta: float
    comm_threshold_elems: float
    comm_const_ms: float
    gamma: float


class AnalyticalModel:
    """The paper's single-layer analytic model with an AE option."""

    def __init__(self, params: PerfModelParams, encoder_dim: int = 100):
        self.p = params
        self.encoder_dim = encoder_dim

    # ------------------------------------------------------------------
    def t_comp(self, batch: int, seq: int, hidden: int) -> float:
        """``T_comp = α · FLOPs`` (ms)."""
        return self.p.alpha * transformer_layer_flops(batch, seq, hidden)

    def t_comm(self, elements: float) -> float:
        """Piecewise ``T_comm`` over message size in fp16 elements (ms)."""
        if elements < self.p.comm_threshold_elems:
            return self.p.comm_const_ms
        return self.p.beta * elements

    def t_overhead(self, batch: int, seq: int, hidden: int) -> float:
        """AE encoder+decoder overhead ``γ·B·s·h`` (ms)."""
        return self.p.gamma * batch * seq * hidden

    # ------------------------------------------------------------------
    def layer_time(self, batch: int, seq: int, hidden: int) -> float:
        """Eq. (1): uncompressed per-layer time (ms)."""
        return self.t_comp(batch, seq, hidden) + self.t_comm(batch * seq * hidden)

    def layer_time_ae(self, batch: int, seq: int, hidden: int) -> float:
        """Per-layer time with AE compression to ``encoder_dim`` (ms)."""
        return (
            self.t_comp(batch, seq, hidden)
            + self.t_comm(batch * seq * self.encoder_dim)
            + self.t_overhead(batch, seq, hidden)
        )

    def speedup(self, batch: int, seq: int, hidden: int) -> float:
        """Eq. (2): ``T / T_AE``. Identical per layer, so layer-count free."""
        return self.layer_time(batch, seq, hidden) / self.layer_time_ae(batch, seq, hidden)
