"""Megatron-style tensor-parallel transformer layers (Shoeybi et al. 2019).

The attention module's two GEMMs are split column-wise then row-wise, and the
MLP identically: ``fc1``/``qkv`` are column-parallel (each rank owns a slice
of the output features / heads), ``fc2``/``out-proj`` are row-parallel (each
rank owns a slice of the input features and produces a *partial* full-width
output). The partials are combined by the ``g`` all-reduce — the compression
site this paper studies — while the conjugate ``f`` op accounts for the
backward all-reduce at the layer input.

Every class offers ``from_serial`` so tests can verify that the parallel
computation equals the serial reference exactly.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, NoCompressor
from repro.nn.attention import MultiHeadAttention, attention_core
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.nn.transformer import TransformerConfig, TransformerLayer
from repro.parallel.backend.context import Group
from repro.parallel.collectives import (
    CommTracker,
    sp_ring_account,
    sp_seq_all_gather,
    sp_slice,
    tp_all_reduce,
    tp_broadcast,
)
from repro.tensor import Tensor, functional as F

__all__ = [
    "ColumnParallelLinear",
    "RowParallelLinear",
    "ParallelAttention",
    "ParallelMLP",
    "ParallelTransformerLayer",
]


def _add_shard(module: Module, stem: str, rank: int, data: np.ndarray) -> Parameter:
    """Register tp rank ``rank``'s shard of ``stem`` as ``{stem}_rank{rank}``.

    The shard is tagged with its rank: only that rank's worker computes
    (and, under the mp backend, publishes) its gradient.
    """
    p = Parameter(data.copy())
    p.tp_rank = rank
    module.add_parameter(f"{stem}_rank{rank}", p)
    return p


class _ShardedLinear(Module):
    """A :class:`Linear` whose ``(in, out)`` weight is split along ``AXIS``.

    ``__init__`` draws the full weight and shards it exactly as
    :meth:`from_serial` shards a serial layer's; each rank's shard is one
    ``F.linear`` over its own slice.
    """

    AXIS: int  # 1: output features (column-parallel); 0: input features (row)

    def __init__(self, in_features: int, out_features: int, tp: int,
                 rng: np.random.Generator, bias: bool = True, init_std: float = 0.02):
        super().__init__()
        full = rng.normal(0.0, init_std, size=(in_features, out_features)).astype(np.float32)
        self._shard(full, np.zeros(out_features, dtype=np.float32) if bias else None, tp)

    @classmethod
    def from_serial(cls, serial: Linear, tp: int):
        obj = cls.__new__(cls)
        Module.__init__(obj)
        obj._shard(serial.weight.data, None if serial.bias is None else serial.bias.data, tp)
        return obj

    def _shard(self, weight: np.ndarray, bias: np.ndarray | None, tp: int) -> None:
        self.in_features, self.out_features = weight.shape
        self.tp = tp
        if weight.shape[self.AXIS] % tp != 0:
            dim = ("in_features", "out_features")[self.AXIS]
            raise ValueError(f"{dim}={weight.shape[self.AXIS]} not divisible by tp={tp}")
        self.weight_shards = [_add_shard(self, "weight", r, w)
                              for r, w in enumerate(np.split(weight, tp, axis=self.AXIS))]
        self._shard_bias(bias)


class ColumnParallelLinear(_ShardedLinear):
    """Linear layer whose output features are sharded across ``tp`` ranks.

    ``forward`` maps a replicated input to the list of per-rank output
    shards (each ``(..., out/tp)``); no communication is required in the
    forward pass.
    """

    AXIS = 1

    def _shard_bias(self, bias: np.ndarray | None) -> None:
        self.bias_shards = [] if bias is None else [
            _add_shard(self, "bias", r, b) for r, b in enumerate(np.split(bias, self.tp))]

    def forward(self, x: Tensor) -> list[Tensor]:
        # In-process this materializes every rank's shard; inside an mp
        # worker the group's local ranks collapse the loop to its own.
        return [F.linear(x, self.weight_shards[r], self.bias_shards[r] if self.bias_shards else None)
                for r in Group("tp", self.tp).local]


class RowParallelLinear(_ShardedLinear):
    """Linear layer whose input features are sharded across ``tp`` ranks.

    ``forward`` maps per-rank input shards (``(..., in/tp)``) to per-rank
    *partial* full-width outputs; the caller must all-reduce them (the
    compressible ``g`` site). The single bias is added after the reduce.
    """

    AXIS = 0

    def _shard_bias(self, bias: np.ndarray | None) -> None:
        self.bias = None if bias is None else Parameter(bias.copy())

    def forward(self, x_shards: list[Tensor]) -> list[Tensor]:
        ranks = Group("tp", self.tp).local
        if len(x_shards) != len(ranks):
            raise ValueError(f"expected {len(ranks)} input shards, got {len(x_shards)}")
        return [F.linear(x_shards[i], self.weight_shards[r]) for i, r in enumerate(ranks)]


class ParallelMLP(Module):
    """Tensor-parallel transformer MLP: column-parallel fc1, row-parallel fc2."""

    def __init__(self, hidden: int, ffn_hidden: int, tp: int, rng: np.random.Generator,
                 init_std: float = 0.02):
        super().__init__()
        self.tp = tp
        self.fc1 = ColumnParallelLinear(hidden, ffn_hidden, tp, rng, init_std=init_std)
        self.fc2 = RowParallelLinear(ffn_hidden, hidden, tp, rng, init_std=init_std)

    @classmethod
    def from_serial(cls, fc1: Linear, fc2: Linear, tp: int) -> "ParallelMLP":
        obj = cls.__new__(cls)
        Module.__init__(obj)
        obj.tp = tp
        obj.fc1 = ColumnParallelLinear.from_serial(fc1, tp)
        obj.fc2 = RowParallelLinear.from_serial(fc2, tp)
        return obj

    def forward(
        self,
        x: Tensor,
        compressor: Compressor,
        tracker: CommTracker,
        *,
        layer: int | None = None,
    ) -> Tensor:
        x = tp_broadcast(x, self.tp, tracker, layer=layer, site="mlp")
        hidden_shards = [F.gelu(h) for h in self.fc1(x)]
        partials = self.fc2(hidden_shards)
        out = tp_all_reduce(partials, compressor, tracker, layer=layer, site="mlp")
        if self.fc2.bias is not None:
            out = out + self.fc2.bias
        return out


class ParallelAttention(Module):
    """Tensor-parallel multi-head attention: heads sharded across ranks."""

    def __init__(self, hidden: int, num_heads: int, tp: int, rng: np.random.Generator,
                 dropout: float = 0.0, init_std: float = 0.02, sp: int = 1):
        super().__init__()
        if sp > 1 and tp != 1:
            raise ValueError(f"ring sequence parallelism requires tp=1, got tp={tp}")
        qkv_weight = rng.normal(0.0, init_std, size=(hidden, 3 * hidden)).astype(np.float32)
        self._shard_qkv(num_heads, tp, sp, qkv_weight, np.zeros(3 * hidden, dtype=np.float32))
        self.out = RowParallelLinear(hidden, hidden, tp, rng, init_std=init_std)
        self.dropout = Dropout(dropout, rng)

    def _shard_qkv(self, num_heads: int, tp: int, sp: int, qkv_weight: np.ndarray,
                   qkv_bias: np.ndarray) -> None:
        """Record the layer's shape and shard the fused (in, 3h) QKV weight
        by head groups.

        The serial layout is ``[Q | K | V]`` along the output axis; rank ``r``
        needs its head block from each of the three sections.
        """
        if num_heads % tp != 0:
            raise ValueError(f"num_heads={num_heads} not divisible by tp={tp}")
        self.hidden = h = qkv_weight.shape[0]
        self.num_heads, self.tp, self.sp = num_heads, tp, sp
        self.heads_per_rank = num_heads // tp
        self.head_dim = h // num_heads
        slice_w = h // tp
        self._qkv_weights, self._qkv_biases = [], []
        for r in range(tp):
            cols = np.concatenate(
                [np.arange(sec * h + r * slice_w, sec * h + (r + 1) * slice_w) for sec in range(3)]
            )
            self._qkv_weights.append(_add_shard(self, "qkv_weight", r, qkv_weight[:, cols]))
            self._qkv_biases.append(_add_shard(self, "qkv_bias", r, qkv_bias[cols]))

    @classmethod
    def from_serial(cls, serial: MultiHeadAttention, tp: int) -> "ParallelAttention":
        obj = cls.__new__(cls)
        Module.__init__(obj)
        obj._shard_qkv(serial.num_heads, tp, 1, serial.qkv.weight.data, serial.qkv.bias.data)
        obj.out = RowParallelLinear.from_serial(serial.out, tp)
        obj.dropout = serial.dropout
        return obj

    def forward(
        self,
        x: Tensor,
        compressor: Compressor,
        tracker: CommTracker,
        attention_mask: np.ndarray | None = None,
        *,
        layer: int | None = None,
    ) -> Tensor:
        if self.sp > 1:
            return self._sp_forward(x, compressor, tracker, attention_mask,
                                    layer=layer)
        x = tp_broadcast(x, self.tp, tracker, layer=layer, site="attn")
        b, s, _ = x.shape
        slice_w = self.hidden // self.tp
        ctx_shards = []
        for r in Group("tp", self.tp).local:
            qkv = F.linear(x, self._qkv_weights[r], self._qkv_biases[r])
            q = self._split_heads(qkv[:, :, :slice_w], b, s)
            k = self._split_heads(qkv[:, :, slice_w : 2 * slice_w], b, s)
            v = self._split_heads(qkv[:, :, 2 * slice_w :], b, s)
            ctx = attention_core(q, k, v, attention_mask)
            ctx_shards.append(ctx.transpose(0, 2, 1, 3).reshape(b, s, slice_w))
        partials = self.out(ctx_shards)
        out = tp_all_reduce(partials, compressor, tracker, layer=layer, site="attn")
        if self.out.bias is not None:
            out = out + self.out.bias
        return self.dropout(out)

    def _sp_forward(
        self,
        x: Tensor,
        compressor: Compressor,
        tracker: CommTracker,
        attention_mask: np.ndarray | None,
        *,
        layer: int | None = None,
    ) -> Tensor:
        """Ring sequence parallelism (sp > 1, tp == 1).

        The replicated layer input is sliced by sequence block; each sp
        rank projects Q/K/V for its block, the K/V blocks are ring-gathered
        to the full sequence, each rank attends its query block against the
        full keys/values, and the context blocks are all-gathered back.
        Everything outside the attention core (out-proj, residual, MLP)
        runs replicated on the full sequence — which is exactly why the
        backward of the context gather needs no wire traffic.
        """
        b, s, h = x.shape
        sp = self.sp
        blk_s = s // sp if s % sp == 0 else None
        if blk_s is None:
            raise ValueError(f"sequence length {s} not divisible by sp={sp}")
        weight, bias = self._qkv_weights[0], self._qkv_biases[0]
        q_blocks, k_blocks, v_blocks = [], [], []
        for r in Group("sp", sp).local:
            qkv = F.linear(sp_slice(x, sp, r), weight, bias)
            q_blocks.append(self._split_heads(qkv[:, :, :h], b, blk_s))
            k_blocks.append(self._split_heads(qkv[:, :, h : 2 * h], b, blk_s))
            v_blocks.append(self._split_heads(qkv[:, :, 2 * h :], b, blk_s))
        k_full = sp_seq_all_gather(k_blocks, sp, reduce_backward=True,
                                   label="sp kv gather")
        v_full = sp_seq_all_gather(v_blocks, sp, reduce_backward=True,
                                   label="sp kv gather")
        ctx_blocks = [
            attention_core(q, k_full, v_full, attention_mask) for q in q_blocks
        ]
        ctx_full = sp_seq_all_gather(ctx_blocks, sp, reduce_backward=False,
                                     label="sp ctx gather")
        merged = ctx_full.transpose(0, 2, 1, 3).reshape(b, s, h)
        merged = sp_ring_account(merged, tracker, sp=sp, shape=(b, s, h),
                                 block_shape=(b, blk_s, h), layer=layer,
                                 site="attn")
        partials = self.out([merged])
        out = tp_all_reduce(partials, compressor, tracker, layer=layer,
                            site="attn")
        if self.out.bias is not None:
            out = out + self.out.bias
        return self.dropout(out)

    def _split_heads(self, x: Tensor, b: int, s: int) -> Tensor:
        return x.reshape(b, s, self.heads_per_rank, self.head_dim).transpose(0, 2, 1, 3)


class ParallelTransformerLayer(Module):
    """Tensor-parallel encoder block with compressible all-reduce sites.

    Each layer has two ``g`` all-reduces (attention output, MLP output);
    when the layer's policy says it is compressed, both sites use the
    layer's compressor instances (separate per site because the AE weights
    are learnable and site-specific).
    """

    def __init__(self, config: TransformerConfig, tp: int, rng: np.random.Generator,
                 sp: int = 1):
        super().__init__()
        self.tp = tp
        self.sp = sp
        self.attn = ParallelAttention(config.hidden, config.num_heads, tp, rng,
                                      dropout=config.dropout, init_std=config.init_std,
                                      sp=sp)
        self.ln1 = LayerNorm(config.hidden)
        self.mlp = ParallelMLP(config.hidden, config.ffn_hidden, tp, rng,
                               init_std=config.init_std)
        self.ln2 = LayerNorm(config.hidden)
        self.dropout = Dropout(config.dropout, rng)

    @classmethod
    def from_serial(cls, serial: TransformerLayer, tp: int) -> "ParallelTransformerLayer":
        obj = cls.__new__(cls)
        Module.__init__(obj)
        obj.tp = tp
        obj.sp = 1
        obj.attn = ParallelAttention.from_serial(serial.attn, tp)
        obj.ln1 = serial.ln1
        obj.mlp = ParallelMLP.from_serial(serial.fc1, serial.fc2, tp)
        obj.ln2 = serial.ln2
        obj.dropout = serial.dropout
        return obj

    def forward(
        self,
        x: Tensor,
        tracker: CommTracker,
        attention_mask: np.ndarray | None = None,
        *,
        attn_compressor: Compressor | None = None,
        mlp_compressor: Compressor | None = None,
        layer: int | None = None,
    ) -> Tensor:
        attn_c = attn_compressor if attn_compressor is not None else NoCompressor()
        mlp_c = mlp_compressor if mlp_compressor is not None else NoCompressor()
        x = self.ln1(x + self.attn(x, attn_c, tracker, attention_mask, layer=layer))
        h = self.mlp(x, mlp_c, tracker, layer=layer)
        return self.ln2(x + self.dropout(h))
