"""Tensor-parallel layers: one divisibility check per layer, the parameter
layout that checkpoints, the state-plane layout table and dp's sorted-name
flatten read, and the ops one encoder layer runs."""

from collections import Counter

import numpy as np
import pytest

from repro import nn
from repro.nn.transformer import TransformerConfig
from repro.parallel import ColumnParallelLinear, ParallelAttention, RowParallelLinear
from repro.parallel.collectives import CommTracker
from repro.parallel.tensor_parallel import ParallelTransformerLayer
from repro.tensor import Tensor, op_hook

CASES = {  # class, the serial module it shards, that module's constructor arguments
    "column": (ColumnParallelLinear, nn.Linear, (8, 12)),
    "row": (RowParallelLinear, nn.Linear, (12, 8)),
    "attention": (ParallelAttention, nn.MultiHeadAttention, (16, 4)),
}


def _state(module):
    return [(name, p.tp_rank, p.data.shape, p.data.tobytes())
            for name, p in module.named_parameters()]


@pytest.mark.parametrize("cls, dim, shape", [
    (ColumnParallelLinear, "out_features", (8, 10)),
    (RowParallelLinear, "in_features", (10, 8)),
], ids=["column", "row"])
def test_indivisible_dim_raises_from_either_constructor(cls, dim, shape):
    with pytest.raises(ValueError, match=f"{dim}=10 not divisible by tp=4"):
        cls(nn.Linear(*shape, np.random.default_rng(0)), 4)


def test_parameter_layout_is_pinned():
    layouts = {name: [(n, rank, shape) for n, rank, shape, _ in _state(
        cls(serial(*args, np.random.default_rng(0)), 2))]
        for name, (cls, serial, args) in CASES.items()}
    assert layouts == {
        "column": [("weight_rank0", 0, (8, 6)), ("weight_rank1", 1, (8, 6)),
                   ("bias_rank0", 0, (6,)), ("bias_rank1", 1, (6,))],
        "row": [("weight_rank0", 0, (6, 8)), ("weight_rank1", 1, (6, 8)),
                ("bias", None, (8,))],
        "attention": [("qkv_weight_rank0", 0, (16, 24)), ("qkv_bias_rank0", 0, (24,)),
                      ("qkv_weight_rank1", 1, (16, 24)), ("qkv_bias_rank1", 1, (24,)),
                      ("out.weight_rank0", 0, (8, 16)), ("out.weight_rank1", 1, (8, 16)),
                      ("out.bias", None, (16,))],
    }


def test_an_encoder_layer_runs_its_ops_and_no_more():
    """One tp2 layer's forward, op by op, and the bytes its outputs take;
    backward runs one closure per forward op.  An op that does nothing (a
    reshape to the tensor's own shape, say) changes no value, so only a
    count sees it: one more call and one more output per layer and step."""
    layer = ParallelTransformerLayer(nn.TransformerLayer(
        TransformerConfig(hidden=16, num_heads=4, num_layers=1), np.random.default_rng(0)), 2)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 16)).astype(np.float32),
               requires_grad=True)
    calls = {"forward": Counter(), "backward": Counter()}
    nbytes = Counter()

    def seen(op, data, shapes, phase):
        calls[phase][op] += 1
        nbytes[phase] += data.nbytes

    with op_hook(seen):
        layer(x, CommTracker()).backward(np.ones((2, 4, 16), np.float32))
    assert calls["forward"] == {
        # per tp rank: QKV, out, fc1 and fc2 products; q/k/v slices, each
        # split into heads (reshape + transpose) and the context merged
        # back; kᵀ, the two attention products, the score scale, softmax,
        # gelu
        "linear": 8, "__getitem__": 6, "reshape": 8, "transpose": 8, "swapaxes": 2,
        "__matmul__": 4, "__mul__": 2, "softmax": 2, "gelu": 2,
        # per site (attention, MLP): broadcast, all-reduce (its two
        # partials summed), the row bias, the residual, layer norm
        "tp_broadcast": 2, "_log_round_trip": 2, "__add__": 6, "layer_norm": 2}
    assert calls["backward"] == calls["forward"]
    assert nbytes["forward"] == 22016
