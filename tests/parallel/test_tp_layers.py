"""Tensor-parallel layers: one divisibility check per layer, one way to
build the shards, and the parameter layout that checkpoints, the state-plane
layout table and dp's sorted-name flatten read."""

import numpy as np
import pytest

from repro import nn
from repro.parallel import ColumnParallelLinear, ParallelAttention, RowParallelLinear

CASES = {  # class, its serial counterpart, the shared constructor arguments
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
    match = f"{dim}=10 not divisible by tp=4"
    with pytest.raises(ValueError, match=match):
        cls(*shape, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        cls.from_serial(nn.Linear(*shape, np.random.default_rng(0)), 4)


@pytest.mark.parametrize("name", list(CASES))
def test_init_shards_the_serial_layers_draws(name):
    cls, serial, args = CASES[name]
    direct = cls(*args, 2, np.random.default_rng(3))
    assert _state(direct) == _state(cls.from_serial(serial(*args, np.random.default_rng(3)), 2))


def test_parameter_layout_is_pinned():
    layouts = {name: [(n, rank, shape) for n, rank, shape, _ in _state(
        cls(*args, 2, np.random.default_rng(0)))] for name, (cls, _, args) in CASES.items()}
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
