"""A parameter's gradient buffer: backward's first touch copies into it,
later touches add, and only the gradients a worker publishes get one."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.nn.transformer import TransformerConfig
from repro.parallel.backend.context import RankContext
from repro.parallel.backend.transport import RankTransport
from repro.parallel.backend.worker import _bind_state
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from repro.tensor import Tensor


def grads_of(p, coefficients):
    """Run one backward per row of ``coefficients`` into ``p`` and return
    its gradient's bytes."""
    for c in coefficients:
        (p * Tensor(np.asarray(c, dtype=np.float32))).sum().backward()
    return p.grad.tobytes()


def bound(data):
    p = Parameter(np.array(data, dtype=np.float32))
    p.grad_buffer = np.full(p.shape, np.float32(5.0))
    return p


def test_a_negative_zero_gradient_stays_negative_zero():
    """``0.0 + (-0.0)`` is ``+0.0``: the first touch must copy, not add."""
    rows = [[-0.0, 1.0, -0.0]]
    free = Parameter(np.ones(3, dtype=np.float32))
    with_buffer = bound(np.ones(3))
    assert grads_of(with_buffer, rows) == grads_of(free, rows)
    assert with_buffer.grad is with_buffer.grad_buffer
    assert np.signbit(with_buffer.grad[0])


def test_four_microbatches_accumulate_as_without_a_buffer():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((4, 7)).astype(np.float32)
    rows[:, 0] = -0.0
    free = Parameter(np.ones(7, dtype=np.float32))
    with_buffer = bound(np.ones(7))
    assert grads_of(with_buffer, rows) == grads_of(free, rows)
    # zero_grad drops the gradient, not the buffer: the next step copies again.
    with_buffer.zero_grad()
    free.zero_grad()
    assert grads_of(with_buffer, rows[:1]) == grads_of(free, rows[:1])
    assert with_buffer.grad is with_buffer.grad_buffer


def grid_model(**grid):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=3)
    return ModelParallelBertClassifier(
        ModelParallelConfig(model=mc, scheme="w/o", seed=0, backend="inproc",
                            **grid))


@pytest.mark.parametrize("tp,tp_rank,sp,sp_rank", [
    (2, 0, 1, 0), (2, 1, 1, 0), (1, 0, 2, 0), (1, 0, 2, 1)])
def test_only_published_gradients_get_a_slab_buffer(tp, tp_rank, sp, sp_rank):
    """A worker binds exactly the gradients it publishes: on sp rank 0, the
    parameter's tp owner (rank 0 for a replicated one).  A non-owned tp
    replica bound to the slab would race its owner's writes."""
    model = grid_model(tp=tp, sp=sp)
    named = dict(model.named_parameters())
    transport = RankTransport.create(world=tp * sp, state=named.items(),
                                     grad_slabs=1)
    try:
        ctx = RankContext(tp=tp, pp=1, tp_rank=tp_rank, stage=0, sp=sp,
                          sp_rank=sp_rank, transport=transport)
        _bind_state(model, ctx)
        got = {name for name, p in named.items() if p.grad_buffer is not None}
        want = {name for name, p in named.items()
                if sp_rank == 0 and (p.tp_rank or 0) == tp_rank}
        assert got == want
        replicated = {name for name, p in named.items() if p.tp_rank is None}
        assert (got & replicated) == (replicated if (tp_rank, sp_rank) == (0, 0)
                                      else set())
        slab = transport.grad_slab(0)
        assert all(np.shares_memory(named[name].grad_buffer, slab[name])
                   for name in got)
        del slab
    finally:
        for p in named.values():  # off the segment before it closes
            p.data, p.grad_buffer = p.data.copy(), None
        transport.close()
