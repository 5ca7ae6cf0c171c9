"""The autograd graph keeps only what backward reads (DESIGN.md decision 15f).

A graph node holds its backward closure and, per parent, the parent's node,
the leaf ``Tensor`` that takes its ``.grad``, or ``None``.  A closure
captures arrays, flags and shapes, never a ``Tensor``, so an op output that
the caller drops and no closure reads is freed during the forward pass.
These tests walk the graph of one serial oracle step and watch three such
intermediates through weak references.  Nothing here is timed.
"""

import weakref

import numpy as np
import pytest

from repro.compression.base import Compressor
from repro.nn.transformer import TransformerConfig
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.tensor_parallel import ParallelAttention
from repro.tensor import Tensor, op_hook
from repro.tensor.tensor import _Node, _op_name

SEQ = 16


def make_model(scheme, tp, pp):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2, num_heads=4,
                           max_seq_len=SEQ, dropout=0.0, num_classes=3)
    return ModelParallelBertClassifier(ModelParallelConfig(
        model=mc, tp=tp, pp=pp, scheme=scheme, seed=0, backend="inproc"))


def make_batch():
    rng = np.random.default_rng(0)
    mask = np.ones((4, SEQ), dtype=np.int64)
    mask[:, -4:] = 0
    return rng.integers(0, 64, size=(4, SEQ)), rng.integers(0, 3, size=(4,)), mask


def nodes(root: _Node):
    seen, stack = {id(root)}, [root]
    while stack:
        node = stack.pop()
        yield node
        for p in node.parents:
            if type(p) is _Node and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory (a pool token, or ``a`` itself)."""
    return a.base if isinstance(a.base, np.ndarray) else a


@pytest.mark.parametrize("scheme,tp,pp", [("Q2", 2, 1), ("A2", 2, 2)],
                         ids=["tp2-Q2", "tp2-pp2-A2"])
def test_a_node_holds_closures_and_parents_not_tensors(scheme, tp, pp):
    ids, labels, mask = make_batch()
    loss = make_model(scheme, tp, pp).loss(ids, labels, mask)
    walked = list(nodes(loss._node))
    assert len(walked) > 100
    for node in walked:
        op = _op_name(node.backward)
        held = [cell.cell_contents for cell in node.backward.__closure__ or ()]
        held += list(vars(node.backward).values())
        held += [x for h in held if isinstance(h, (tuple, list)) for x in h]
        assert not any(isinstance(h, Tensor) for h in held), op
        for p in node.parents:
            assert p is None or type(p) is _Node or (
                isinstance(p, Tensor) and p._node is None and p.requires_grad), op


def test_dropped_intermediates_die_before_backward_and_grads_hold(monkeypatch):
    """The raw attention scores (read by no closure: the scale takes no
    gradient), the attention output (an ``__add__`` input) and each tp
    codec's dense input (a ``transmit`` input) are dead once the forward
    returns.  The gradients equal those of a step that keeps every op
    output alive, as the graph did when a node was its output ``Tensor``."""
    refs = {"raw scores": [], "add input": [], "transmit input": []}
    transmit, attend = Compressor.transmit, ParallelAttention.forward

    def watch_transmit(self, x, site="default"):
        refs["transmit input"].append(weakref.ref(owner(x.data)))
        return transmit(self, x, site)

    def watch_attention(self, *args, **kwargs):
        out = attend(self, *args, **kwargs)
        refs["add input"].append(weakref.ref(owner(out.data)))
        return out

    def watch_scores(op, data, parent_shapes, phase):
        if op == "__matmul__" and data.shape[-2:] == (SEQ, SEQ):
            refs["raw scores"].append(weakref.ref(owner(data)))

    ids, labels, mask = make_batch()
    kept = make_model("Q2", 2, 1)
    everything = []
    with op_hook(lambda op, data, shapes, phase: everything.append(data)):
        kept.loss(ids, labels, mask).backward()

    model = make_model("Q2", 2, 1)
    monkeypatch.setattr(Compressor, "transmit", watch_transmit)
    monkeypatch.setattr(ParallelAttention, "forward", watch_attention)
    with op_hook(watch_scores):
        loss = model.loss(ids, labels, mask)
    for what, watched in refs.items():
        assert len(watched) >= 2, what
        assert all(r() is None for r in watched), f"a dropped {what} is still alive"
    loss.backward()

    want = dict(kept.named_parameters())
    for name, p in model.named_parameters():
        assert p.grad.tobytes() == want[name].grad.tobytes(), name
