"""Finite-difference gradient checks for every autograd op.

Every backward rule in :mod:`repro.tensor` is validated against central
finite differences on small random inputs in float64-ish precision
(float32 arrays, 1e-3 step, loose tolerance).
"""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import concatenate, split

RNG = np.random.default_rng(0)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``fn`` at ``x``."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = fn(x)
        x[i] = orig - eps
        lo = fn(x)
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def check_unary(op, shape=(3, 4), positive=False, atol=2e-2):
    x_data = RNG.normal(size=shape).astype(np.float32)
    if positive:
        x_data = np.abs(x_data) + 0.5

    def scalar_fn(arr):
        t = Tensor(arr.astype(np.float32))
        return float(op(t).sum().data)

    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x).sum()
    out.backward()
    num = numeric_grad(scalar_fn, x_data.astype(np.float64))
    np.testing.assert_allclose(x.grad, num, rtol=5e-2, atol=atol)


class TestElementwise:
    def test_add(self):
        check_unary(lambda t: t + 2.0)

    def test_sub(self):
        check_unary(lambda t: t - 1.5)

    def test_rsub(self):
        check_unary(lambda t: 1.5 - t)

    def test_mul(self):
        check_unary(lambda t: t * 3.0)

    def test_div(self):
        check_unary(lambda t: t / 2.0, positive=True)

    def test_rdiv(self):
        check_unary(lambda t: 2.0 / t, positive=True)

    def test_neg(self):
        check_unary(lambda t: -t)

    def test_pow(self):
        check_unary(lambda t: t**3)

    def test_exp(self):
        check_unary(lambda t: t.exp())

    def test_log(self):
        check_unary(lambda t: t.log(), positive=True)

    def test_tanh(self):
        check_unary(lambda t: t.tanh())

    def test_sqrt(self):
        check_unary(lambda t: t.sqrt(), positive=True)

    def test_abs(self):
        check_unary(lambda t: t.abs())

    def test_two_tensor_mul_broadcast(self):
        a_data = RNG.normal(size=(3, 4)).astype(np.float32)
        b_data = RNG.normal(size=(4,)).astype(np.float32)
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a * b).sum().backward()
        num_a = numeric_grad(
            lambda arr: float((Tensor(arr.astype(np.float32)) * Tensor(b_data)).sum().data),
            a_data.astype(np.float64),
        )
        num_b = numeric_grad(
            lambda arr: float((Tensor(a_data) * Tensor(arr.astype(np.float32))).sum().data),
            b_data.astype(np.float64),
        )
        np.testing.assert_allclose(a.grad, num_a, rtol=5e-2, atol=2e-2)
        np.testing.assert_allclose(b.grad, num_b, rtol=5e-2, atol=2e-2)


class TestMatmul:
    def test_2d(self):
        a_data = RNG.normal(size=(3, 4)).astype(np.float32)
        b_data = RNG.normal(size=(4, 5)).astype(np.float32)
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b_data.T, rtol=1e-5)
        np.testing.assert_allclose(b.grad, a_data.T @ np.ones((3, 5)), rtol=1e-5)

    def test_batched_times_2d(self):
        a_data = RNG.normal(size=(2, 3, 4)).astype(np.float32)
        w_data = RNG.normal(size=(4, 5)).astype(np.float32)
        a = Tensor(a_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        (a @ w).sum().backward()
        expected_w = a_data.reshape(-1, 4).T @ np.ones((6, 5))
        np.testing.assert_allclose(w.grad, expected_w, rtol=1e-4)
        np.testing.assert_allclose(a.grad, np.ones((2, 3, 5)) @ w_data.T, rtol=1e-4)

    def test_batched_both(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 5)).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestReductionsAndShapes:
    def test_sum_axis(self):
        x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        x.sum(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_sum_keepdims(self):
        x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        (x.sum(axis=1, keepdims=True) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones((3, 4)))

    def test_mean(self):
        x = Tensor(RNG.normal(size=(4,)).astype(np.float32), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))

    def test_max(self):
        data = np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]], dtype=np.float32)
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        expected = np.zeros_like(data)
        expected[0, 1] = 1
        expected[1, 0] = 1
        np.testing.assert_allclose(x.grad, expected)

    def test_reshape(self):
        x = Tensor(RNG.normal(size=(2, 6)).astype(np.float32), requires_grad=True)
        (x.reshape(3, 4) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones((2, 6)))

    def test_transpose(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        y = x.transpose(1, 0, 2)
        assert y.shape == (3, 2, 4)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_swapaxes(self):
        x = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        x.swapaxes(0, 1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_getitem(self):
        x = Tensor(RNG.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        x[1:3].sum().backward()
        expected = np.zeros((4, 3))
        expected[1:3] = 1
        np.testing.assert_allclose(x.grad, expected)

    def test_concatenate(self):
        a = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        (concatenate([a, b], axis=0) * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, 3 * np.ones((2, 3)))

    def test_split_roundtrip(self):
        x = Tensor(RNG.normal(size=(2, 6)).astype(np.float32), requires_grad=True)
        parts = split(x, 3, axis=1)
        assert [p.shape for p in parts] == [(2, 2)] * 3
        (parts[0].sum() + parts[2].sum()).backward()
        expected = np.ones((2, 6))
        expected[:, 2:4] = 0
        np.testing.assert_allclose(x.grad, expected)

    def test_split_indivisible(self):
        with pytest.raises(ValueError):
            split(Tensor(np.zeros((2, 5))), 3, axis=1)


class TestFunctional:
    def test_relu(self):
        check_unary(F.relu)

    def test_gelu(self):
        check_unary(F.gelu)

    def test_softmax(self):
        x_data = RNG.normal(size=(3, 5)).astype(np.float32)

        def scalar_fn(arr):
            return float((F.softmax(Tensor(arr.astype(np.float32))) * Tensor(w)).sum().data)

        w = RNG.normal(size=(3, 5)).astype(np.float32)
        x = Tensor(x_data.copy(), requires_grad=True)
        (F.softmax(x) * Tensor(w)).sum().backward()
        num = numeric_grad(scalar_fn, x_data.astype(np.float64))
        np.testing.assert_allclose(x.grad, num, rtol=5e-2, atol=2e-2)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 7)).astype(np.float32) * 20)
        s = F.softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.normal(size=(4, 7)).astype(np.float32))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-4, atol=1e-5
        )

    def test_cross_entropy_grad(self):
        logits_data = RNG.normal(size=(4, 3)).astype(np.float32)
        targets = np.array([0, 2, 1, 1])

        def scalar_fn(arr):
            return float(F.cross_entropy(Tensor(arr.astype(np.float32)), targets).data)

        x = Tensor(logits_data.copy(), requires_grad=True)
        F.cross_entropy(x, targets).backward()
        num = numeric_grad(scalar_fn, logits_data.astype(np.float64))
        np.testing.assert_allclose(x.grad, num, rtol=5e-2, atol=2e-2)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(RNG.normal(size=(2, 3, 5)).astype(np.float32), requires_grad=True)
        targets = np.array([[1, -100, 2], [-100, -100, 0]])
        loss = F.cross_entropy(logits, targets, ignore_index=-100)
        loss.backward()
        # Ignored positions get zero gradient.
        assert np.allclose(logits.grad[0, 1], 0)
        assert np.allclose(logits.grad[1, 0], 0)
        assert not np.allclose(logits.grad[0, 0], 0)

    def test_cross_entropy_uniform_logits_value(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = F.cross_entropy(logits, np.array([0, 3]))
        np.testing.assert_allclose(loss.data, np.log(4), rtol=1e-5)

    def test_mse_loss(self):
        pred_data = RNG.normal(size=(5,)).astype(np.float32)
        target = RNG.normal(size=(5,)).astype(np.float32)
        x = Tensor(pred_data.copy(), requires_grad=True)
        F.mse_loss(x, target).backward()
        np.testing.assert_allclose(x.grad, 2 * (pred_data - target) / 5, rtol=1e-4)

    def test_layer_norm_grad(self):
        x_data = RNG.normal(size=(2, 3, 6)).astype(np.float32)
        w = Tensor(np.ones(6, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(6, dtype=np.float32), requires_grad=True)

        def scalar_fn(arr):
            wt = Tensor(w.data)
            bt = Tensor(b.data)
            return float((F.layer_norm(Tensor(arr.astype(np.float32)), wt, bt) ** 1).sum().data)

        x = Tensor(x_data.copy(), requires_grad=True)
        F.layer_norm(x, w, b).sum().backward()
        num = numeric_grad(scalar_fn, x_data.astype(np.float64))
        np.testing.assert_allclose(x.grad, num, rtol=8e-2, atol=3e-2)
        # bias grad is just the sum of upstream ones
        np.testing.assert_allclose(b.grad, np.full(6, 6.0), rtol=1e-4)

    def test_layer_norm_output_stats(self):
        x = Tensor(RNG.normal(size=(4, 8)).astype(np.float32) * 3 + 1)
        w = Tensor(np.ones(8, dtype=np.float32))
        b = Tensor(np.zeros(8, dtype=np.float32))
        out = F.layer_norm(x, w, b).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-2)

    def test_embedding_grad_accumulates_repeats(self):
        table = Tensor(RNG.normal(size=(10, 4)).astype(np.float32), requires_grad=True)
        ids = np.array([[1, 1, 3]])
        F.embedding(table, ids).sum().backward()
        np.testing.assert_allclose(table.grad[1], 2 * np.ones(4))
        np.testing.assert_allclose(table.grad[3], np.ones(4))
        np.testing.assert_allclose(table.grad[0], np.zeros(4))

    def test_dropout_train_and_eval(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((100, 100), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.5, rng, training=True)
        kept = out.data != 0
        assert 0.35 < kept.mean() < 0.65
        np.testing.assert_allclose(out.data[kept], 2.0)  # inverted scaling
        out_eval = F.dropout(x, 0.5, rng, training=False)
        assert out_eval is x

    def test_masked_fill(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        out = F.masked_fill(x, mask, -1e9)
        assert out.data[0, 0] == -1e9 and out.data[0, 1] == 1.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, ~mask * 1.0)


class TestGraphMechanics:
    def test_grad_accumulation_diamond(self):
        # y = x*x + x*x should give dy/dx = 4x via two paths
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_blocks_graph(self):
        from repro.tensor import no_grad

        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_backward_non_scalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_detach(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        assert d.data is x.data

    def test_zero_grad(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_repeated_backward_accumulates_into_leaf(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])


@pytest.mark.parametrize("op", [
    F.relu,
    F.gelu,
    F.softmax,
    F.log_softmax,
    lambda x: F.layer_norm(x, Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))),
    lambda x: F.masked_fill(x, np.array([True, False, False, True]), -1e9),
    lambda x: F.dropout(x, 0.5, np.random.default_rng(1)),
], ids=["relu", "gelu", "softmax", "log_softmax", "layer_norm", "masked_fill", "dropout"])
def test_backward_leaves_the_upstream_gradient_alone(op):
    """A closure reads ``g`` and returns fresh gradients.  Identity-like
    closures hand ``g`` itself on to a parent, where it can end up as a
    leaf's ``.grad``, so writing into it corrupts a gradient elsewhere."""
    x = Tensor(RNG.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    y = op(x)
    g = RNG.normal(size=y.shape).astype(np.float32)
    before = g.copy()
    y._node.backward(g)
    assert np.array_equal(g, before)

