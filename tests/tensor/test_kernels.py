"""The hot tensor kernels: float64 references, layout independence, write
safety and cost ratios.

``test_grad_check.py`` compares every backward rule with float32 central
differences at ``atol=2e-2``; that finds a wrong rule, not a wrong constant
or a lost digit.  The kernels that hold most of a training step (``gelu``,
ND x 2-D ``@``, basic-key ``__getitem__``) are held here to float64 closed
forms, to the layout-independence that the bitwise inproc/mp contract
stands on, and to the rule that a backward closure writes only into arrays
it allocated itself (DESIGN.md, "Tensor kernel rules").
"""

import math
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, functional as F

RNG = np.random.default_rng(20)
_C = math.sqrt(2.0 / math.pi)


def gelu64(x):
    """The tanh-approximation GELU and its derivative, in float64."""
    x = np.asarray(x, dtype=np.float64)
    t = np.tanh(_C * (x + 0.044715 * x**3))
    dinner = _C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner


def randn(*shape):
    return RNG.normal(size=shape).astype(np.float32)


def layouts(values: np.ndarray):
    """``values`` as C-contiguous, a transposed view and a strided slice."""
    transposed = np.ascontiguousarray(values.T).T
    strided = np.repeat(values, 2, axis=-1)[..., ::2]
    assert not transposed.flags.c_contiguous and not strided.flags.c_contiguous
    return {"contiguous": values.copy(), "transposed": transposed, "strided": strided}


def getitem_reference(shape, key, g):
    grad = np.zeros(shape, dtype=np.float32)
    np.add.at(grad, key, g)
    return grad


# ----------------------------------------------------------------------
class TestReferences:
    """float64 closed forms for the arithmetic, ``np.add.at`` for the scatter."""

    def test_gelu_forward_and_gradient(self):
        x_data = np.linspace(-6.0, 6.0, 24001).astype(np.float32)
        want, dwant = gelu64(x_data)
        x = Tensor(x_data, requires_grad=True)
        y = F.gelu(x)
        y.backward(np.ones_like(x_data))
        assert np.max(np.abs(y.data - want)) < 1e-6
        assert np.max(np.abs(x.grad - dwant)) < 1e-5

    @pytest.mark.parametrize("shape", [(), (0, 4)], ids=["0-d", "empty"])
    def test_gelu_backward_on_degenerate_shapes(self, shape):
        # ``out=`` needs arrays: a ufunc on a 0-d array returns a scalar.
        x = Tensor(np.full(shape, 0.7, dtype=np.float32), requires_grad=True)
        F.gelu(x).backward(np.ones(shape, dtype=np.float32))
        assert x.grad.shape == shape
        np.testing.assert_allclose(x.grad, np.full(shape, gelu64(0.7)[1]), atol=1e-6)

    @pytest.mark.parametrize("lead", [(0,), (1,), (5,), (3, 4), (2, 1, 3)])
    def test_nd_by_2d_matmul(self, lead):
        a_data, b_data, g = randn(*lead, 24), randn(24, 10), randn(*lead, 10)
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = a @ b
        out.backward(g)
        # Leading axes flattened: einsum cannot sum over an ellipsis.
        a64, g64 = (v.astype(np.float64).reshape(-1, v.shape[-1]) for v in (a_data, g))
        b64 = b_data.astype(np.float64)
        cases = {
            "out": (out.data, "mk,kn->mn", a64, b64),
            "ga": (a.grad, "mn,kn->mk", g64, b64),
            "gb": (b.grad, "mk,mn->kn", a64, g64),
        }
        for name, (got, spec, p, q) in cases.items():
            assert got.dtype == np.float32, name
            want = np.einsum(spec, p, q)
            got = got.reshape(want.shape)
            # rtol against the sum of magnitudes: the bound a float32 dot
            # product obeys, cancellation or not.
            bound = 1e-5 * np.einsum(spec, np.abs(p), np.abs(q))
            assert np.all(np.abs(got - want) <= bound), name
        assert out.shape == (*lead, 10) and a.grad.shape == a_data.shape

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_getitem_backward_equals_add_at_for_basic_keys(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=4, max_side=5))
        key = data.draw(hnp.basic_indices(shape, allow_newaxis=True, allow_ellipsis=True))
        x = Tensor(randn(*shape), requires_grad=True)
        out = x[key]
        g = randn(*out.shape)
        g.flat[: g.size // 2] *= -0.0  # signed zeros must come out as add.at leaves them
        out.backward(g)
        want = getitem_reference(shape, key, g)
        np.testing.assert_array_equal(x.grad, want)
        np.testing.assert_array_equal(np.signbit(x.grad), np.signbit(want))

    @pytest.mark.parametrize("key", [
        np.array([0, 2, 2, 0, 2]),
        [1, 1, 1],
        (np.array([0, 0, 3]), np.array([1, 1, 2])),
        (slice(None), np.array([2, 2])),
        np.int64(1),
        np.array([True, False, True, True]),
    ], ids=["array", "list", "two-arrays", "slice+array", "numpy-int", "mask"])
    def test_getitem_backward_accumulates_repeated_indices(self, key):
        x = Tensor(randn(4, 3), requires_grad=True)
        out = x[key]
        g = randn(*out.shape)
        out.backward(g)
        np.testing.assert_array_equal(x.grad, getitem_reference((4, 3), key, g))

    def test_repeated_index_really_sums(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        x[np.array([1, 1, 1])].backward(np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, [0.0, 3.0, 0.0])


# ----------------------------------------------------------------------
def _run(op, x_data, g):
    x = Tensor(x_data, requires_grad=True)
    out = op(x)
    out.backward(g)
    return out.data, x.grad


class TestLayoutIndependence:
    """Same values, different strides: ``array_equal`` outputs and gradients.

    An inproc tensor and the same values arriving through an mp mailbox may
    differ in layout; a kernel whose result depended on it would make the
    bitwise inproc/mp equivalence layout-dependent.
    """

    @pytest.mark.parametrize("op, out_shape", [
        (F.gelu, (8, 12, 16)),
        (lambda t: t[:, :, :6], (8, 12, 6)),
        (lambda t: t[3:-2:2, ::-1], (2, 12, 16)),
        (lambda t: t[..., None, 5], (8, 12, 1)),
    ], ids=["gelu", "getitem-cols", "getitem-steps", "getitem-int-newaxis"])
    def test_unary_kernels(self, op, out_shape):
        values = randn(8, 12, 16) * 3.0
        for g in layouts(randn(*out_shape)).values():
            results = [_run(op, x_data, g) for x_data in layouts(values).values()]
            for out, grad in results[1:]:
                np.testing.assert_array_equal(out, results[0][0])
                np.testing.assert_array_equal(grad, results[0][1])


# ----------------------------------------------------------------------
def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class TestWriteSafety:
    """A backward closure writes only into arrays it allocated itself.

    ``__add__`` hands one ``g`` to both parents and a retained graph can run
    ``backward()`` twice, so the upstream gradient and the arrays saved by
    the forward are read-only to a closure.  Here they are read-only to
    NumPy too: a write raises.
    """

    @pytest.mark.parametrize("name", ["gelu", "getitem", "matmul"])
    def test_diamond_and_second_backward(self, name):
        x_data = _readonly(randn(4, 5, 12))
        w_data = _readonly(randn(12, 7))
        w = Tensor(w_data, requires_grad=True)
        key = (Ellipsis, slice(2, 9))
        op, textbook = {
            "gelu": (F.gelu, lambda g: g * gelu64(x_data)[1]),
            "getitem": (lambda t: t[key], lambda g: getitem_reference(x_data.shape, key, g)),
            "matmul": (lambda t: t @ w, lambda g: g @ w_data.T.astype(np.float64)),
        }[name]
        x = Tensor(x_data, requires_grad=True)
        out = op(x) + op(x)  # `a + a`: one g reaches both closures
        g = _readonly(randn(*out.shape))
        g_before = g.copy()

        out.backward(g)
        first = x.grad.copy()
        np.testing.assert_allclose(first, 2.0 * textbook(g.astype(np.float64)),
                                   rtol=1e-5, atol=1e-5)
        if name == "matmul":
            want_w = 2.0 * np.einsum("mk,mn->kn", x_data.reshape(-1, 12), g.reshape(-1, 7),
                                     dtype=np.float64)
            np.testing.assert_allclose(w.grad, want_w, rtol=1e-5, atol=1e-5)

        x.grad = None
        out.backward(g)  # the retained graph, a second time
        np.testing.assert_array_equal(x.grad, first)
        np.testing.assert_array_equal(g, g_before)


# ----------------------------------------------------------------------
def _median_ms(fn, calls: int = 40) -> float:
    fn()
    walls = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


def _fwd_bwd(op, x_data, g):
    def call():
        x = Tensor(x_data, requires_grad=True)
        op(x).backward(g)
    return call


class TestCostRatios:
    """The regression that went unseen for 17 PRs, as two ratios.

    Each compares a kernel with a neighbour of fixed cost inside one
    process (medians of 40 calls through the public ``Tensor`` API,
    forward + ``backward``), so the speed of the box cancels.  Each
    threshold sits between the ratio at the parent (ae90bd1) and the ratio
    after the fix with >= 2x on both sides; the measured pairs (five
    readings each, one BLAS thread, 2-core box) are in the tests.
    """

    def test_gelu_costs_a_small_multiple_of_the_matmul_that_feeds_it(self):
        # ``x**3`` in the forward: 12.1-14.2; ``x*x*x``: 0.91-0.97.
        w = Tensor(randn(64, 128), requires_grad=True)
        matmul = _median_ms(_fwd_bwd(lambda t: t @ w, randn(32, 32, 64), randn(32, 32, 128)))
        gelu = _median_ms(_fwd_bwd(F.gelu, randn(32, 32, 128), randn(32, 32, 128)))
        assert gelu / matmul < 4.0

    def test_basic_slice_costs_a_small_multiple_of_a_slice_assignment(self):
        # ``np.add.at`` in the backward: 13.0-17.4; ``+=``: 2.35-2.46.
        x_data, g = randn(32, 32, 96), randn(32, 32, 32)

        def floor():
            grad = np.zeros_like(x_data)
            grad[:, :, :32] = g

        getitem = _median_ms(_fwd_bwd(lambda t: t[:, :, :32], x_data, g))
        assert getitem / _median_ms(floor) < 5.5
