"""The hot tensor kernels: float64 references, layout independence, write
safety and kernel choices.

``test_grad_check.py`` compares every backward rule with float32 central
differences at ``atol=2e-2``; that finds a wrong rule, not a wrong constant
or a lost digit.  The kernels that hold most of a training step (``gelu``,
``linear`` and the ND x 2-D ``@`` routed to it, basic-key ``__getitem__``)
are held here to float64 closed forms, to the layout-independence that the
bitwise inproc/mp contract stands on, and to the rule that a backward
closure writes only into arrays it allocated itself (DESIGN.md, "Tensor
kernel rules").
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Linear
from repro.obs.profile import OpProfiler
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
    """float64 closed forms for the arithmetic, ``np.add.at`` for the scatter,
    and the two-node composition it replaced for ``linear``."""

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

    @pytest.mark.parametrize("lead", [(0,), (1,), (7,), (0, 5), (1, 6), (3, 4), (2, 1, 3)])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
    def test_linear_is_the_two_node_composition(self, lead, with_bias):
        # One node, bitwise the ``x @ W`` then ``+ b`` it replaced: the
        # stacked product's backward against a contiguous ``Wᵀ`` and as one
        # GEMM over every token (DESIGN decision 15e), a 2-D ``x``'s against
        # the view; the bias gradient is ``__add__``'s reduction of ``g``.
        x_data, w_data, b_data, g = randn(*lead, 24), randn(24, 10), randn(10), randn(*lead, 10)
        x, w, b = (Tensor(v, requires_grad=True) for v in (x_data, w_data, b_data))
        out = F.linear(x, w, b if with_bias else None)
        out.backward(g)
        wt = np.ascontiguousarray(w_data.T) if len(lead) > 1 else w_data.T
        want = x_data @ w_data
        assert_bitwise(out.data, want + b_data if with_bias else want)
        assert_bitwise(x.grad, g @ wt)
        assert_bitwise(w.grad, x_data.reshape(-1, 24).T @ g.reshape(-1, 10))
        if with_bias:
            assert_bitwise(b.grad, g.sum(axis=tuple(range(len(lead)))))
        else:
            assert b.grad is None

    def test_profiled_linear_layer_is_one_op(self):
        # Not ``__matmul__`` then ``__add__``, whose graph kept the pre-bias
        # product alive until backward.
        prof = OpProfiler(record_events=False)
        with prof:
            Linear(24, 10, RNG)(Tensor(randn(3, 4, 24)))
        assert {key: s.calls for key, s in prof.ops.items()} == {("forward", "linear"): 1}

    def test_integer_powers(self):
        # By multiplication (DESIGN decision 15a), and exponent 0 has a zero
        # gradient: ``0 * x**-1`` is NaN at x == 0.
        x_data = np.array([0.0, 2.0, -1.5, 0.3], dtype=np.float32)
        g = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
        for exponent, want, dwant in [
            (0, np.ones_like(x_data), np.zeros_like(x_data)),
            (2, np.square(x_data), g * 2 * x_data),
            (3, x_data * x_data * x_data, g * 3 * np.square(x_data)),
        ]:
            x = Tensor(x_data, requires_grad=True)
            y = x**exponent
            y.backward(g)
            assert_bitwise(y.data, want)
            assert_bitwise(x.grad, dwant)

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

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((32, 32, 32), (32, 64)),
        ((32, 32, 64), (64, 96)),
        ((4, 16, 512), (512, 128)),
    ], ids=["out-projection", "qkv", "wide-ffn-out"])
    def test_nd_by_2d_matmul(self, x_shape, w_shape):
        # The weight's layout counts too: ``x.grad`` is computed against it.
        def run(x_data, w_data, g):
            x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
            out = x @ w
            out.backward(g)
            return out.data, x.grad, w.grad

        values = (randn(*x_shape), randn(*w_shape), randn(*x_shape[:-1], w_shape[-1]))
        results = [run(*arrays) for arrays in itertools.product(
            *(layouts(v).values() for v in values))]
        for got in results[1:]:
            for name, a, want in zip(("out", "x.grad", "w.grad"), got, results[0]):
                np.testing.assert_array_equal(a, want, err_msg=name)

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((32, 32, 32), (32, 64)),
        ((32, 32, 64), (64, 96)),
        ((4, 16, 512), (512, 128)),
    ], ids=["out-projection", "qkv", "wide-ffn-out"])
    def test_linear(self, x_shape, w_shape):
        # ``b.grad`` reduces ``g`` itself, as ``__add__`` did before ``linear``
        # was one node, so NumPy's summation order follows ``g``'s layout;
        # it is held to that expression instead.
        b_data = randn(w_shape[-1])

        def run(x_data, w_data, g):
            x, w, b = (Tensor(v, requires_grad=True) for v in (x_data, w_data, b_data))
            out = F.linear(x, w, b)
            out.backward(g)
            assert_bitwise(b.grad, g.sum(axis=(0, 1)))
            return out.data, x.grad, w.grad

        values = (randn(*x_shape), randn(*w_shape), randn(*x_shape[:-1], w_shape[-1]))
        results = [run(*arrays) for arrays in itertools.product(
            *(layouts(v).values() for v in values))]
        for got in results[1:]:
            for name, a, want in zip(("out", "x.grad", "w.grad"), got, results[0]):
                np.testing.assert_array_equal(a, want, err_msg=name)


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

    @pytest.mark.parametrize("lead", [(4,), (4, 5)], ids=["2-D", "ND"])
    def test_linear_diamond_and_second_backward(self, lead):
        x, w, b = (Tensor(_readonly(randn(*shape)), requires_grad=True)
                   for shape in ((*lead, 12), (12, 7), (7,)))
        out = F.linear(x, w, b) + F.linear(x, w, b)
        g = _readonly(randn(*out.shape))
        g_before = g.copy()

        out.backward(g)
        first = [t.grad.copy() for t in (x, w, b)]
        g64 = g.astype(np.float64)
        np.testing.assert_allclose(first[0], 2.0 * (g64 @ w.data.T), rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(first[1], 2.0 * np.einsum(
            "mk,mn->kn", x.data.reshape(-1, 12), g64.reshape(-1, 7)), rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(first[2], 2.0 * g64.reshape(-1, 7).sum(axis=0),
                                   rtol=1e-5, atol=1e-5)

        for t in (x, w, b):
            t.grad = None
        out.backward(g)  # the retained graph, a second time
        for t, want in zip((x, w, b), first):
            np.testing.assert_array_equal(t.grad, want)
        np.testing.assert_array_equal(g, g_before)


# ----------------------------------------------------------------------
class _Logged(np.ndarray):
    """An array that logs each ufunc call it takes part in (``np.matmul``
    and ``np.add.at`` included) with its operands, and yields plain arrays."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, _Logged) else a
        inputs = tuple(plain(a) for a in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
        _Logged.log.append((ufunc.__name__, method, inputs))
        return getattr(ufunc, method)(*inputs, **kwargs)


def _logged_calls(op, x_data, g):
    """The ufunc calls ``op`` makes on ``x`` (forward) and on ``g`` (its
    closure, called directly: ``backward()`` would hand it a plain copy)."""
    _Logged.log = []
    out = op(Tensor(x_data.view(_Logged), requires_grad=True))
    out._node.backward(g.view(_Logged))
    return _Logged.log


class TestKernelChoices:
    """Regressions that went unseen for many commits, caught by the calls
    the kernels make rather than by timing them (a wall-clock ratio read
    differently on a loaded box).  The costs the comments quote are medians
    of 40 forward + backward calls, one BLAS thread, 2-core box."""

    def test_gelu_runs_no_power(self):
        # ``x**3`` runs NumPy's generic power loop: gelu took 12.1-14.2x the
        # matmul that feeds it; with ``x*x*x``, 0.91-0.97x.
        calls = _logged_calls(F.gelu, randn(32, 32, 128), randn(32, 32, 128))
        assert calls and not [c for c in calls if c[0] in ("power", "float_power")]

    def test_basic_slice_backward_runs_no_add_at(self):
        # ``np.add.at`` cost 13.0-17.4x a slice assignment; ``+=`` 2.35-2.46x.
        calls = _logged_calls(lambda t: t[:, :, :32], randn(32, 32, 96), randn(32, 32, 32))
        assert ("add", "__call__") in [c[:2] for c in calls]
        assert ("add", "at") not in [c[:2] for c in calls]

    def test_weight_backward_is_one_gemm_and_a_contiguous_wt(self):
        # ``g @ w.T`` on the transposed view and a batch of ``x.T @ g``
        # products summed by ``unbroadcast`` cost 5.4-6.0x the forward;
        # against a contiguous transpose and as one GEMM, 3.5-3.8x.
        w = Tensor(randn(64, 128), requires_grad=True)
        calls = _logged_calls(lambda t: t @ w, randn(32, 32, 64), randn(32, 32, 128))
        products = [c[2] for c in calls if c[0] == "matmul"]
        assert len(products) == 3  # the forward, then the two gradients
        (g, wt), (xt, g2) = products[1:]
        assert g.ndim == 3 and wt.shape == (128, 64) and wt.flags.c_contiguous
        assert xt.shape == (64, 32 * 32) and g2.shape == (32 * 32, 128)


# ----------------------------------------------------------------------
def _bits(a: np.ndarray) -> np.ndarray:
    assert a.dtype == np.float32
    return np.ascontiguousarray(a).view(np.uint32)


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


class TestOutFormsAreBitwise:
    """The ``out=`` kernels against the one-line expressions they replaced.

    Each kernel runs the operations of its expression in the expression's
    order, on arrays from ``repro.tensor.pool`` instead of temporaries, so
    the bits are equal: compared as ``uint32``, for inputs and upstream
    gradients in three layouts.  The expressions are evaluated on
    C-contiguous copies: a kernel's reductions run over its own contiguous
    arrays whatever the layout of its input was.
    """

    X = randn(16, 32, 64) * 3.0  # 128 KiB: above the pool's floor
    G = randn(16, 32, 64)

    def _cases(self, x=None):
        for x_data in layouts(self.X if x is None else x).values():
            for g in layouts(self.G).values():
                yield x_data, g

    def test_gelu_forward(self):
        x = self.X
        want = 0.5 * x * (1.0 + np.tanh(_C * (x + 0.044715 * (x * x * x))))
        for x_data in layouts(self.X).values():
            assert_bitwise(F.gelu(Tensor(x_data)).data, want)

    def test_softmax(self):
        x = self.X
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        want_gx = want * (self.G - (self.G * want).sum(axis=-1, keepdims=True))
        for x_data, g in self._cases():
            out, gx = _run(F.softmax, x_data, g)
            assert_bitwise(out, want)
            assert_bitwise(gx, want_gx)

    def test_softmax_row_max_on_special_values(self):
        # The row max is taken over a transposed copy; max is exact, and a
        # zero max of either sign leaves ``exp(x - m)`` unchanged, so rows of
        # NaN, signed zeros, infinities and the mask value change no bit.
        rng = np.random.default_rng(7)
        specials = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, -1e9], np.float32)
        x = randn(2000, 32)
        hit = rng.random(x.shape) < 0.3
        x[hit] = rng.choice(specials, size=int(hit.sum()))
        x[:100] = rng.choice(specials[1:3], size=(100, 32))  # all-zero rows
        with np.errstate(invalid="ignore"):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            want = e / e.sum(axis=-1, keepdims=True)
            for x_data in layouts(x).values():
                for shape in ((2000, 32), (50, 40, 32)):
                    out = F.softmax(Tensor(x_data.reshape(shape))).data
                    assert out.tobytes() == want.tobytes()

    def test_layer_norm(self):
        x, g = self.X, self.G
        w_data, b_data = randn(64), randn(64)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (x - mu) * inv
        gxhat = g * w_data
        want_gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                         - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        for x_data, g_data in self._cases():
            xt = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            out = F.layer_norm(xt, w, b)
            out.backward(g_data)
            assert_bitwise(out.data, xhat * w_data + b_data)
            assert_bitwise(xt.grad, want_gx)
            assert_bitwise(w.grad, (g * xhat).sum(axis=(0, 1)))
            assert_bitwise(b.grad, g_data.sum(axis=(0, 1)))  # reduces g itself

    def test_layer_norm_variance_is_numpys(self):
        for n in (1, 7, 32, 64, 129, 1000):
            x = randn(50, n) * 5.0 + 2.0
            d = x - x.mean(axis=-1, keepdims=True)
            assert_bitwise(np.add.reduce(d * d, axis=-1, keepdims=True) / n,
                           x.var(axis=-1, keepdims=True))

    @pytest.mark.parametrize("mask_shape", [(16, 32, 64), (16, 1, 64), (1, 1, 64), (32, 1)])
    def test_masked_fill(self, mask_shape):
        mask = RNG.random(mask_shape) < 0.4
        signed = self.X.copy()
        signed.flat[::3] *= -0.0  # -0.0 must come through as np.where passes it
        for value in (-1e9, -0.0):
            want = np.where(mask, np.asarray(value, dtype=np.float32), signed)
            for x_data, g in self._cases(signed):
                out, gx = _run(lambda t: F.masked_fill(t, mask, value), x_data, g)
                assert_bitwise(out, want)
                assert_bitwise(gx, self.G * ~mask)

    def test_reshape_copies_only_where_numpy_does(self):
        whole = randn(32, 32, 64)
        cases = {  # non-contiguous, 64 KiB and more: (array, shape, ndarray.reshape returns a view)
            "slice, unit dim": (whole[:, :16], (32, 16, 1, 64), True),
            "slice, split last axis": (whole[:, :16], (32, 16, 8, 8), True),
            "fortran order": (np.asfortranarray(whole[0]), (32, 64, 1), True),
            "transposed": (whole.transpose(1, 0, 2), (32, -1), False),
            "slice, merged axes": (whole[:, :16], (-1, 64), False),
        }
        for name, (x_data, shape, is_view) in cases.items():
            want = x_data.reshape(shape)
            assert np.shares_memory(want, x_data) == is_view, name
            x = Tensor(x_data, requires_grad=True)
            out = x.reshape(shape)
            assert_bitwise(out.data, want)
            assert np.shares_memory(out.data, x_data) == is_view, name
            out.backward(np.ones_like(want))
            assert_bitwise(x.grad, np.ones_like(x_data))
        with pytest.raises(ValueError):
            Tensor(whole[:, :16]).reshape(7, -1)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_quantizer_roundtrip(self, bits):
        from repro.compression.quantization import QuantizationCompressor

        q = QuantizationCompressor(bits)
        levels = (1 << bits) - 1
        flat = randn(64, 32, 32)
        flat[3] = 0.25  # groups of one value take the ``scale == 0`` branch
        for values in (flat, self.X[:, :7, :9]):  # 256 | size, and the padded path
            pad = -values.size % q.group_size
            g = np.pad(values.reshape(-1), (0, pad), mode="edge").reshape(-1, q.group_size)
            lo = g.min(axis=1, keepdims=True)
            scale = (g.max(axis=1, keepdims=True) - lo) / levels
            scale = np.where(scale == 0, 1.0, scale)
            codes = np.clip(np.round((g - lo) / scale), 0, levels).astype(np.uint8)
            want = (codes.astype(np.float32) * scale + lo).reshape(-1)[:values.size].reshape(values.shape)
            assert_bitwise(q.decompress(q.compress(values)), want)
            for x_data in layouts(values).values():
                assert_bitwise(q.roundtrip(x_data), want)
            # The wire's scales and zeros decide the dtype, as in the expression.
            wide = q._dequantize(codes.reshape(-1), scale.reshape(-1).astype(np.float64),
                                 lo.reshape(-1).astype(np.float64), values.size)
            want64 = codes.astype(np.float32) * scale.astype(np.float64) + lo.astype(np.float64)
            assert wide.dtype == np.float64
            np.testing.assert_array_equal(wide, want64.reshape(-1)[:values.size])
