"""Fused neural-network ops with hand-written backward rules.

These are the numerically sensitive or performance-critical ops used by the
transformer stack. Each is implemented as a single graph node with a custom
backward closure rather than a composition of primitives, both for numerical
stability (softmax / cross-entropy use the log-sum-exp trick) and to keep the
graphs produced by a 24-layer model small.

``linear`` is defined beside ``_matmul`` in :mod:`repro.tensor.tensor`,
because ``Tensor.__matmul__`` routes a stacked product against a 2-D weight
to it; it is re-exported here, where the layers call it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tensor import pool
from repro.tensor.tensor import Tensor, linear, unbroadcast

__all__ = [
    "linear",
    "relu",
    "gelu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "mse_loss",
    "layer_norm",
    "embedding",
    "dropout",
    "masked_fill",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = x.data > 0
    out_data = x.data * mask

    def backward(g):
        return (g * mask,)

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT/Megatron)."""
    x_data = x.data
    # The cube by multiplication: NumPy fast-paths only the square, and a
    # float32 cube written with ``**`` runs the generic power loop (~150x).
    # t = tanh(sqrt(2/pi) * (x + 0.044715 * (x * x * x))); 0.5 * x * (1 + t):
    # the operations of those expressions, in their order, on two arrays and
    # one scratch instead of nine temporaries.
    t, out_data, s = pool.empty_like(x_data), pool.empty_like(x_data), pool.empty_like(x_data)
    np.multiply(x_data, x_data, out=t)
    np.multiply(t, x_data, out=t)
    np.multiply(0.044715, t, out=t)
    np.add(x_data, t, out=t)
    np.multiply(_SQRT_2_OVER_PI, t, out=t)
    np.tanh(t, out=t)
    np.multiply(0.5, x_data, out=out_data)
    np.add(1.0, t, out=s)
    np.multiply(out_data, s, out=out_data)

    def backward(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t**2) * dinner), likewise on
        # two scratch arrays of our own; ``g``, ``x_data`` and ``t`` are
        # only read.
        u, v = pool.empty_like(x_data), pool.empty_like(x_data)
        np.multiply(0.5, x_data, out=u)
        np.square(t, out=v)
        np.subtract(1.0, v, out=v)
        np.multiply(u, v, out=u)  # 0.5 * x * (1 - t**2)
        np.square(x_data, out=v)
        np.multiply(3 * 0.044715, v, out=v)
        np.add(1.0, v, out=v)
        np.multiply(_SQRT_2_OVER_PI, v, out=v)  # dinner
        np.multiply(u, v, out=u)
        np.add(1.0, t, out=v)
        np.multiply(0.5, v, out=v)
        np.add(v, u, out=v)  # dgelu
        return (np.multiply(g, v, out=v),)

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    # The max as an elementwise maximum over a C-contiguous copy with
    # ``axis`` first: NumPy's max along the last axis of a (32,2,32,32)
    # float32 array costs 3.5x the copy and maximum together.  Max is
    # exact, and a zero max of either sign gives the same ``exp(x - m)``.
    moved = np.moveaxis(x.data, axis, 0)
    rows, out_data = pool.empty(moved.shape, moved.dtype), pool.empty_like(x.data)
    np.copyto(rows, moved)
    np.subtract(x.data, np.expand_dims(rows.max(axis=0), axis), out=out_data)
    np.exp(out_data, out=out_data)
    np.divide(out_data, out_data.sum(axis=axis, keepdims=True), out=out_data)

    def backward(g):
        # out * (g - sum(g * out)) on one array of our own.
        gx = pool.empty_like(out_data)
        dot = np.multiply(g, out_data, out=gx).sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=gx)
        return (np.multiply(out_data, gx, out=gx),)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer ``targets``.

    Parameters
    ----------
    logits:
        Shape ``(..., num_classes)``.
    targets:
        Integer array of shape ``logits.shape[:-1]``.
    ignore_index:
        Target value whose positions contribute no loss (used for MLM where
        unmasked positions are ignored).
    """
    targets = np.asarray(targets)
    flat_logits = logits.data.reshape(-1, logits.data.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones(flat_targets.shape, dtype=bool)
    n_valid = max(int(valid.sum()), 1)

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    safe_targets = np.where(valid, flat_targets, 0)
    picked = logp[np.arange(flat_targets.shape[0]), safe_targets]
    loss = -(picked * valid).sum() / n_valid
    out_data = np.asarray(loss, dtype=logits.data.dtype)
    shape = logits.data.shape

    def backward(g):
        grad = np.exp(logp)  # a fresh array, ours to write
        grad[np.arange(flat_targets.shape[0]), safe_targets] -= 1.0
        grad *= (valid / n_valid)[:, None]
        grad = grad.reshape(shape)
        return (grad * g,)

    return Tensor._make(out_data, (logits,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=pred.data.dtype)
    diff = pred.data - target
    out_data = np.asarray((diff**2).mean(), dtype=pred.data.dtype)

    def backward(g):
        return (g * 2.0 * diff / diff.size,)

    return Tensor._make(out_data, (pred,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    xhat, out_data = pool.empty_like(x.data), pool.empty_like(x.data)
    # Reductions run over our own C-contiguous arrays, so the result does
    # not depend on the layout ``x`` arrived in (DESIGN decision 15b).
    np.copyto(out_data, x.data)
    mu = out_data.mean(axis=-1, keepdims=True)
    np.subtract(out_data, mu, out=xhat)
    # The variance as ``x.var`` computes it (array_equal), without its
    # two temporaries: the mean of the squared deviations.
    np.multiply(xhat, xhat, out=out_data)
    var = np.add.reduce(out_data, axis=-1, keepdims=True) / x.data.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    np.multiply(xhat, inv, out=xhat)
    np.multiply(xhat, weight.data, out=out_data)
    np.add(out_data, bias.data, out=out_data)
    w, to_x, to_w, to_b = weight.data, x.requires_grad, weight.requires_grad, bias.requires_grad
    b_shape = bias.data.shape

    def backward(g):
        gx = gw = gb = None
        if to_w:
            gw = unbroadcast(np.multiply(g, xhat, out=pool.empty_like(xhat)), w.shape)
        if to_b:
            gb = unbroadcast(g, b_shape)
        if to_x:
            # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat)) on two
            # arrays of our own; ``u`` starts as gxhat = g * weight.
            u, v = pool.empty_like(xhat), pool.empty_like(xhat)
            mean = np.multiply(g, w, out=u).mean(axis=-1, keepdims=True)
            dot = np.multiply(u, xhat, out=v).mean(axis=-1, keepdims=True)
            np.subtract(u, mean, out=u)
            np.multiply(xhat, dot, out=v)
            np.subtract(u, v, out=u)
            gx = np.multiply(inv, u, out=u)
        return (gx, gw, gb)

    return Tensor._make(out_data, (x, weight, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Look up rows of ``table`` (shape ``(vocab, dim)``) by integer ``ids``."""
    ids = np.asarray(ids)
    out_data = table.data[ids]
    shape, dtype = table.data.shape, table.data.dtype

    def backward(g):
        grad = np.zeros(shape, dtype)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (grad,)

    return Tensor._make(out_data, (table,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout. A no-op when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype) / keep
    out_data = x.data * mask

    def backward(g):
        return (g * mask,)

    return Tensor._make(out_data, (x,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set positions where ``mask`` is True to ``value`` (no grad at those)."""
    mask = np.asarray(mask, dtype=bool)
    out_data = pool.empty(np.broadcast(mask, x.data).shape, x.data.dtype)
    np.copyto(out_data, x.data)
    np.copyto(out_data, value, where=mask)

    def backward(g):
        return (np.multiply(g, ~mask, out=pool.empty(out_data.shape, g.dtype)),)

    return Tensor._make(out_data, (x,), backward)
