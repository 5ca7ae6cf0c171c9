"""Reverse-mode autodiff Tensor.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records, for each produced
tensor, a closure that propagates the output gradient to its parents.
``Tensor.backward()`` runs a topological sort and applies the closures.

Broadcasting is supported on elementwise ops; gradients are un-broadcast by
summing over the broadcast axes (:func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor import pool

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "tensor",
    "unbroadcast",
    "register_tensor_guard",
    "unregister_tensor_guard",
    "tensor_guard",
    "register_op_hook",
    "unregister_op_hook",
    "op_hook",
]

_GRAD_ENABLED = True

#: Optional sanitizer hooks (repro.lint.graph_check). Each guard is called
#: with (array, context) for every op output and every backward gradient.
#: Empty in normal operation so the hot path pays one truthiness check.
_TENSOR_GUARDS: list[Callable[[np.ndarray, str], None]] = []

#: Optional op-observer hooks (repro.obs.profile). Each hook is called as
#: ``fn(op, data, parent_shapes, phase)`` — once per produced op output
#: (phase "forward") and once per executed backward closure (phase
#: "backward"). Like the guards, the list is empty in normal operation so
#: the hot path pays one truthiness check and nothing else.
_OP_HOOKS: list[Callable[[str, np.ndarray, tuple, str], None]] = []

#: Backward-closure code object -> op name, so the hook path resolves the
#: producing op without re-parsing ``__qualname__`` on every call.
_OP_NAME_CACHE: dict[int, str] = {}


def _op_name(backward: Callable) -> str:
    """Name of the op that defined ``backward`` (from its qualname)."""
    key = id(getattr(backward, "__code__", backward))
    name = _OP_NAME_CACHE.get(key)
    if name is None:
        parts = getattr(backward, "__qualname__", "op").split(".")
        # "Tensor.__add__.<locals>.backward" -> "__add__";
        # "concatenate.<locals>.backward" -> "concatenate".
        name = parts[-3] if len(parts) >= 3 else parts[0]
        _OP_NAME_CACHE[key] = name
    return name


def register_op_hook(fn: Callable[[str, np.ndarray, tuple, str], None]) -> Callable:
    """Install ``fn(op, data, parent_shapes, phase)`` on every tensor op."""
    _OP_HOOKS.append(fn)
    return fn


def unregister_op_hook(fn: Callable[[str, np.ndarray, tuple, str], None]) -> None:
    """Remove a hook previously installed with :func:`register_op_hook`."""
    _OP_HOOKS.remove(fn)


@contextlib.contextmanager
def op_hook(fn: Callable[[str, np.ndarray, tuple, str], None]):
    """Context manager installing an op hook for the duration of the block."""
    register_op_hook(fn)
    try:
        yield fn
    finally:
        unregister_op_hook(fn)


def _run_op_hooks(op: str, data: np.ndarray, parent_shapes: tuple, phase: str) -> None:
    for fn in _OP_HOOKS:
        fn(op, data, parent_shapes, phase)


def register_tensor_guard(fn: Callable[[np.ndarray, str], None]) -> Callable:
    """Install ``fn(array, context)`` to run on every op output / gradient."""
    _TENSOR_GUARDS.append(fn)
    return fn


def unregister_tensor_guard(fn: Callable[[np.ndarray, str], None]) -> None:
    """Remove a guard previously installed with :func:`register_tensor_guard`."""
    _TENSOR_GUARDS.remove(fn)


@contextlib.contextmanager
def tensor_guard(fn: Callable[[np.ndarray, str], None]):
    """Context manager installing a guard for the duration of the block."""
    register_tensor_guard(fn)
    try:
        yield fn
    finally:
        unregister_tensor_guard(fn)


def _run_guards(data: np.ndarray, context: str) -> None:
    for fn in _TENSOR_GUARDS:
        fn(data, context)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Inside the context, ops produce plain result tensors with
    ``requires_grad=False`` and record no backward closures.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Return whether ops currently record backward graphs."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it has ``shape``, undoing NumPy broadcasting.

    Sums over leading axes that were added by broadcasting and over axes
    whose original extent was 1.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the target shape.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _pooled(ufunc: np.ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)``, elementwise, into a pooled array.

    The shape and dtype NumPy would give the result, found the cheap way
    when the operands agree: a step of small arrays makes hundreds of these
    calls, and ``np.result_type`` alone is a third of a ``(4,16,128)`` add.
    """
    shape = a.shape if a.shape == b.shape else np.broadcast(a, b).shape
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return ufunc(a, b, out=pool.empty(shape, dtype))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` into a pooled array (likewise)."""
    lead = a.shape[:-2]
    if b.ndim > 2 and b.shape[:-2] != lead:
        lead = np.broadcast_shapes(lead, b.shape[:-2])
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return np.matmul(a, b, out=pool.empty(lead + (a.shape[-2], b.shape[-1]), dtype))


def linear(x: "Tensor", weight: "Tensor", bias: "Tensor | None" = None) -> "Tensor":
    """Affine map ``x @ weight + bias`` as one graph node (DESIGN decision 15e).

    ``weight`` has shape ``(in_features, out_features)`` (note: **not**
    transposed like torch) so that tensor-parallel column/row splits are
    simple slices along the second/first axis respectively.
    """
    a, w = x.data, weight.data
    if a.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    out_data = _matmul(a, w)
    if bias is not None:
        np.add(out_data, bias.data, out=out_data)

    def backward(g):
        ga = gw = gb = None
        if x.requires_grad:
            # A stacked ``x`` runs against a contiguous copy of ``Wᵀ``: the
            # stacked loop costs up to 2.6x against the view, copy included.
            # A 2-D ``x`` is one GEMM either way, and the view costs less.
            wt = w.T
            if a.ndim > 2:
                wt = pool.empty(w.shape[::-1], w.dtype)
                np.copyto(wt, w.T)
            ga = _matmul(g, wt)
        if weight.requires_grad:  # one GEMM over every token
            gw = _matmul(a.reshape(-1, w.shape[0]).T, g.reshape(-1, w.shape[1]))
        if bias is not None and bias.requires_grad:
            gb = unbroadcast(g, bias.data.shape)
        return (ga, gw, gb)

    return Tensor._make(out_data, (x, weight) if bias is None else (x, weight, bias), backward)


def _as_array(value, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Array-like payload. Stored as ``float32`` unless an ndarray of a
        different float dtype is given.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this
        tensor during :meth:`backward`.
    name:
        Optional debug label carried through error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output wired into the graph (internal)."""
        if _TENSOR_GUARDS:
            _run_guards(data, "forward")
        if _OP_HOOKS:
            _run_op_hooks(
                _op_name(backward), data, tuple(p.data.shape for p in parents), "forward"
            )
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = None
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (internal)."""
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor. Defaults to
            1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                node._accumulate(g)
                continue
            node._backward_dispatch(g, grads)

    def _backward_dispatch(self, g: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run this node's backward closure, routing parent grads (internal).

        The closure returns one gradient per parent (or ``None`` for parents
        that do not require grad).
        """
        parent_grads = self._backward(g)
        if _OP_HOOKS:
            _run_op_hooks(_op_name(self._backward), g, (), "backward")
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for p, pg in zip(self._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if _TENSOR_GUARDS:
                _run_guards(np.asarray(pg), "backward")
            pid = id(p)
            if p._backward is None and not p._parents:
                # Leaf tensor: accumulate directly so grads persist.
                p._accumulate(pg)
            elif pid in grads:
                grads[pid] = _pooled(np.add, grads[pid], pg)
            else:
                grads[pid] = pg

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = _pooled(np.add, self.data, other.data)

        def backward(g):
            return (unbroadcast(g, self.data.shape), unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data - other.data

        def backward(g):
            gb = unbroadcast(-g, other.data.shape) if other.requires_grad else None
            return (unbroadcast(g, self.data.shape), gb)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = _pooled(np.multiply, self.data, other.data)

        def backward(g):
            # A parent that takes no gradient (``scores * (1 / sqrt(d))``)
            # costs no product and no reduction to a scalar.
            to_a, to_b = self.requires_grad, other.requires_grad
            return (
                unbroadcast(_pooled(np.multiply, g, other.data), self.data.shape) if to_a else None,
                unbroadcast(_pooled(np.multiply, g, self.data), other.data.shape) if to_b else None,
            )

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        out_data = self.data / other.data

        def backward(g):
            to_a, to_b = self.requires_grad, other.requires_grad
            return (
                unbroadcast(g / other.data, self.data.shape) if to_a else None,
                unbroadcast(-g * self.data / (other.data**2), other.data.shape) if to_b else None,
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other) / self

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        x = self.data
        # Integer powers by multiplication (DESIGN decision 15a): NumPy
        # fast-paths only the square, and ``x**3`` runs the generic loop.
        out_data = np.square(x) if exponent == 2 else x * x * x if exponent == 3 else x**exponent

        def backward(g):
            if exponent == 0:  # not ``0 * x**-1``, which is NaN at x == 0
                return (np.zeros(x.shape, g.dtype),)
            dx = x if exponent == 2 else np.square(x) if exponent == 3 else x ** (exponent - 1)
            return (g * exponent * dx,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix multiply
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul requires operands with ndim >= 2")
        if a.ndim > 2 and b.ndim == 2:  # a stacked product against a weight (DESIGN 15e)
            return linear(self, other)
        out_data = _matmul(a, b)

        def backward(g):
            ga = gb = None
            if self.requires_grad:
                ga = unbroadcast(_matmul(g, np.swapaxes(b, -1, -2)), a.shape)
            if other.requires_grad:
                # Left to ``malloc``: pooled, attention's ``gb`` measured no
                # different (EXPERIMENTS.md "Weight GEMMs").
                gb = unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
            return (ga, gb)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            return (g * out_data,)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g):
            return (g / self.data,)

        return Tensor._make(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - out_data**2),)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g):
            return (g * 0.5 / out_data,)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(g):
            return (g * np.sign(self.data),)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def maximum(self, other) -> "Tensor":
        """Elementwise maximum; at ties the gradient goes to ``self``."""
        other = Tensor._coerce(other)
        mask = self.data >= other.data
        out_data = np.where(mask, self.data, other.data)

        def backward(g):
            return (
                unbroadcast(g * mask, self.data.shape) if self.requires_grad else None,
                unbroadcast(g * ~mask, other.data.shape) if other.requires_grad else None,
            )

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, self.data.shape).copy(),)
            g2 = g
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g2 = np.expand_dims(g2, ax)
            return (np.broadcast_to(g2, self.data.shape).copy(),)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max over one axis; gradient flows to the (first) argmax entries."""
        idx = np.argmax(self.data, axis=axis)
        out_data = np.max(self.data, axis=axis, keepdims=keepdims)

        def backward(g):
            grad = np.zeros_like(self.data)
            g2 = g if keepdims else np.expand_dims(g, axis)
            onehot = np.expand_dims(idx, axis) == np.arange(self.data.shape[axis]).reshape(
                [-1 if i == axis % self.data.ndim else 1 for i in range(self.data.ndim)]
            )
            grad += g2 * onehot
            return (grad,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.view()
        try:
            out_data.shape = shape  # a view wherever ``reshape`` returns one
        except AttributeError:
            # The copy ``reshape`` makes instead (of a transposed array, say),
            # into a pooled buffer.
            out_data = pool.empty_like(self.data)
            np.copyto(out_data, self.data)
            out_data = out_data.reshape(shape)
        in_shape = self.data.shape

        def backward(g):
            return (g.reshape(in_shape),)

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)

        def backward(g):
            return (g.transpose(inv),)

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(g):
            return (g.swapaxes(a, b),)

        return Tensor._make(self.data.swapaxes(a, b), (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        # A key of plain ints, slices, None and Ellipsis selects every element
        # at most once, so ``+=`` equals ``np.add.at`` bitwise at a tenth of
        # the cost (``=`` would keep a -0.0 that both turn into +0.0).
        # Anything not provably basic (index arrays, lists, masks, NumPy
        # scalars) may repeat an element and must accumulate.
        basic = all(
            k is None or k is Ellipsis or type(k) in (int, slice)
            for k in (key if type(key) is tuple else (key,))
        )

        def backward(g):
            grad = pool.empty_like(self.data)
            grad.fill(0)
            if basic:
                grad[key] += g
            else:
                np.add.at(grad, key, g)
            return (grad,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparison helpers (no grad)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other


def tensor(data, requires_grad: bool = False, name: str | None = None) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, name=name)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = list(tensors)
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def split(t: Tensor, sections: int, axis: int = 0) -> list[Tensor]:
    """Split ``t`` into ``sections`` equal parts along ``axis``."""
    if t.shape[axis] % sections != 0:
        raise ValueError(f"axis {axis} of size {t.shape[axis]} not divisible by {sections}")
    step = t.shape[axis] // sections
    outs = []
    for i in range(sections):
        idx = [slice(None)] * t.ndim
        idx[axis] = slice(i * step, (i + 1) * step)
        outs.append(t[tuple(idx)])
    return outs
