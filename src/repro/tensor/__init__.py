"""Minimal reverse-mode automatic differentiation engine on NumPy.

This package is the substrate that replaces PyTorch in this reproduction.
It provides a :class:`Tensor` wrapping a ``numpy.ndarray`` plus a reverse-mode
graph, the fused numerical ops needed for transformer training (softmax,
layer-norm, GELU, cross-entropy), and a tiny ``no_grad`` mechanism.

The design goal is correctness and readability, not raw speed: every backward
rule is written as straightforward vectorized NumPy so it can be checked
against finite differences (see ``tests/tensor/test_grad_check.py``).
"""

from repro.tensor.tensor import (
    Tensor,
    no_grad,
    is_grad_enabled,
    tensor,
    register_op_hook,
    unregister_op_hook,
    op_hook,
)
from repro.tensor import functional

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "tensor",
    "functional",
    "register_op_hook",
    "unregister_op_hook",
    "op_hook",
]
