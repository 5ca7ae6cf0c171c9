"""Module/Parameter system with recursive registration.

Follows the torch.nn conventions: attributes that are :class:`Parameter` or
:class:`Module` instances are auto-registered; ``parameters()`` /
``named_parameters()`` walk the tree; ``state_dict`` / ``load_state_dict``
serialize to plain NumPy arrays.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` that is a learnable leaf (``requires_grad=True``)."""

    #: Tensor-parallel rank that alone computes this parameter's gradient
    #: (set on tp shards); ``None`` for parameters replicated across tp.
    tp_rank: int | None = None

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network modules.

    Subclasses define parameters and submodules as attributes in
    ``__init__`` and implement ``forward``. Calling the module invokes
    ``forward``.
    """

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def register_module(self, name: str, module: "Module") -> None:
        """Register a submodule under ``name`` (for list-held children)."""
        self._modules[name] = module

    def add_parameter(self, name: str, param: Parameter) -> None:
        """Register a parameter under ``name`` (for dynamically built ones)."""
        self._parameters[name] = param

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` over the whole subtree."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters in the subtree, in registration order."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def modules(self) -> Iterator["Module"]:
        """Yield self and all descendant modules."""
        yield self
        for m in self._modules.values():
            yield from m.modules()

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter in the subtree."""
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy every parameter's array keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load arrays into matching parameters.

        With ``strict=False``, missing keys are skipped (the paper's Table 8
        workflow — dropping AE parameters when fine-tuning a pre-trained
        checkpoint — relies on this).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, arr in state.items():
            if name not in own:
                continue
            if own[name].data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {own[name].data.shape} vs {arr.shape}"
                )
            own[name].data = np.array(arr, dtype=own[name].data.dtype, copy=True)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.num_parameters()})"


class ModuleList(Module):
    """Container holding an ordered list of submodules."""

    def __init__(self, modules=()):
        super().__init__()
        self._list: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        self.register_module(str(len(self._list)), module)
        self._list.append(module)

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, idx):
        return self._list[idx]
