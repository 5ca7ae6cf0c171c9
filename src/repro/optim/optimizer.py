"""SGD / Adam / AdamW on :class:`repro.nn.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "AdamW"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr
        self.step_count = 0
        #: Scratch shared by every parameter, sized to the largest one.
        self._scratch: dict[str, np.ndarray] = {}
        # A step frees no parameter-sized temporary, so nothing lifts glibc's
        # dynamic mmap and trim thresholds (mallopt(3)) any more, and the heap
        # top a forward pass grows went back to the kernel and was re-faulted
        # every step (~250 pages on tp2 pp2).  Freeing one block the size of
        # the state lifts them for good, as each mp worker does at start-up.
        bytearray(min(sum(p.data.nbytes for p in self.params), 31 << 20))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._update(i, p)

    def _update(self, index: int, p: Tensor) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Serializable optimizer state for checkpointing.

        Slot buffers are keyed by parameter *index*, which is stable
        across a fresh model construction from the same config (parameter
        registration order is deterministic) — the checkpoint needs no
        name mapping.
        """
        return {"step_count": self.step_count, "lr": self.lr,
                "slots": self._slot_state()}

    def load_state_dict(self, state: dict) -> None:
        self.step_count = int(state["step_count"])
        self.lr = float(state["lr"])
        self._load_slot_state(state.get("slots", {}))

    def _slot_state(self) -> dict[str, dict[int, np.ndarray]]:
        """Per-subclass slot buffers (momenta etc.); base class has none."""
        return {}

    def _load_slot_state(self, slots: dict) -> None:
        pass

    def _buffer(self, key: str, p: Tensor, dtype=None) -> np.ndarray:
        """Scratch ``key`` viewed in ``p``'s shape (``p``'s dtype unless
        given): one buffer for every parameter, so a step allocates no
        parameter-sized temporary."""
        if key not in self._scratch:
            self._scratch[key] = np.empty(max(q.data.size for q in self.params),
                                          dtype or p.data.dtype)
        return self._scratch[key][:p.data.size].reshape(p.data.shape)

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; returns the pre-clip norm."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                if p.grad.flags.c_contiguous:
                    sq = self._buffer("sq", p, np.float64)
                    sq[...] = p.grad
                else:  # a copy in the gradient's own layout keeps the sum's order
                    sq = p.grad.astype(np.float64)
                total += float(np.square(sq, out=sq).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class SGD(Optimizer):
    """SGD with optional momentum and weight decay."""

    def __init__(self, params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def _update(self, index: int, p: Tensor) -> None:
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        if self.momentum:
            v = self._velocity.get(index)
            v = self.momentum * v + g if v is not None else g.copy()
            self._velocity[index] = v
            g = v
        p.data -= self.lr * g

    def _slot_state(self) -> dict[str, dict[int, np.ndarray]]:
        return {"velocity": {i: v.copy() for i, v in self._velocity.items()}}

    def _load_slot_state(self, slots: dict) -> None:
        self._velocity = {int(i): np.asarray(v).copy()
                          for i, v in slots.get("velocity", {}).items()}


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def _effective_grad(self, p: Tensor) -> np.ndarray:
        if self.weight_decay:
            g = np.multiply(p.data, self.weight_decay, out=self._buffer("b", p))
            return np.add(p.grad, g, out=g)
        return p.grad

    def _update(self, index: int, p: Tensor) -> None:
        # The textbook expressions, operation for operation, through ``out=``:
        # m, v and p.data are updated where they live, and every temporary
        # is scratch ``a`` or ``b`` (``b`` holds g under weight decay).
        b1, b2 = self.betas
        g = self._effective_grad(p)
        a, b = self._buffer("a", p), self._buffer("b", p)
        m, v = self._m.get(index), self._v.get(index)
        if m is None:
            m = self._m[index] = np.multiply(g, 1 - b1, out=np.empty_like(g))
        else:
            np.add(np.multiply(m, b1, out=m), np.multiply(g, 1 - b1, out=a), out=m)
        gg = np.multiply(np.multiply(g, 1 - b2, out=a), g, out=a)  # (1 - b2) * g * g
        if v is None:
            v = self._v[index] = gg.copy()
        else:
            np.add(np.multiply(v, b2, out=v), gg, out=v)
        mhat = np.divide(m, 1 - b1**self.step_count, out=a)
        vhat = np.divide(v, 1 - b2**self.step_count, out=b)
        denom = np.add(np.sqrt(vhat, out=b), self.eps, out=b)
        step = np.divide(np.multiply(mhat, self.lr, out=a), denom, out=a)
        np.subtract(p.data, step, out=p.data)

    def _slot_state(self) -> dict[str, dict[int, np.ndarray]]:
        return {"m": {i: m.copy() for i, m in self._m.items()},
                "v": {i: v.copy() for i, v in self._v.items()}}

    def _load_slot_state(self, slots: dict) -> None:
        self._m = {int(i): np.asarray(m).copy()
                   for i, m in slots.get("m", {}).items()}
        self._v = {int(i): np.asarray(v).copy()
                   for i, v in slots.get("v", {}).items()}


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def _effective_grad(self, p: Tensor) -> np.ndarray:
        return p.grad

    def _update(self, index: int, p: Tensor) -> None:
        if self.weight_decay:
            decay = np.multiply(p.data, self.lr * self.weight_decay,
                                out=self._buffer("a", p))
            np.subtract(p.data, decay, out=p.data)
        super()._update(index, p)
