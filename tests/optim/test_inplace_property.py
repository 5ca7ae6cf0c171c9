"""The in-place optimizers against the textbook out-of-place formulas.

``Adam``/``AdamW`` update ``m``, ``v`` and the weights where they live and
``clip_grad_norm`` squares into reused scratch; none of that may move a
bit.  The reference below is the plain NumPy expression of each rule, one
fresh array per operation.  Over several steps the parameters, both
moments and the clip's norm must match it ``tobytes()``-equal, through the
first step, scalar and 2-D (also Fortran-ordered) parameters, missing,
zero and signed-zero gradients, and a ``state_dict()`` round trip into a
fresh optimizer in the middle of the run.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.module import Parameter
from repro.optim import Adam, AdamW

SHAPES = [(), (1,), (5,), (3, 4), (4, 1)]


class TextbookAdam:
    """Adam / AdamW exactly as written in the papers, out of place."""

    def __init__(self, weights, lr, betas, eps, weight_decay, decoupled):
        self.w = [w.copy() for w in weights]
        self.lr, self.betas, self.eps = lr, betas, eps
        self.wd, self.decoupled = weight_decay, decoupled
        self.m, self.v = {}, {}
        self.t = 0

    def clip(self, grads, max_norm):
        total = 0.0
        for g in grads:
            if g is not None:
                total += float((g.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            grads = [None if g is None else g * (max_norm / norm) for g in grads]
        return norm, grads

    def step(self, grads):
        self.t += 1
        b1, b2 = self.betas
        for i, g in enumerate(grads):
            if g is None:
                continue
            if self.decoupled and self.wd:
                self.w[i] = self.w[i] - self.lr * self.wd * self.w[i]
            if self.wd and not self.decoupled:
                g = g + self.wd * self.w[i]
            m, v = self.m.get(i), self.v.get(i)
            self.m[i] = b1 * m + (1 - b1) * g if m is not None else (1 - b1) * g
            self.v[i] = b2 * v + (1 - b2) * g * g if v is not None else (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            self.w[i] = self.w[i] - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def finite32(lo=-4.0, hi=4.0):
    return st.floats(lo, hi, width=32, allow_subnormal=False)


@st.composite
def gradient(draw, shape):
    """A float32 gradient, or None, zeros, signed zeros; 2-D ones may be
    Fortran-ordered."""
    kind = draw(st.sampled_from(["values", "values", "none", "zeros", "-zeros"]))
    if kind == "none":
        return None
    if kind in ("zeros", "-zeros"):
        g = np.full(shape, -0.0 if kind == "-zeros" else 0.0, dtype=np.float32)
    else:
        g = draw(hnp.arrays(np.float32, shape, elements=finite32()))
    if len(shape) == 2 and draw(st.booleans()):
        g = np.asfortranarray(g)
    return g


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       shapes=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4),
       decoupled=st.booleans(),
       weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
       lr=st.sampled_from([1e-3, 3e-4, 0.1]),
       betas=st.sampled_from([(0.9, 0.999), (0.5, 0.9)]),
       eps=st.sampled_from([1e-8, 1e-3]),
       max_norm=st.sampled_from([None, 0.5, 1e3]),
       steps=st.integers(1, 5))
def test_adam_matches_the_textbook_bitwise(data, shapes, decoupled, weight_decay, lr,
                                           betas, eps, max_norm, steps):
    weights = [data.draw(hnp.arrays(np.float32, s, elements=finite32()), label="w")
               for s in shapes]
    params = [Parameter(w.copy()) for w in weights]
    cls = AdamW if decoupled else Adam
    kwargs = dict(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
    opt = cls(params, **kwargs)
    ref = TextbookAdam(weights, lr, betas, eps, weight_decay, decoupled)
    reload_at = data.draw(st.integers(0, steps), label="reload_at")

    for step in range(steps):
        if step == reload_at:
            state = opt.state_dict()
            opt = cls(params, **kwargs)
            opt.load_state_dict(state)
        grads = [data.draw(gradient(s), label=f"g{step}") for s in shapes]
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy(order="K")  # keeps the layout
        if max_norm is not None:
            norm, grads = ref.clip(grads, max_norm)
            assert opt.clip_grad_norm(max_norm) == norm
            for p, g in zip(params, grads):
                assert (p.grad is None) == (g is None)
                assert p.grad is None or p.grad.tobytes() == g.tobytes()
        opt.step()
        ref.step(grads)

        slots = opt.state_dict()["slots"]
        for i, p in enumerate(params):
            assert p.data.tobytes() == ref.w[i].tobytes(), (step, i)
            assert set(slots["m"]) == set(ref.m) and set(slots["v"]) == set(ref.v)
            if i in ref.m:
                assert slots["m"][i].tobytes() == ref.m[i].tobytes(), (step, i)
                assert slots["v"][i].tobytes() == ref.v[i].tobytes(), (step, i)
