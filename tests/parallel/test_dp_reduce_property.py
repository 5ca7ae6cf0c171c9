"""The in-place dp reduce against the flatten → ``code`` → fold → divide
it replaced, ``tobytes()``-equal.

A replica's gradients lie in its flat vector the way backward leaves them
(each parameter's view of the slab, sorted-name order); the new path takes
that vector as it is when every parameter has a gradient and packs the
written ones otherwise (:func:`pack_grads`), codes each vector in place and
folds the decodes into the first.  The reference
concatenates fresh copies, calls the codec's ``code`` and adds its decodes
into a running total.  Both run three steps on their own codec, so the
error-feedback residuals and Random-K streams carry across steps, and the
means and each codec's runtime state must match bit for bit: ties at the
k-th magnitude, signed zeros and a NaN included, and steps where some
parameters got no gradient.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.parallel.backend.context import grad_views
from repro.parallel.collectives import CommTracker, dp_all_reduce, pack_grads
from repro.parallel.grad_sync import build_dp_grad_compressor

SHAPES = {"w": (6, 5), "b": (5,), "s": (), "ln": (4,), "emb": (3, 8)}
NUMEL = sum(int(np.prod(shape)) for shape in SHAPES.values())

#: Few distinct magnitudes, so Top-K's threshold is usually tied.
VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


def codec(scheme):
    config = SimpleNamespace(scheme=scheme, seed=3,
                             model=SimpleNamespace(hidden=32))
    return build_dp_grad_compressor(config)


def reference(replica_grads, compressor):
    """The reduce as written before it ran in place."""
    names = sorted(replica_grads[0])
    total = None
    for r, grads in enumerate(replica_grads):
        flat = np.concatenate([np.asarray(grads[n], dtype=np.float32).ravel()
                               for n in names])
        if compressor is not None:
            flat = compressor.code(flat, site=f"dp.rank{r}")[1].astype(
                np.float32, copy=False)
        total = flat if total is None else np.add(total, flat, out=total)
    return np.divide(total, len(replica_grads), out=total)


def in_place(replica_grads, compressor, flats):
    """Each replica's gradients written where backward leaves them, then
    the backends' path."""
    vectors = []
    for grads, flat in zip(replica_grads, flats):
        flat.fill(np.float32(7.0))  # last step's leftovers in unwritten spans
        views = grad_views(flat, SHAPES)
        for name, g in grads.items():
            views[name][...] = g
        vectors.append(flat if len(grads) == len(SHAPES)
                       else pack_grads(flat, {n: views[n] for n in grads}))
    return dp_all_reduce(vectors, compressor, CommTracker())


def state_bytes(state):
    """A runtime-state tree with every array replaced by its bytes."""
    if isinstance(state, dict):
        return {k: state_bytes(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return (state.dtype.str, state.shape, state.tobytes())
    return state


# Q2 casts the NaN's quantization code to an integer: a warning, same bits.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@settings(max_examples=60, deadline=None)
@given(data=st.data(), dp=st.sampled_from([2, 3, 4]),
       scheme=st.sampled_from(["T2", "R2", "Q2", "w/o"]))
def test_in_place_reduce_matches_the_flatten_code_fold_reference(data, dp, scheme):
    ref_codec, new_codec, dict_codec = codec(scheme), codec(scheme), codec(scheme)
    flats = [np.empty(NUMEL, np.float32) for _ in range(dp)]
    for step in range(3):
        written = data.draw(st.sets(st.sampled_from(sorted(SHAPES)), min_size=1),
                            label=f"written{step}")
        poison = data.draw(st.booleans(), label=f"nan{step}")
        replica_grads = []
        for r in range(dp):
            grads = {name: data.draw(hnp.arrays(np.float32, SHAPES[name],
                                                elements=VALUES))
                     for name in sorted(written)}
            if poison and r == 0:
                first = min(written)
                grads[first].reshape(-1)[0] = np.nan
            replica_grads.append(grads)
        want = reference(replica_grads, ref_codec)
        got = in_place(replica_grads, new_codec, flats)
        assert got.tobytes() == want.tobytes(), (step, scheme, dp, sorted(written))
        # Replicas handed over as name -> gradient dicts take the same path.
        from_dicts = dp_all_reduce(replica_grads, dict_codec, CommTracker())
        assert from_dicts.tobytes() == want.tobytes(), (step, scheme, dp)
        if ref_codec is not None:
            assert state_bytes(new_codec.runtime_state()) == \
                state_bytes(ref_codec.runtime_state()), (step, scheme, dp)
            assert state_bytes(dict_codec.runtime_state()) == \
                state_bytes(ref_codec.runtime_state()), (step, scheme, dp)


def test_private_gradients_are_packed_by_copy():
    """Gradients that live outside the flat (no buffer bound) are copied in
    sorted-name order; gradients already in place keep their bytes."""
    flat = np.full(NUMEL, np.float32(9.0))
    grads = {name: np.full(shape, i, np.float32)
             for i, (name, shape) in enumerate(sorted(SHAPES.items()))}
    vector = pack_grads(flat, grads)
    assert np.shares_memory(vector, flat)
    assert vector.tobytes() == np.concatenate(
        [grads[n].ravel() for n in sorted(grads)]).tobytes()
    views = grad_views(flat, SHAPES)
    before = flat.copy()
    assert pack_grads(flat, views).tobytes() == before.tobytes()
