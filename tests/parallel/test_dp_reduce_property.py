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

from repro.parallel.backend import RankContext, active_context
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


# ----------------------------------------------------------------------
# The sparse codecs' message fold
# ----------------------------------------------------------------------
#: Signed zeros, infinities and NaN among the magnitudes: with few nonzeros
#: Top-K keeps zeros, and with two or more NaNs it keeps everything.
SPECIALS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -2.0,
                            np.inf, -np.inf, np.nan])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dp=st.sampled_from([2, 3, 4]),
       scheme=st.sampled_from(["T2", "R2"]))
def test_message_fold_equals_the_dense_fold_bitwise(data, dp, scheme):
    """Replicas r >= 1 hand over ``(indices, values)`` and rank 0 folds
    them; the reference folds every replica's dense decode."""
    ref_codec, new_codec = codec(scheme), codec(scheme)
    for step in range(3):
        vectors = [data.draw(hnp.arrays(np.float32, NUMEL, elements=SPECIALS),
                             label=f"replica{r}.step{step}") for r in range(dp)]
        want = reference([{"v": v} for v in vectors], ref_codec)
        got = dp_all_reduce([v.copy() for v in vectors], new_codec, CommTracker())
        assert got.tobytes() == want.tobytes(), (step, scheme, dp)
        assert state_bytes(new_codec.runtime_state()) == \
            state_bytes(ref_codec.runtime_state()), (step, scheme, dp)


@pytest.mark.parametrize("dp", [2, 3, 4])
def test_a_negative_zero_only_one_replica_keeps_becomes_positive(dp):
    """Top-K keeps indices 0 and 1 of an all ``-0.0`` replica 0 (ties go
    low); the others keep 10 and 11.  The dense fold adds their ``+0.0``
    to index 0, so the mean there is ``+0.0``, as the message fold's."""
    vectors = [np.full(NUMEL, -0.0, np.float32)]
    for r in range(1, dp):
        vector = np.zeros(NUMEL, np.float32)
        vector[[10, 11]] = [5.0, -5.0 * r]
        vectors.append(vector)
    want = reference([{"v": v} for v in vectors], codec("T2"))
    got = dp_all_reduce([v.copy() for v in vectors], codec("T2"), CommTracker())
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[:2]).any()  # -0.0 + 0.0


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(hnp.arrays(np.float32, NUMEL, elements=SPECIALS), min_size=1, max_size=3),
       scheme=st.sampled_from(["T2", "R2"]))
def test_message_conserves_corrected_as_decode_plus_residual(xs, scheme):
    """``corrected == decode + residual`` where the corrected input is
    finite, exactly; everywhere, the residual is ``corrected - decode``."""
    ef = codec(scheme)
    for x in xs:
        prev = ef.residual("s")
        corrected = x.copy() if prev is None else np.add(x, prev)
        before = x.copy()
        idx, kept = ef.message(x, "s")
        np.testing.assert_array_equal(x, before)  # only read
        decode = np.zeros_like(x)
        decode[idx] = kept
        residual = ef.residual("s")
        finite = np.isfinite(corrected)
        np.testing.assert_array_equal((decode + residual)[finite], corrected[finite])
        assert residual.tobytes() == np.subtract(corrected, decode).tobytes()


class SlabTransport:
    """Fake worker transport over in-process slabs: exchanges replay what
    the peers that already ran published (zeros for the rest)."""

    def __init__(self, rank, slabs, published):
        self.rank, self.slabs, self.published = rank, slabs, published

    def exchange(self, peers, arr, *, timeout, label=None):
        self.published[self.rank] = arr.copy()
        return {p: self.published.get(p, np.zeros_like(arr)) for p in peers}

    def grad_flat(self, gang):
        return self.slabs[gang]


@pytest.mark.parametrize("dp", [2, 4])
@pytest.mark.parametrize("scheme", ["T2", "R2"])
def test_a_leader_publishes_k_indices_and_values_and_nothing_else_is_read(dp, scheme):
    """Each leader r >= 1 changes only the front ``k * (4 + 4)`` bytes of
    its slab, where its message lies; poisoning the rest of every peer slab
    leaves leader 0's mean equal to the in-process reduce's."""
    n = 4096
    rng = np.random.default_rng(0)
    oracle = codec(scheme)
    leaders = [codec(scheme) for _ in range(dp)]
    k = leaders[0].inner._k(n)
    slabs = [np.empty(n, np.float32) for _ in range(dp)]
    for step in range(3):
        grads = [rng.standard_normal(n).astype(np.float32) for _ in range(dp)]
        want = dp_all_reduce([g.copy() for g in grads], oracle, CommTracker())
        published = {}
        for r in reversed(range(dp)):  # the peers publish before rank 0 folds
            slabs[r][...] = grads[r]
            ctx = RankContext(tp=1, pp=1, tp_rank=0, stage=0, dp=dp, dp_rank=r,
                              transport=SlabTransport(r, slabs, published))
            with active_context(ctx):
                dp_all_reduce([slabs[r]], leaders[r], CommTracker())
            if r == 0:
                break
            assert int(published[r][0]) == k
            assert slabs[r][:2 * k].nbytes == k * (4 + 4)
            assert slabs[r][2 * k:].tobytes() == grads[r][2 * k:].tobytes()
            idx = slabs[r][:k].view(np.int32)
            assert (np.diff(idx) > 0).all()
            slabs[r][2 * k:] = np.nan
        assert slabs[0].tobytes() == want.tobytes(), (step, scheme, dp)
        for r, leader in enumerate(leaders):
            site = f"dp.rank{r}"
            assert state_bytes(leader.runtime_state())["residuals"][site] == \
                state_bytes(oracle.runtime_state())["residuals"][site]
