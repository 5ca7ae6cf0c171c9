"""``repro.tensor.pool``: a block is recycled exactly when nothing aliases it.

The pool has no ``release()``: a block goes back to its free list when the
array :func:`pool.empty` returned (the token) dies, and every array NumPy
derives from the token keeps it alive through ``.base``.  The programs here
run against plain NumPy arrays as the reference: every take, alias and
write is mirrored on an ordinary array, and after every operation each live
alias must hold the bytes of its mirror.  A block handed out while an alias
of it is alive shows as a changed byte.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, pool

#: Pooled request sizes in bytes; few, so that programs reuse buckets.
SIZES = (pool.FLOOR, pool.FLOOR + 1024, 2 * pool.FLOOR)
DTYPES = (np.uint8, np.float32)

#: Ways to alias an array's memory.  Each maps an array (or None when it does
#: not apply) and is run on the pooled array and on its mirror alike.
ALIASES = {
    "reshape": lambda a: a.reshape(-1, 64) if a.ndim == 1 and a.size % 64 == 0 else a.reshape(-1),
    "transpose": lambda a: (a.reshape(64, -1).transpose(1, 0)
                            if a.flags.c_contiguous and a.size % 64 == 0 else None),
    "slice": lambda a: a[len(a) // 4:],
    "step": lambda a: a[::2],
    "T": lambda a: a.T,
    "asarray": np.asarray,
    "bytes": lambda a: a.view(np.uint8) if a.flags.c_contiguous else None,
    "memoryview": lambda a: np.asarray(memoryview(a)) if a.flags.c_contiguous else None,
    "detach": lambda a: Tensor(a).detach().data if a.dtype == np.float32 else None,
}

OPS = st.one_of(
    st.tuples(st.just("take"), st.sampled_from(SIZES), st.sampled_from(DTYPES)),
    st.tuples(st.just("alias"), st.integers(0, 99), st.sampled_from(sorted(ALIASES))),
    st.tuples(st.just("write"), st.integers(0, 99), st.integers(1, 100)),
    st.tuples(st.just("drop"), st.integers(0, 99), st.none()),
)


def _take(live, nbytes, dtype):
    got = pool.empty((nbytes // np.dtype(dtype).itemsize,), dtype)
    assert got.dtype == dtype and got.nbytes == nbytes
    assert got.flags.c_contiguous and got.flags.writeable and got.flags.aligned
    assert not got.flags.owndata and got.ctypes.data % pool.ALIGN == 0
    got[...] = len(live) + 101  # a live alias of this block would see it
    live.append([got, got.copy(), got.ctypes.data])


def _alias(live, index, kind):
    alias, mirror, address = live[index]
    derived = ALIASES[kind](alias)
    if derived is not None and np.may_share_memory(derived, alias):  # not a copy
        live.append([derived, ALIASES[kind](mirror), address])


def _write(live, index, value):
    alias, _, address = live[index]
    alias[...] = value
    for entry in live:  # the block's other aliases changed with it, by design
        if entry[2] == address:
            entry[1] = entry[0].copy()


def run_program(program) -> None:
    """Run ``program`` on pooled arrays and mirrors; assert the properties.

    The helpers keep every reference in ``live``, so deleting an entry really
    drops the alias.
    """
    live = []  # [pooled alias, mirror, address of the block]
    sizes = {}  # address of a block -> its byte size
    for op, arg, extra in program:
        if op == "take":
            _take(live, arg, extra)
            sizes[live[-1][2]] = arg
        elif live and op == "alias":
            _alias(live, arg % len(live), extra)
        elif live and op == "write":
            _write(live, arg % len(live), extra)
        elif live and op == "drop":
            address = live.pop(arg % len(live))[2]
            if all(entry[2] != address for entry in live):
                # The last alias went: the block is the next one handed out.
                assert pool.empty((sizes[address],), np.uint8).ctypes.data == address
        assert all(np.array_equal(alias, mirror) for alias, mirror, _ in live)


@given(st.lists(OPS, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_a_block_is_reused_exactly_when_no_alias_is_left(program):
    run_program(program)


TRAP_PROGRAM = [
    ("take", SIZES[0], np.float32),
    ("alias", 0, "reshape"),
    ("drop", 0, None),  # the token goes, its reshape stays
    ("take", SIZES[0], np.uint8),
]


def test_the_trap_program_passes_on_the_pool():
    run_program(TRAP_PROGRAM)


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty pool for the test; the real one is back, untouched, after it."""
    gc.collect()  # no token of the real pool may die into the fresh one
    with monkeypatch.context() as patch:
        for name, value in [("_free", {}), ("_leases", {}), ("_held", 0), ("_high", 0)]:
            patch.setattr(pool, name, value)
        yield patch
        gc.collect()
        assert not pool._leases  # and none of the fresh one outlives it


@pytest.mark.parametrize("block", [
    lambda n: np.empty(n, np.uint8).data,
    lambda n: np.frombuffer(np.empty(n, np.uint8), np.uint8),
], ids=["ndarray.data", "frombuffer(ndarray)"])
def test_an_ndarray_block_is_caught(fresh_pool, block):
    # NumPy collapses ``.base`` chains to the first array that owns its data,
    # so over an ndarray block a view skips the token, the token dies with
    # views of it alive, and the block is handed out under them.
    fresh_pool.setattr(pool, "bytearray", block, raising=False)
    with pytest.raises(AssertionError):
        run_program(TRAP_PROGRAM)


PERIOD = st.lists(st.one_of(
    st.tuples(st.just("take"), st.sampled_from([1, 2, 3, 4, 6])),
    st.tuples(st.just("drop"), st.integers(0, 99)),
), min_size=1, max_size=60)


def test_a_periodic_program_stops_growing_the_pool(fresh_pool):
    # A training step: the same takes and drops every time round, everything
    # released at its end.  Trimming on growth must not evict what the next
    # round needs for ever after (a cap at the pool's own size did: each miss
    # at the cap dropped another size's blocks, which missed in turn).
    made = []

    def counting(nbytes):
        made.append(nbytes)
        return bytearray(nbytes)

    fresh_pool.setattr(pool, "bytearray", counting, raising=False)

    @given(PERIOD)
    @settings(max_examples=150, deadline=None)
    def check(period):
        pool._free.clear()
        pool._held = pool._high = 0
        for round_ in range(8):
            if round_ == 6:
                made.clear()
            held = []
            for op, arg in period:
                if op == "take":
                    held.append(pool.empty((arg * pool.FLOOR,), np.uint8))
                elif held:
                    del held[arg % len(held)]
            del held
        assert not made and not pool._leases

    check()


def _held_bytes() -> int:
    return (sum(size * len(bucket) for size, bucket in pool._free.items())
            + sum(len(lease.block) for lease in pool._leases.values()))


def test_a_finished_phase_does_not_add_to_the_next(fresh_pool):
    # Training blocks idle during the evaluation that follows (and the
    # reverse): the pool grows past the most it has wanted only after dropping
    # what is idle, so it holds the running phase, not the sum.  (Phases that
    # keep alternating are one period to the pool, and it settles at their
    # sum: each drop raises the mark.)
    small, large = pool.FLOOR, 3 * pool.FLOOR
    for size in (small, large, small):
        for _ in range(4):  # warmed after the first round
            phase = [pool.empty((size,), np.uint8) for _ in range(8)]
            del phase
        assert pool._held == _held_bytes() == 8 * size


@pytest.mark.parametrize("shape, dtype", [
    ((pool.FLOOR // 4 - 1,), np.float32),
    ((pool.FLOOR - 1,), np.uint8),
    ((0,), np.float32),
    ((4, 0, 1 << 20), np.float32),
    ((), np.float32),
])
def test_small_and_empty_requests_are_plain_arrays(shape, dtype):
    out = len(pool._leases)
    got = pool.empty(shape, dtype)
    assert got.shape == shape and got.dtype == dtype
    assert got.flags.owndata and len(pool._leases) == out


def test_equal_byte_sizes_share_a_bucket_across_dtypes():
    a = pool.empty((pool.FLOOR // 4, 2), np.float32)
    address = a.ctypes.data
    del a
    b = pool.empty((pool.FLOOR * 2,), np.uint8)
    assert b.ctypes.data == address and b.dtype == np.uint8
    b[...] = 255
    del b
    c = pool.empty((2, pool.FLOOR // 4), np.float32)
    assert c.ctypes.data == address and c.dtype == np.float32
    assert c.flags.c_contiguous and c.flags.writeable and c.ctypes.data % pool.ALIGN == 0


def test_a_kept_output_survives_later_steps():
    # ``logits.data`` a caller keeps, while the same shapes go round again.
    x = Tensor(np.ones((64, 512), dtype=np.float32), requires_grad=True)
    kept = (x + x).data
    want = kept.copy()
    for _ in range(3):
        ((x + x) * x).sum().backward()
    np.testing.assert_array_equal(kept, want)
