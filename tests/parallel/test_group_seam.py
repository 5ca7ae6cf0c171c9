"""Loopback test of the ``Group`` seam: one collective, two views, no processes.

Every collective is written once above ``Group``.  These tests run it with
all ranks local (the in-process oracle's view) and then once per rank under
a :class:`RankContext` whose transport is a fake that replays the peers'
payloads (a worker's view), and require the two views to agree exactly.

The fake needs no knowledge of what a collective puts on the wire: a first
pass per rank *records* what that rank sends (answering with zeros), a
second pass *replays* the other ranks' recordings.  That is sound here
because no payload below depends on peer data — it is a function of the
rank's own partial (or of the upstream gradient the test supplies).

Bitwise scope: both views sum left to right in rank order, so the
*forward* output is ``array_equal`` at any tp (checked at 2, 3 and 4).
Only ``tp_broadcast``'s backward — where the oracle's sum is autograd's
accumulation order over the shard paths, not a rank-order loop — keeps the
tp <= 2 caveat, so gradients and event multisets are compared at tp=2.
"""

from collections import Counter

import numpy as np
import pytest

from repro.compression import build_compressor
from repro.parallel.backend import BackendError, Group, RankContext, active_context
from repro.parallel.backend.context import sum_in_order
from repro.parallel.collectives import (
    CommTracker,
    pipeline_receive,
    pipeline_transfer,
    sp_seq_all_gather,
    tp_all_reduce,
)
from repro.tensor import Tensor

SCHEMES = ["w/o", "A2", "T2", "R2", "Q2"]
HIDDEN = 16
SHAPE = (2, 4, HIDDEN)


class ReplayTransport:
    """Fake RankTransport: logs this rank's sends, replays the peers'."""

    def __init__(self, rank, peer_logs=None):
        self.rank = rank
        self.sent = []
        self.peer_logs = peer_logs

    def exchange(self, peers, arr, *, timeout, label=None):
        k = len(self.sent)
        # A tuple is a compressed message's payloads, one slot each.
        like = (lambda f: tuple(map(f, arr))) if isinstance(arr, tuple) else (lambda f: f(arr))
        self.sent.append(like(np.copy))
        logs = self.peer_logs
        return {p: arr if p == self.rank
                else (like(np.zeros_like) if logs is None else logs[p][k])
                for p in peers}

    def send(self, dst, arr, timeout):
        self.sent.append((dst, arr.copy()))


def per_rank(world, axis, run):
    """``run(rank)`` under each rank's context: record pass, then replay pass.

    ``run`` must build its state (compressor, leaves) afresh on every call.
    Returns the replay pass's results, in rank order.
    """
    def contexts(peer_logs):
        for r in range(world):
            coords = dict(tp=1, pp=1, tp_rank=0, stage=0)
            coords.update({axis: world, f"{axis}_rank": r})
            yield RankContext(**coords, transport=ReplayTransport(r, peer_logs))

    logs = {}
    for ctx in contexts(None):
        with active_context(ctx):
            run(ctx.rank)
        logs[ctx.rank] = ctx.transport.sent
    results = []
    for ctx in contexts(logs):
        with active_context(ctx):
            results.append(run(ctx.rank))
    return results


def make_partials(world):
    rng = np.random.default_rng(7)
    return [rng.standard_normal(SHAPE).astype(np.float32) for _ in range(world)]


def reduce_step(scheme, datas, local, upstream=None):
    """tp_all_reduce over the ``local`` ranks' partials; fresh state each call."""
    comp = build_compressor(scheme, HIDDEN, seed=3)
    tracker = CommTracker()
    leaves = [Tensor(datas[r], requires_grad=True) for r in local]
    out = tp_all_reduce(leaves, comp, tracker, layer=0, site="attn")
    if upstream is not None:
        out.backward(upstream)
    grads = {r: leaf.grad for r, leaf in zip(local, leaves)}
    codec_grads = [p.grad for p in comp.parameters()]
    return out.data, grads, codec_grads, Counter(tracker.events)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tp_all_reduce_two_views_agree_at_tp2(scheme):
    datas = make_partials(2)
    upstream = np.random.default_rng(11).standard_normal(SHAPE).astype(np.float32)
    out, grads, codec_grads, events = reduce_step(scheme, datas, (0, 1), upstream)
    views = per_rank(2, "tp", lambda r: reduce_step(scheme, datas, (r,), upstream))

    merged = Counter()
    for r, (r_out, r_grads, r_codec, r_events) in enumerate(views):
        assert np.array_equal(r_out, out)
        assert np.array_equal(r_grads[r], grads[r])
        # A learnable codec replays the whole graph, so its gradients are
        # replicated, not partial.
        assert len(r_codec) == len(codec_grads)
        for mine, ref in zip(r_codec, codec_grads):
            assert np.array_equal(mine, ref)
        merged += r_events
    assert merged == events
    assert views[1][3] == Counter()  # only the designated recorder logs


@pytest.mark.parametrize("tp", [3, 4])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tp_all_reduce_forward_bitwise_at_wider_tp(scheme, tp):
    datas = make_partials(tp)
    out = reduce_step(scheme, datas, tuple(range(tp)))[0]
    for view in per_rank(tp, "tp", lambda r: reduce_step(scheme, datas, (r,))):
        assert np.array_equal(view[0], out)


def test_sum_in_order_folds_left_to_right_in_rank_order():
    """Both views share one fold, ``((t0 + t1) + t2) + ...``.  Float32
    addition is not associative, so a fold in any other order moves bits
    in both backends at once, which no two-view comparison can see."""
    terms = [np.array([1.0], np.float32), np.array([1e8], np.float32),
             np.array([-1e8], np.float32)]
    assert sum_in_order(terms)[0] == 0.0  # 1 + 1e8 rounds to 1e8 first
    rng = np.random.default_rng(3)
    terms = [rng.normal(size=64).astype(np.float32) * 10.0 ** k for k in range(5)]
    want = terms[0]
    for term in terms[1:]:
        want = want + term
    assert np.array_equal(sum_in_order(terms), want)


@pytest.mark.parametrize("reduce_backward", [True, False])
def test_sp_seq_all_gather_two_views_agree_at_sp2(reduce_backward):
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((2, 2, 3, 4)).astype(np.float32) for _ in range(2)]
    # K/V gather: each rank's backward holds its own query block's partial
    # gradient of the full tensor.  Context gather: the full gradient is
    # replicated, identical on every rank.
    g = [rng.standard_normal((2, 2, 6, 4)).astype(np.float32) for _ in range(2)]
    if not reduce_backward:
        g[1] = g[0]

    def gather(local):
        leaves = [Tensor(blocks[r], requires_grad=True) for r in local]
        full = sp_seq_all_gather(leaves, 2, reduce_backward=reduce_backward)
        full.backward(g[0] + g[1] if len(local) == 2 and reduce_backward
                      else g[local[0]])
        return full.data, [leaf.grad for leaf in leaves]

    full, block_grads = gather((0, 1))
    for r, (r_full, (r_grad,)) in enumerate(per_rank(2, "sp", lambda r: gather((r,)))):
        assert np.array_equal(r_full, full)
        assert np.array_equal(r_grad, block_grads[r])


@pytest.mark.parametrize("scheme", ["w/o", "Q2"])
def test_pipeline_transfer_ships_what_the_oracle_hands_over(scheme):
    x = make_partials(1)[0]

    def transfer():
        tracker = CommTracker()
        out = pipeline_transfer(Tensor(x), build_compressor(scheme, HIDDEN, seed=3),
                                tracker, boundary=0, layer=1)
        return out.data, Counter(tracker.events)

    out, events = transfer()
    ctx = RankContext(tp=1, pp=2, tp_rank=0, stage=0, transport=ReplayTransport(0))
    with active_context(ctx):
        w_out, w_events = transfer()
    assert np.array_equal(w_out, out) and w_events == events
    # The wire carries the message, one slot per payload array; the next
    # stage's decode of it is the oracle's hand-over, bitwise.
    assert {dst for dst, _ in ctx.transport.sent} == {ctx.peer(1)}
    payloads = iter([payload for _, payload in ctx.transport.sent])
    got = pipeline_receive(build_compressor(scheme, HIDDEN, seed=3), x.shape,
                           lambda: next(payloads))
    assert np.array_equal(got, out) and next(payloads, None) is None


class TestTypedEdges:
    def test_mismatched_axis_names_rank_axis_and_both_sizes(self):
        ctx = RankContext(tp=2, pp=1, tp_rank=1, stage=0)
        with active_context(ctx):
            with pytest.raises(BackendError) as exc:
                Group("tp", 4)
        msg = str(exc.value)
        assert exc.value.rank == ctx.rank == 1
        assert "tp" in msg and "4" in msg and "tp=2" in msg

    def test_worker_must_hold_exactly_its_own_partial(self):
        x = Tensor(np.ones(SHAPE, dtype=np.float32))
        with active_context(RankContext(tp=2, pp=1, tp_rank=0, stage=0)):
            with pytest.raises(ValueError, match="exactly its own"):
                tp_all_reduce([x, x], None, CommTracker())

    def test_in_process_group_is_whole_and_records(self):
        group = Group("tp", 4)
        assert group.local == (0, 1, 2, 3) and group.whole and group.records
        arrays = [np.full(2, r, dtype=np.float32) for r in range(4)]
        assert group.gather(arrays, label="t") == arrays
        assert group.all_reduce(arrays[1], label="t") is arrays[1]

    @pytest.mark.parametrize("collective", ["tp", "pp"])
    def test_none_compressor_means_no_compression(self, collective):
        tracker = CommTracker()
        x = Tensor(np.ones(SHAPE, dtype=np.float32), requires_grad=True)
        if collective == "tp":
            out = tp_all_reduce([x, x], None, tracker)
        else:
            out = pipeline_transfer(x, None, tracker, boundary=0)
        out.backward(np.ones(SHAPE, dtype=np.float32))
        assert [e.scheme for e in tracker.events] == ["none", "none"]
        assert {e.wire_bytes for e in tracker.events} == {2 * x.data.size}
