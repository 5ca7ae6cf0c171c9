"""Data-plane collectives as autograd ops, with exact byte accounting.

Each cut point — Megatron's ``f``/``g`` pair, the pipeline boundary, the
ring-SP gathers — is written once, above a
:class:`~repro.parallel.backend.context.Group`: the axis's members as seen
from this process.  In-process every member is local and the group's
gather is the identity, so the collective operates on the list of per-rank
partial tensors directly; inside an mp worker one member is local and the
same code moves arrays over shared memory.  Local terms keep their
autograd graph, peers' arrays enter as constants, and sums run left to
right in rank order on both sides.  Every collective is one blocking
call, like the paper's synchronous Megatron all-reduces; the only payload
that outlives its call is a pipeline boundary send, staged in the
receiver's ring.  What makes it faithful is that

1. the *math* matches the distributed operation (all-reduce = sum of
   partials; the compressed variants combine messages exactly the way the
   paper's Megatron patch does — AE encodes before the all-reduce, the
   sparse/quantized schemes ride an all-gather and are summed after
   decompression, §3.2); and
2. every message is logged to a :class:`CommTracker` with the wire bytes a
   real NCCL implementation would move, including the *backward* messages
   (recorded from inside backward closures as the gradient crosses the
   same cut points).

The performance simulator consumes these events (or their analytic
equivalents) to produce the paper's timing tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.compression.base import BYTES_FP16, CompressedMessage, Compressor, NoCompressor
from repro.parallel.backend import events as _events
from repro.parallel.backend.context import Group, grad_views, sum_in_order
from repro.tensor import Tensor
from repro.tensor.tensor import concatenate as _concatenate

__all__ = [
    "CommEvent",
    "CommTracker",
    "dense_bytes",
    "tp_all_reduce",
    "tp_broadcast",
    "pipeline_transfer",
    "pipeline_receive",
    "dp_all_reduce",
    "pack_grads",
    "sp_slice",
    "sp_seq_all_gather",
    "sp_ring_account",
]

_VALID_OPS = frozenset({"all_reduce", "all_gather", "send", "ring_exchange"})
_VALID_GROUPS = frozenset({"tp", "pp", "dp", "sp"})
_VALID_PHASES = frozenset({"forward", "backward"})


@dataclass(frozen=True)
class CommEvent:
    """One logged message (or collective round) on the simulated wire."""

    op: str  # "all_reduce" | "all_gather" | "send" | "ring_exchange"
    group: str  # "tp" | "pp" | "dp" | "sp"
    phase: str  # "forward" | "backward"
    scheme: str
    wire_bytes: int  # per-rank message payload in bytes
    world: int  # number of participating ranks
    shape: tuple[int, ...]  # uncompressed activation shape
    layer: int | None = None
    site: str = ""

    def __post_init__(self):
        # Event invariants: a malformed event corrupts the simulator's byte
        # accounting silently, so reject it at construction.
        if self.op not in _VALID_OPS:
            raise ValueError(f"unknown op {self.op!r}; valid: {sorted(_VALID_OPS)}")
        if self.group not in _VALID_GROUPS:
            raise ValueError(f"unknown group {self.group!r}; valid: {sorted(_VALID_GROUPS)}")
        if self.phase not in _VALID_PHASES:
            raise ValueError(f"unknown phase {self.phase!r}; valid: {sorted(_VALID_PHASES)}")
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.world < 2:
            raise ValueError(f"a collective needs world >= 2, got {self.world}")
        # Note: wire_bytes may legitimately exceed the dense payload for
        # quantization of tiny tensors (group padding), so no upper bound.

    _FIELDS = frozenset({"op", "group", "phase", "scheme", "wire_bytes",
                         "world", "shape", "layer", "site"})


class CommTracker:
    """Accumulates :class:`CommEvent` records for one or more iterations.

    While a rank event record is active (an observed step), each message
    is also emitted into it as a ``comm`` event, and each compressed-site
    call as a ``fidelity`` event (:func:`_observe`); unobserved, both cost
    one ``is None`` check.
    """

    def __init__(self):
        self.events: list[CommEvent] = []

    def record(self, event: CommEvent) -> None:
        """Log ``event``; an observed process also emits it as a ``comm``
        event into its active rank event record."""
        self.events.append(event)
        rec = _events.active()
        if rec is not None:
            rec.emit("comm", **vars(event))

    def reset(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------
    def filtered(self, **criteria) -> list[CommEvent]:
        """Events matching all given attribute=value criteria.

        Unknown attribute names are rejected up front with a ``ValueError``
        (rather than an ``AttributeError`` surfacing mid-comprehension), so
        a typo like ``filtered(phse="forward")`` cannot read as "0 events".
        """
        unknown = set(criteria) - CommEvent._FIELDS
        if unknown:
            raise ValueError(
                f"unknown CommEvent attribute(s) {sorted(unknown)}; "
                f"valid: {sorted(CommEvent._FIELDS)}"
            )
        out = self.events
        for key, value in criteria.items():
            out = [e for e in out if getattr(e, key) == value]
        return out

    def total_bytes(self, **criteria) -> int:
        """Sum of per-rank wire bytes over matching events."""
        return sum(e.wire_bytes for e in self.filtered(**criteria))

    def count(self, **criteria) -> int:
        return len(self.filtered(**criteria))

    def summary(self) -> dict[tuple[str, str, str], int]:
        """Total wire bytes grouped by ``(group, phase, scheme)``.

        The natural shape for eyeballing one iteration: e.g.
        ``{("tp", "forward", "autoencoder"): 1920, ...}``.  Keys are
        sorted, not insertion-ordered, so serialized summaries diff stably
        across runs and schedule changes.
        """
        out: dict[tuple[str, str, str], int] = {}
        for e in self.events:
            key = (e.group, e.phase, e.scheme)
            out[key] = out.get(key, 0) + e.wire_bytes
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return f"CommTracker(events={len(self.events)}, bytes={self.total_bytes()})"


def dense_bytes(shape: tuple[int, ...]) -> int:
    """Wire size of an uncompressed fp16 activation of ``shape``.

    The reference payload every compressed message is judged against (the
    event oracle in ``tests/parallel/event_oracle.py`` re-derives it apart).
    """
    return int(np.prod(shape)) * BYTES_FP16


def tp_broadcast(x: Tensor, world: int, tracker: CommTracker, *, layer: int | None = None,
                 site: str = "") -> Tensor:
    """Megatron's ``f`` op: identity forward, all-reduce in backward.

    In tensor parallelism the layer input is replicated; each rank's
    backward produces a partial input-gradient that must be all-reduced.
    The gradient arriving here is the sum over the *local* shards' paths
    (autograd accumulated it), which in-process is already the total; a
    worker's is its own shard's partial and the group completes the sum.
    """
    if world <= 1:
        return x
    group = Group("tp", world)
    shape = tuple(x.shape)
    event = CommEvent("all_reduce", "tp", "backward", "none", dense_bytes(shape),
                      world, shape, layer, site)

    def backward(g):
        g = group.all_reduce(g, label=f"bwd allreduce {_site_label(site, layer)}")
        if group.records:
            tracker.record(event)
        return (g,)

    return Tensor._make(x.data, (x,), backward)


def tp_all_reduce(
    partials: list[Tensor],
    compressor: Compressor,
    tracker: CommTracker,
    *,
    layer: int | None = None,
    site: str = "",
) -> Tensor:
    """Megatron's ``g`` op with optional compression: sum per-rank partials.

    - No compression → plain all-reduce of the dense fp16 activation.
    - AE → each rank encodes its partial, the all-reduce runs over the
      (much smaller) code, one decode after. Linearity makes this exactly
      ``dec(enc(Σ xᵢ))``.
    - Top-K / Random-K / quantization → the message is two tensors (or a
      non-float dtype), so the runtime all-gathers the compressed messages
      and sums the decompressed partials, exactly like the paper's
      ``gather-from-tensor-model-parallel-region`` fallback.

    ``partials`` holds one tensor per *local* tp rank: all of them
    in-process, exactly the own one inside a worker, where the call blocks
    until every peer's contribution has arrived.  Only the designated
    recorder logs, so the merged multiset matches the oracle event for
    event.  Backward traffic is logged per scheme via
    ``Compressor.backward_bytes``.
    """
    if not partials:
        raise ValueError("tp_all_reduce needs at least one partial")
    group = Group.holding("tp", len(partials))
    world = group.world
    shape = tuple(partials[0].shape)
    for p in partials[1:]:
        if tuple(p.shape) != shape:
            raise ValueError(f"mismatched partial shapes: {shape} vs {tuple(p.shape)}")

    if world == 1:
        # No TP communication exists, so there is nothing to compress
        # (matches the paper's TP=1 rows, where only PP traffic is compressed).
        return partials[0]

    compressor = compressor if compressor is not None else NoCompressor()
    kind = _wire_kind(compressor)
    op = "all_gather" if kind == "message" else "all_reduce"
    label = _site_label(site, layer)
    tag = f"{op.replace('_', '')} {label}"
    fwd_bytes = compressor.compressed_bytes(shape)

    if kind == "message":
        # All-gather path: each rank sends its compressed message, one
        # mailbox message per payload array; every rank decodes its peers'
        # messages with its own codec and sums locally.  Each rank's
        # partial is its own compression site: a stateful codec (error
        # feedback, Random-K) must keep one state per rank, not clobber a
        # shared "default" slot per call.  A worker runs (and observes)
        # exactly the per-rank site it owns.
        msgs, terms = [], []
        for r, p in zip(group.local, partials):
            rank_site = f"{label}.rank{r}"
            msg, rec = compressor.transmit(p, site=rank_site)
            msgs.append(msg)
            terms.append(rec)
            _observe(rank_site, compressor, "tp", p.data, rec.data,
                     msg.wire_bytes, shape)
        fwd_bytes = msgs[0].wire_bytes
        fields = compressor.fields
        gathered = group.gather([tuple(m.payloads[f] for f in fields) for m in msgs],
                                label=tag)
        own = dict(zip(group.local, terms))
        out = sum_in_order([
            own[r] if r in own else Tensor(compressor.decompress(
                CompressedMessage(dict(zip(fields, gathered[r])), shape)))
            for r in range(world)])
    else:
        arrays = group.gather([p.data for p in partials], label=tag)
        terms, lift = partials, (lambda t: t)
        if kind == "code":
            # Learnable codec: every rank replays the oracle's *whole*
            # encode-sum-decode graph over the exchanged raw partials (peer
            # partials enter as constants).  Exchanging codes instead would
            # leave each worker with only its own encoder-gradient
            # contribution, and summing those per-rank *step totals* post
            # hoc reorders the float additions the moment gradients
            # accumulate over microbatches (the oracle interleaves rank
            # contributions per microbatch).  Replaying the full graph keeps
            # codec gradients replicated and bitwise-identical to the
            # oracle for any m; the logged wire bytes are still the code
            # size — what a real fused encode/all-reduce/decode would move.
            terms = [compressor.encode(p) for p in partials]
            lift = compressor.encode
        own = dict(zip(group.local, terms))
        out = sum_in_order([own[r] if r in own else lift(Tensor(arrays[r]))
                            for r in range(world)])
        if kind == "code":
            out = compressor.decode(out)
            if _events.active() is not None:
                # AE compresses the *sum* (dec(Σ enc(xᵢ)) by linearity), so
                # the meaningful error is measured on the reduced activation.
                # Pure reads of already-exchanged data — bitwise-neutral.
                _observe(label, compressor, "tp", sum_in_order(arrays),
                         out.data, fwd_bytes, shape)
    return _log_round_trip(
        out, tracker, group.records,
        CommEvent(op, "tp", "forward", compressor.name, fwd_bytes, world,
                  shape, layer, site),
        compressor.backward_bytes(shape))


def pipeline_transfer(
    x: Tensor,
    compressor: Compressor,
    tracker: CommTracker,
    *,
    boundary: int,
    layer: int | None = None,
) -> Tensor:
    """Send an activation across a pipeline-stage boundary.

    Runs the compressor's differentiable round trip on the sender (the
    reconstruction and its backward stay in the sending stage's graph) and
    logs the forward send plus the backward gradient message.  In-process
    stage ``boundary + 1`` reads the returned tensor.  A worker stages the
    message's payload arrays in its same-tp-rank peer's ring there, one
    slot per array, and :func:`pipeline_receive` decodes them into a
    gradient leaf whose gradient is relayed back into this graph via
    ``Tensor.backward(grad)``; the learnable AE (its code is modelled, see
    :func:`tp_all_reduce`) and the identity send the activation itself.
    The payload stays in flight while this stage moves on to its next
    schedule op.  The oracle records one logical send per boundary, not
    one per tp replica — only the designated recorder logs the two events.
    """
    compressor = compressor if compressor is not None else NoCompressor()
    # The sender's side of the hop: this process holds the one stage that
    # produced ``x``, whatever the pipeline's depth.
    group = Group.holding("pp", 1)
    shape = tuple(x.shape)
    site = f"boundary{boundary}"
    kind = _wire_kind(compressor)
    fwd_bytes = compressor.compressed_bytes(shape)
    out, sent = x, [x.data]
    if kind == "message":
        msg, out = compressor.transmit(x, site=site)
        fwd_bytes, sent = msg.wire_bytes, [msg.payloads[f] for f in compressor.fields]
    elif kind == "code":
        out = compressor.apply(x, site=site)
        sent = [out.data]
    if kind != "dense":
        _observe(site, compressor, "pp", x.data, out.data, fwd_bytes, shape)
    out = _log_round_trip(
        out, tracker, group.records,
        CommEvent("send", "pp", "forward", compressor.name, fwd_bytes, 2, shape,
                  layer, site),
        compressor.backward_bytes(shape))
    group.send(boundary + 1, sent, label=f"pp send {site}")
    return out


def pipeline_receive(compressor: Compressor, shape: tuple[int, ...],
                     recv) -> np.ndarray:
    """The receiving stage's half of :func:`pipeline_transfer`: the
    boundary activation of ``shape``, decoded from the arrays ``recv()``
    returns one by one, in the order they were sent."""
    if _wire_kind(compressor) != "message":
        return recv()
    return compressor.decompress(CompressedMessage(
        {f: recv() for f in compressor.fields}, shape))


# ----------------------------------------------------------------------
# Data-parallel gradient all-reduce
# ----------------------------------------------------------------------
def dp_all_reduce(
    vectors: list[np.ndarray | dict[str, np.ndarray]],
    compressor: Compressor | None,
    tracker: CommTracker,
    *,
    site: str = "grad",
) -> np.ndarray:
    """Compressible gradient all-reduce across data-parallel replicas, in place.

    ``vectors`` holds one flat float32 gradient vector per *local* dp rank
    (:func:`pack_grads`): all of them in-process, exactly its own gang's
    slab inside a worker (the gang's leader calls this).  A replica given
    as a name → gradient dict instead is flattened, in that order, into a
    fresh vector first.

    Each replica's vector is coded in place; a stateful codec keeps one
    ``dp.rank{r}`` site per replica (error-feedback residuals and Random-K
    streams never alias across replicas — the same per-site isolation the
    TP all-gather path uses), so a leader's codec holds its own replica's
    state and nothing else.  The vectors are folded in rank order into dp
    rank 0's, in place, and divided by the replica count: the gradient of
    the mean loss over the full batch.  In-process it returns that vector.

    Workers exchange through the gradient slabs, because a
    parameter-sized vector does not fit a mailbox slot: each leader's
    vector is its slab, and one barrier separates the writes from the
    reads.  A sparse codec's (Top-/Random-K) replica ``r >= 1`` writes its
    message over its vector's front — ``k`` int32 indices, then their
    ``k`` values — and dp rank 0 folds the messages into its decode, with
    the dense fold's arithmetic: ``+ v`` where a replica sent ``v`` and
    ``+ 0.0`` everywhere else.  A message that would not fit (``2k`` above
    the vector's size; everything kept, as ``k`` NaNs make Top-K do)
    travels as its decode instead; the barrier carries each replica's
    message length.  Other codecs write their decode over the vector, and
    each leader reduces a disjoint ``1/dp`` slice of every slab into dp
    rank 0's; the mean is complete in gang 0's slab once every leader
    has returned.  Both backends perform the same additions in the same
    order on every element.

    Records exactly one :class:`CommEvent` per step, on dp rank 0 —
    ``all_reduce`` for the dense path, ``all_gather`` for the gathered
    compressed messages, mirroring the TP convention.
    """
    group = Group.holding("dp", len(vectors))
    dp = group.world
    if dp == 1:
        return vectors[0]
    rec = _events.active()
    t0 = time.monotonic()
    vectors = [v if isinstance(v, np.ndarray) else np.concatenate(
        [np.asarray(v[n], dtype=np.float32).ravel() for n in sorted(v)]) for v in vectors]
    size = vectors[0].size
    sent = []  # sparse codec: per local replica, its message length (-1: a decode)
    if compressor is None or _wire_kind(compressor) == "dense":
        event = CommEvent("all_reduce", "dp", "backward", "none",
                          dense_bytes((size,)), dp, (size,), None, site)
    else:
        for r, vector in zip(group.local, vectors):
            rank_site = f"dp.rank{r}"
            if not compressor.sparse:  # its decode, over the vector
                vector[...] = compressor.code(vector, rank_site)[1]
                continue
            idx, kept = compressor.message(vector, rank_site)
            k = idx.size
            if r > 0 and 2 * k <= size:
                vector[:k].view(np.int32)[...] = idx
                vector[k:2 * k] = kept
            else:
                vector.fill(0.0)
                vector[idx] = kept
                k = -1
            sent.append(k)
        event = CommEvent("all_gather", "dp", "backward", compressor.name,
                          compressor.compressed_bytes((size,)), dp, (size,),
                          None, site)
    if 0 in group.local:
        tracker.record(event)

    own, stores = group.local[0], vectors
    if not group.whole:
        if rec is not None:
            rec.span("dp compress", "mp.phase", t0)
        # A gather completes only after every peer has sent, and each sends
        # after its slab write: the message lengths (none, for a dense
        # fold) are the barrier between the phases (among the leaders
        # only; it shows as an ``mp.wait`` span).
        sent = list(np.concatenate(group.gather([np.array(sent, np.int64)],
                                                label="dp grads")))
        t0 = time.monotonic()
        if sent and own:
            return vectors[0]  # its message is out; dp rank 0 folds it
        lo, hi = (0, size) if sent else (own * size // dp, (own + 1) * size // dp)
        stores = [store[lo:hi] for store in group.stores()]  # [0]: the root
    if sent:
        total = stores[0]
        for store, k in zip(stores[1:], sent[1:]):
            idx, values = ((store[:k].view(np.int32), store[k:2 * k]) if k >= 0
                           else (slice(None), store))  # a decode: every entry sent
            folded = total[idx] + values
            np.add(total, 0.0, out=total)  # where this replica sent nothing
            total[idx] = folded
    else:
        total = sum_in_order(stores, out=stores[0])
    mean = np.divide(total, dp, out=total)
    if rec is not None and not group.whole:
        rec.span("dp reduce", "mp.phase", t0)
    return mean


def pack_grads(flat: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """``grads`` copied from ``flat``'s start in sorted-name order
    (:func:`~repro.parallel.backend.context.grad_views`), and that prefix:
    a replica's vector for :func:`dp_all_reduce`.  A replica whose every
    gradient accumulated in its view of ``flat`` needs none of this (its
    vector is ``flat``); when some parameter got no gradient, the written
    ones, already in ``flat``, move left in order over the unwritten spans."""
    views = grad_views(flat, {name: g.shape for name, g in grads.items()})
    for name, view in views.items():
        view[...] = grads[name]
    return flat[:sum(view.size for view in views.values())]


# ----------------------------------------------------------------------
# Ring sequence parallelism
# ----------------------------------------------------------------------
def sp_slice(x: Tensor, sp: int, sp_rank: int) -> Tensor:
    """This sp rank's sequence block of a replicated ``(b, s, h)`` activation.

    In-process this is a plain autograd slice: the backward pass scatters
    the block gradient into a zero-padded full array and the sp blocks'
    contributions accumulate into the full input gradient.  Inside an mp
    worker the backward instead *gathers* the disjoint block gradients
    around the ring and assembles the full ``dx`` locally — the upstream
    (replicated) computation then sees the same full gradient on every
    rank.
    """
    b, s, h = x.shape
    if s % sp != 0:
        raise ValueError(f"sequence length {s} not divisible by sp={sp}")
    blk = s // sp
    lo = sp_rank * blk
    group = Group("sp", sp)
    if group.whole:
        return x[:, lo:lo + blk, :]

    def backward(g):
        return (np.concatenate(group.gather([g], label="sp dx gather"), axis=1),)

    return Tensor._make(x.data[:, lo:lo + blk, :], (x,), backward)


def sp_seq_all_gather(blocks: list[Tensor], sp: int, *, axis: int = 2,
                      reduce_backward: bool, label: str = "sp gather") -> Tensor:
    """Concatenate per-rank sequence blocks into the full tensor.

    ``blocks`` holds one tensor per *local* sp rank.  In-process that is
    all of them and autograd's own concatenate does the job, backward
    included.  A worker gathers the peers' blocks as constants, and:

    ``reduce_backward=True`` is the K/V gather: every rank's backward
    holds a *partial* gradient of the full tensor (its own query block's
    contribution), so the partials are all-reduced in rank order before
    slicing the own block — matching the oracle's autograd accumulation
    bitwise at sp <= 2.  ``reduce_backward=False`` is the context
    all-gather: the downstream computation is replicated, so the incoming
    full gradient is already identical on every rank and the backward is a
    local slice with no wire traffic.
    """
    group = Group("sp", sp)
    if len(blocks) != len(group.local):
        raise ValueError(f"expected {len(group.local)} local block(s) of "
                         f"sp={sp}, got {len(blocks)}")
    if group.whole:
        return blocks[0] if sp == 1 else _concatenate(blocks, axis=axis)

    own = blocks[0]
    full = np.concatenate(group.gather([own.data], label=label), axis=axis)
    blk = own.shape[axis]
    take = [slice(None)] * full.ndim
    take[axis] = slice(group.local[0] * blk, (group.local[0] + 1) * blk)
    take = tuple(take)

    def backward(g):
        if reduce_backward:
            g = group.all_reduce(g, label=f"{label} bwd reduce")
        return (g[take],)

    return Tensor._make(full, (own,), backward)


def sp_ring_account(x: Tensor, tracker: CommTracker, *, sp: int,
                    shape: tuple[int, ...], block_shape: tuple[int, ...],
                    layer: int | None = None, site: str = "attn") -> Tensor:
    """Byte accounting for one attention-boundary ring exchange.

    One forward and one backward :class:`CommEvent` per (layer,
    microbatch), each ``3*(sp-1)*dense_bytes(block)``: the forward moves
    the K and V ring hops plus the context all-gather; the backward moves
    the dK/dV ring reduce plus the dx block gather (the context gather's
    backward is wire-free — see :func:`sp_seq_all_gather`).  Recorded by
    the designated recorder only, wrapped everywhere so backward op order
    stays identical across ranks.
    """
    wire = 3 * (sp - 1) * dense_bytes(block_shape)
    return _log_round_trip(
        x, tracker, Group("sp", sp).records,
        CommEvent("ring_exchange", "sp", "forward", "none", wire, sp, shape,
                  layer, site),
        wire)


# ----------------------------------------------------------------------
def _site_label(site: str, layer: int | None) -> str:
    """Fully-qualified label of one TP compression site."""
    base = site or "default"
    return f"layer{layer}.{base}" if layer is not None else base


def _wire_kind(compressor: Compressor) -> str:
    """How a scheme's message crosses a cut point (§3.2) — the one
    scheme dispatch: ``"dense"`` (no codec, plain all-reduce), ``"code"``
    (learnable, all-reduce over the code) or ``"message"`` (compressed
    messages that only an all-gather can carry)."""
    if compressor.name == "none":
        return "dense"
    return "code" if compressor.learnable else "message"


def _observe(site: str, compressor: Compressor, group: str,
             original: np.ndarray, reconstructed: np.ndarray, wire_bytes: int,
             shape: tuple[int, ...]) -> None:
    """Emit one compressed-site call as a ``fidelity`` event into the
    active record, if any: the relative L2 error of ``reconstructed``,
    the realized ratio ``dense / wire`` bytes, and the error-feedback
    residual norm held at ``site`` (``None`` when the codec is stateless).
    Pure reads of data the step already holds — bitwise-neutral."""
    rec = _events.active()
    if rec is None:
        return
    norm = float(np.linalg.norm(original))
    rel_l2 = float(np.linalg.norm(original - reconstructed)) / norm if norm else 0.0
    getter = getattr(compressor, "residual", None)
    residual = getter(site) if callable(getter) else None
    rec.emit("fidelity", site=site, scheme=compressor.name, group=group,
             rel_l2=rel_l2, ratio=dense_bytes(shape) / max(wire_bytes, 1),
             residual_norm=(float(np.linalg.norm(residual))
                            if residual is not None else None))


def _log_round_trip(x: Tensor, tracker: CommTracker, records: bool,
                    fwd: CommEvent, bwd_bytes: int) -> Tensor:
    """Log a cut point's forward message ``fwd`` now, and its backward
    twin (``bwd_bytes`` on the same wire) when the gradient passes back
    through ``x``.

    ``records=False`` (a non-recording SPMD replica) still wraps — the
    closure keeps backward op ordering identical across ranks — but skips
    both record calls, leaving the events to the designated recorder.
    """
    if records:
        tracker.record(fwd)
    bwd = replace(fwd, phase="backward", wire_bytes=bwd_bytes)

    def backward(g):
        if records:
            tracker.record(bwd)
        return (g,)

    return Tensor._make(x.data, (x,), backward)
