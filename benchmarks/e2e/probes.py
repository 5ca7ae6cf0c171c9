"""Microbenchmarks of each layer's public functions at a workload's shapes.

Every probe times one public call (forward plus backward where the layer
has one) and reports the median over ``CALLS`` calls, after ``WARMUP``
untimed ones.  Millisecond-scale probes use ``CALLS_SLOW`` so the traced
run stays inside its time budget.  Inputs come from a fixed generator:
probe timings do not depend on ``--seed``.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from repro.compression import build_compressor
from repro.nn.transformer import TransformerLayer
from repro.optim import Adam
from repro.parallel.backend.transport import RankTransport
from repro.parallel.collectives import (
    CommTracker,
    dp_all_reduce,
    pipeline_transfer,
    tp_all_reduce,
)
from repro.parallel.grad_sync import build_dp_grad_compressor
from repro.tensor import Tensor, functional as F

CALLS = 200
CALLS_SLOW = 40
WARMUP = 5

#: Transport probe rounds (each side runs the same fixed sequence).
_TRANSPORT_ROUNDS = 300
_TRANSPORT_TIMEOUT_S = 30.0


def _median_s(fn, calls: int = CALLS) -> float:
    for _ in range(WARMUP):
        fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _leaf(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=True)


def _fwd_bwd(fn, *leaves):
    """Closure running ``fn(*leaves)`` forward then backward from ones."""
    def call():
        for leaf in leaves:
            leaf.grad = None
        out = fn(*leaves)
        out.backward(np.ones_like(out.data))
    return call


def tensor_probes(model_cfg, batch: int, seq: int) -> dict[str, float]:
    """matmul / softmax / layernorm / gelu and one serial layer."""
    rng = np.random.default_rng(0)
    h, ffn, heads = model_cfg.hidden, model_cfg.ffn_hidden, model_cfg.num_heads
    x2d, w = _leaf(rng, (batch * seq, h)), _leaf(rng, (h, ffn))
    scores = _leaf(rng, (batch, heads, seq, seq))
    x3d = _leaf(rng, (batch, seq, h))
    gamma, beta = _leaf(rng, (h,)), _leaf(rng, (h,))
    wide = _leaf(rng, (batch, seq, ffn))
    layer = TransformerLayer(model_cfg, np.random.default_rng(0))
    layer_params = list(layer.parameters())

    def layer_call():
        for p in layer_params:
            p.grad = None
        x3d.grad = None
        out = layer(x3d)
        out.backward(np.ones_like(out.data))

    return {
        "tensor.matmul_fwd_bwd_us":
            _median_s(_fwd_bwd(lambda a, b: a @ b, x2d, w)) * 1e6,
        "tensor.softmax_fwd_bwd_us":
            _median_s(_fwd_bwd(F.softmax, scores)) * 1e6,
        "tensor.layernorm_fwd_bwd_us":
            _median_s(_fwd_bwd(F.layer_norm, x3d, gamma, beta)) * 1e6,
        "tensor.gelu_fwd_bwd_us": _median_s(_fwd_bwd(F.gelu, wide)) * 1e6,
        "nn.layer_fwd_bwd_ms": _median_s(layer_call, CALLS_SLOW) * 1e3,
    }


def compression_probes(mp_cfg, batch: int, seq: int,
                       param_count: int) -> dict[str, float]:
    """The workload's codec at the tensor it actually compresses.

    dp rows compress one flat gradient vector with the gradient-wire
    codec (Top-K under error feedback); every other row compresses a
    ``(batch, seq, hidden)`` activation with its scheme's site codec.
    """
    rng = np.random.default_rng(0)
    hidden = mp_cfg.model.hidden
    grad_codec = build_dp_grad_compressor(mp_cfg) if mp_cfg.dp > 1 else None
    if grad_codec is not None:
        comp, shape = grad_codec, (param_count,)
    else:
        comp, shape = build_compressor(mp_cfg.scheme, hidden, seed=0), \
            (batch, seq, hidden)
    x = rng.standard_normal(shape).astype(np.float32)
    leaf = Tensor(x, requires_grad=True)
    # Error feedback changes the message call by call: take the error of
    # the first round trip, before any residual exists.
    msg = comp.compress(x)
    rel_l2 = float(np.linalg.norm(x - comp.decompress(msg))
                   / np.linalg.norm(x))
    calls = CALLS if x.size < 200_000 else CALLS_SLOW

    def apply_call():
        leaf.grad = None
        out = comp.apply(leaf, site="probe")
        out.backward(np.ones_like(out.data))

    return {
        "compression.compress_us": _median_s(lambda: comp.compress(x), calls) * 1e6,
        "compression.decompress_us":
            _median_s(lambda: comp.decompress(msg), calls) * 1e6,
        "compression.apply_fwd_bwd_us": _median_s(apply_call, calls) * 1e6,
        "compression.ratio": float(comp.ratio(shape)),
        "compression.rel_l2": rel_l2,
    }


def collective_probes(mp_cfg, batch: int, seq: int,
                      param_shapes: dict[str, tuple]) -> dict[str, float]:
    """Oracle (list-of-partials) collectives, and the dp gradient reduce."""
    rng = np.random.default_rng(0)
    hidden = mp_cfg.model.hidden
    comp = build_compressor(mp_cfg.scheme, hidden, seed=0)
    tracker = CommTracker()
    partials = [_leaf(rng, (batch, seq, hidden)) for _ in range(2)]
    x = _leaf(rng, (batch, seq, hidden))

    def reduce_call(a, b):
        tracker.reset()
        return tp_all_reduce([a, b], comp, tracker, layer=0, site="attn")

    def transfer_call(a):
        tracker.reset()
        return pipeline_transfer(a, comp, tracker, boundary=0, layer=0)

    out = {
        "collectives.tp_all_reduce_oracle_us":
            _median_s(_fwd_bwd(reduce_call, *partials)) * 1e6,
        "collectives.pipeline_transfer_oracle_us":
            _median_s(_fwd_bwd(transfer_call, x)) * 1e6,
        "collectives.dp_all_reduce_ms": 0.0,
    }
    if mp_cfg.dp > 1:
        grad_codec = build_dp_grad_compressor(mp_cfg)
        replicas = [
            {name: rng.standard_normal(shape).astype(np.float32)
             for name, shape in param_shapes.items()}
            for _ in range(mp_cfg.dp)
        ]
        out["collectives.dp_all_reduce_ms"] = _median_s(
            lambda: dp_all_reduce(replicas, grad_codec, CommTracker()),
            CALLS_SLOW) * 1e3
    return out


def optimizer_probe(param_shapes: dict[str, tuple]) -> dict[str, float]:
    """One Adam step over the workload's parameter shapes."""
    rng = np.random.default_rng(0)
    params = [_leaf(rng, shape) for shape in param_shapes.values()]
    for p in params:
        p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
    opt = Adam(params, lr=1e-3)
    mparams = sum(p.data.size for p in params) / 1e6
    return {"optim.adam_step_us_per_mparam":
            _median_s(opt.step, CALLS_SLOW) * 1e6 / mparams}


# ----------------------------------------------------------------------
# Two-process transport probe
# ----------------------------------------------------------------------
def _transport_script(transport: RankTransport, me: int, small, msg):
    """The fixed op sequence both ranks run; rank 0 returns the timings."""
    peer = 1 - me
    t = _TRANSPORT_TIMEOUT_S
    timings: dict[str, list[float]] = {"small": [], "msg": [],
                                       "exchange": [], "barrier": []}
    for key, payload in (("small", small), ("msg", msg)):
        for _ in range(_TRANSPORT_ROUNDS):
            t0 = time.perf_counter()
            if me == 0:
                transport.send(peer, payload, timeout=t)
                transport.recv(peer, timeout=t)
            else:
                transport.send(peer, transport.recv(peer, timeout=t),
                               timeout=t)
            timings[key].append(time.perf_counter() - t0)
    for _ in range(_TRANSPORT_ROUNDS):
        t0 = time.perf_counter()
        transport.exchange([0, 1], msg, timeout=t)
        timings["exchange"].append(time.perf_counter() - t0)
    for _ in range(_TRANSPORT_ROUNDS):
        t0 = time.perf_counter()
        transport.barrier_wait(timeout=t)
        timings["barrier"].append(time.perf_counter() - t0)
    return timings


def _transport_peer(spec: dict, msg_shape: tuple) -> None:
    """Process target: rank 1 of the transport probe."""
    transport = RankTransport(spec, 1)
    try:
        _transport_script(transport, 1, np.zeros(2, dtype=np.float32),
                          np.zeros(msg_shape, dtype=np.float32))
    finally:
        transport.close()


def transport_probes(batch: int, seq: int, hidden: int) -> dict[str, float]:
    """Ping-pong, exchange and barrier over a real 2-rank shm transport.

    Ranks are this process and one spawned peer — two runnable processes
    on a two-core box, like every mp workload.
    """
    msg_shape = (batch, seq, hidden)
    msg = np.random.default_rng(0).standard_normal(msg_shape).astype(np.float32)
    transport = RankTransport.create(2, rank=0)
    peer = multiprocessing.get_context("spawn").Process(
        target=_transport_peer, args=(transport.spec, msg_shape), daemon=True)
    try:
        peer.start()
        timings = _transport_script(transport, 0,
                                    np.zeros(2, dtype=np.float32), msg)
        peer.join(_TRANSPORT_TIMEOUT_S)
    finally:
        if peer.is_alive():
            peer.kill()
            peer.join(5.0)
        transport.close()
    # The first rounds include the peer's start-up; medians ignore them.
    med = {key: float(np.median(vals)) for key, vals in timings.items()}
    return {
        "transport.pingpong_small_us": med["small"] * 1e6,
        "transport.pingpong_msg_us": med["msg"] * 1e6,
        "transport.bandwidth_mb_s": 2 * msg.nbytes / med["msg"] / 1e6,
        "transport.exchange_us": med["exchange"] * 1e6,
        "transport.barrier_us": med["barrier"] * 1e6,
    }
