"""DYN002, the event oracle: recorded CommEvents vs a closed-form oracle.

For each (scheme, tp, pp) cell, a tiny :class:`ModelParallelBertClassifier`
runs one forward/backward and the full recorded event stream is compared —
as an exact multiset over ``(op, group, phase, scheme, wire_bytes, world,
layer, site)`` — against expectations derived here from first principles:

- every transformer layer has two ``g`` all-reduces (attention out, MLP
  out) whose forward *and* backward messages cross the TP group, plus two
  conjugate ``f`` backward all-reduces (§3.2);
- every pipeline boundary carries one forward send and one backward send;
- wire bytes follow the paper's fp16/int32 packing rules (§3.2/§3.3),
  re-derived below *independently* of ``Compressor.compressed_bytes`` so a
  regression in either the analytic formulas or the runtime routing
  (wrong collective, double-logged event, dropped backward) shows up as a
  multiset mismatch.

The default matrix is schemes {w/o, T2, R2, Q2, A2} — the baseline plus
one member of each compressed family — × layouts {tp=2 pp=1, tp=1 pp=2,
tp=2 pp=2}, plus the DP/SP grid cells {dp=2, dp=2 tp=2, sp=2 pp=2}:

- ``dp > 1`` replicates the per-gang stream (at the gang's batch shard)
  ``dp`` times and adds exactly one gradient event on the ``dp`` group —
  ``all_reduce`` dense or ``all_gather`` of the compressed flat vector;
- ``sp > 1`` adds one forward and one backward ``ring_exchange`` per
  (layer, microbatch) — ``3·(sp−1)`` sequence blocks each way — plus one
  per-stage ``grad_sync`` all-reduce over the stage's QKV parameters.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventKey",
    "expected_events",
    "observed_events",
    "compare_event_streams",
    "check_layout",
    "run_spmd_check",
    "DEFAULT_SCHEMES",
    "DEFAULT_LAYOUTS",
    "DEFAULT_GRID_CELLS",
]

DEFAULT_SCHEMES = ("w/o", "T2", "R2", "Q2", "A2")
DEFAULT_LAYOUTS = ((2, 1), (1, 2), (2, 2))
#: (dp, tp, pp, sp) cells exercising the new topology axes.
DEFAULT_GRID_CELLS = ((2, 1, 1, 1), (2, 2, 1, 1), (1, 1, 2, 2))

#: QuantizationCompressor's default grouping (elements per scale/zero pair).
_QUANT_GROUP = 256
_BYTES_FP16 = 2
_BYTES_INT32 = 4

#: family → the Compressor.name label the runtime stamps on events.
_FAMILY_EVENT_SCHEME = {
    "none": "none",
    "ae": "autoencoder",
    "topk": "topk",
    "randomk": "randomk",
    "quant": "quantization",
}


@dataclass(frozen=True)
class EventKey:
    """The comparable identity of one CommEvent."""

    op: str
    group: str
    phase: str
    scheme: str
    wire_bytes: int
    world: int
    layer: int | None
    site: str


# ----------------------------------------------------------------------
# Independent wire-byte oracle (intentionally duplicates the packing
# arithmetic rather than calling Compressor.compressed_bytes).
# ----------------------------------------------------------------------
def _dense(n: int) -> int:
    return n * _BYTES_FP16


def _fwd_bytes(spec, shape: tuple[int, ...]) -> int:
    n = int(np.prod(shape))
    h = shape[-1]
    if spec.family == "none":
        return _dense(n)
    if spec.family == "ae":
        code_dim = max(2, round(spec.fraction * h))
        return (n // h) * code_dim * _BYTES_FP16
    if spec.family in ("topk", "randomk"):
        k = max(1, int(round(spec.fraction * n)))
        return k * (_BYTES_FP16 + _BYTES_INT32)
    if spec.family == "quant":
        groups = math.ceil(n / _QUANT_GROUP)
        packed = groups * _QUANT_GROUP * spec.bits // 8
        return packed + 2 * groups * _BYTES_FP16
    raise ValueError(f"unknown family {spec.family!r}")


def _bwd_bytes(spec, shape: tuple[int, ...]) -> int:
    # §3.3: quantized backward stays dense fp16 (the backward engine only
    # supports float gradients); every other scheme's backward message
    # shrinks exactly like its forward one.
    if spec.family == "quant":
        return _dense(int(np.prod(shape)))
    return _fwd_bytes(spec, shape)


def _g_op(spec) -> str:
    # AE messages are single float tensors → summable by all-reduce; the
    # sparse/quantized messages ride the all-gather fallback (§3.2).
    return "all_reduce" if spec.family in ("none", "ae") else "all_gather"


# ----------------------------------------------------------------------
def expected_events(config, batch: int, seq: int, *,
                    dp_grad_numel: int | None = None) -> Counter:
    """Closed-form expected event multiset for one training iteration.

    With ``config.num_microbatches = m > 1`` every site fires once per
    microbatch on the per-microbatch slice of the batch: event counts
    scale by ``m`` and wire bytes shrink to ``batch/m`` rows.  The
    multiset is *schedule-independent* — GPipe and 1F1B reorder the same
    per-microbatch work, so any count difference between schedules is a
    routing bug this oracle must flag.

    With ``config.dp > 1`` each gang replays the per-gang stream on its
    ``batch/dp`` shard, and the backend adds one gradient event on the
    ``dp`` group whose wire covers the flat gradient vector —
    ``dp_grad_numel`` elements, measured from the model (the oracle owns
    the packing rules, not the parameter inventory).  With
    ``config.sp > 1`` every layer adds a forward and a backward
    ``ring_exchange`` per microbatch, plus a per-stage ``grad_sync``
    all-reduce over the stage's QKV parameters.
    """
    from repro.compression.notation import SCHEME_LABELS, scheme_spec
    from repro.parallel.pipeline import PipelinePartition

    m = getattr(config, "num_microbatches", 1)
    dp = getattr(config, "dp", 1)
    sp = getattr(config, "sp", 1)
    if batch % (dp * m):
        raise ValueError(
            f"batch size {batch} is not divisible by dp*m = {dp * m}"
        )
    batch //= dp  # per-gang shard; the gang stream repeats dp times
    spec = scheme_spec(config.scheme)
    none_spec = SCHEME_LABELS["w/o"]
    shape = (batch // m, seq, config.model.hidden)
    n = int(np.prod(shape))
    expected: Counter = Counter()

    if config.tp > 1:
        for layer in range(config.model.num_layers):
            active = spec if (spec.family != "none"
                              and config.policy.applies(layer)) else none_spec
            name = _FAMILY_EVENT_SCHEME[active.family]
            for site in ("attn", "mlp"):
                # g op: forward collective + its tracked backward message.
                expected[EventKey(_g_op(active), "tp", "forward", name,
                                  _fwd_bytes(active, shape), config.tp, layer, site)] += m
                expected[EventKey(_g_op(active), "tp", "backward", name,
                                  _bwd_bytes(active, shape), config.tp, layer, site)] += m
                # f op: identity forward, dense all-reduce in backward.
                expected[EventKey("all_reduce", "tp", "backward", "none",
                                  _dense(n), config.tp, layer, site)] += m

    partition = PipelinePartition.balanced(config.model.num_layers, config.pp)
    for b_idx, last_layer in enumerate(partition.boundaries()):
        active = spec if (spec.family != "none"
                          and config.policy.boundary_compressed(last_layer)) else none_spec
        name = _FAMILY_EVENT_SCHEME[active.family]
        site = f"boundary{b_idx}"
        expected[EventKey("send", "pp", "forward", name,
                          _fwd_bytes(active, shape), 2, last_layer, site)] += m
        expected[EventKey("send", "pp", "backward", name,
                          _bwd_bytes(active, shape), 2, last_layer, site)] += m

    if sp > 1:
        h = config.model.hidden
        ring_wire = 3 * (sp - 1) * _dense((batch // m) * (seq // sp) * h)
        for layer in range(config.model.num_layers):
            for phase in ("forward", "backward"):
                expected[EventKey("ring_exchange", "sp", phase, "none",
                                  ring_wire, sp, layer, "attn")] += m
        # Post-backward QKV grad sync, one per stage (tp == 1 under ring
        # SP, so each layer contributes its full h×3h weight + 3h bias).
        qkv_numel = 3 * h * h + 3 * h
        for stage in range(config.pp):
            stage_layers = sum(
                1 for lyr in range(config.model.num_layers)
                if partition.stage_of(lyr) == stage)
            expected[EventKey("all_reduce", "sp", "backward", "none",
                              _dense(stage_layers * qkv_numel), sp,
                              None, "grad_sync")] += 1

    if dp > 1:
        for key in list(expected):
            expected[key] *= dp
        if dp_grad_numel is None:
            raise ValueError("dp > 1 requires dp_grad_numel")
        if spec.family in ("topk", "randomk"):
            expected[EventKey(
                "all_gather", "dp", "backward",
                f"ef({_FAMILY_EVENT_SCHEME[spec.family]})",
                _fwd_bytes(spec, (dp_grad_numel,)), dp, None, "grad")] += 1
        elif spec.family == "quant":
            expected[EventKey(
                "all_gather", "dp", "backward", "quantization",
                _fwd_bytes(spec, (dp_grad_numel,)), dp, None, "grad")] += 1
        else:
            # "w/o" and AE: dense reduce (the AE codec is dimension-bound
            # to the activation hidden size — it cannot eat a flat
            # parameter vector).
            expected[EventKey("all_reduce", "dp", "backward", "none",
                              _dense(dp_grad_numel), dp, None, "grad")] += 1
    return expected


def observed_events(tracker) -> Counter:
    """Recorded tracker events as a comparable multiset."""
    return Counter(
        EventKey(e.op, e.group, e.phase, e.scheme, e.wire_bytes, e.world, e.layer, e.site)
        for e in tracker.events
    )


def compare_event_streams(expected: Counter, actual: Counter) -> list[str]:
    """Human-readable multiset differences (empty when streams match)."""
    problems = []
    for key in sorted(set(expected) | set(actual),
                      key=lambda k: (k.group, k.phase, k.layer if k.layer is not None else -1,
                                     k.site, k.op)):
        want, got = expected.get(key, 0), actual.get(key, 0)
        if want != got:
            problems.append(f"{key}: expected {want} event(s), observed {got}")
    return problems


def check_layout(scheme: str, tp: int, pp: int, *, dp: int = 1, sp: int = 1,
                 batch: int = 2, seq: int = 8,
                 seed: int = 0, schedule: str = "gpipe",
                 num_microbatches: int = 1) -> list[str]:
    """Run one (scheme, dp, tp, pp, sp, schedule, m) cell and diff its
    event stream."""
    from repro.nn.transformer import TransformerConfig
    from repro.parallel.backend import create_backend
    from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig

    model_cfg = TransformerConfig(vocab_size=60, max_seq_len=16, hidden=32,
                                  num_layers=4, num_heads=4, dropout=0.0)
    config = ModelParallelConfig(model_cfg, tp=tp, pp=pp, dp=dp, sp=sp,
                                 scheme=scheme,
                                 seed=seed, pipeline_schedule=schedule,
                                 num_microbatches=num_microbatches)
    model = ModelParallelBertClassifier(config)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, model_cfg.vocab_size, size=(batch, seq))
    labels = np.zeros(batch, dtype=np.int64)
    if num_microbatches == 1 and dp == 1 and sp == 1:
        model.loss(ids, labels).backward()
    else:
        # Microbatched, dp or sp iterations route through the backend —
        # that is where the batch split, the replica loop and the
        # gradient sync points live — so the stream that gets diffed is
        # the one the backend mirrors onto ``model.tracker``.
        create_backend("inproc", model).train_step(ids, labels, None)
    dp_grad_numel = None
    if dp > 1:
        # The flat vector dp_all_reduce shipped: every parameter that
        # received a gradient, measured off the first replica.
        dp_grad_numel = sum(p.grad.size for _, p in model.named_parameters()
                            if p.grad is not None)
    expected = (expected_events(config, batch, seq,
                                dp_grad_numel=dp_grad_numel)
                if dp > 1 else expected_events(config, batch, seq))
    problems = compare_event_streams(expected, observed_events(model.tracker))
    cell = f"scheme {scheme!r} tp={tp} pp={pp}"
    if dp > 1 or sp > 1:
        cell += f" dp={dp} sp={sp}"
    if num_microbatches > 1 or schedule != "gpipe":
        cell += f" schedule={schedule} m={num_microbatches}"
    return [f"{cell}: {p}" for p in problems]


def run_spmd_check(
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    layouts: tuple[tuple[int, int], ...] = DEFAULT_LAYOUTS,
    grid_cells: tuple[tuple[int, int, int, int], ...] = DEFAULT_GRID_CELLS,
) -> list[str]:
    """Full matrix check; returns all mismatches (empty means consistent)."""
    problems: list[str] = []
    for scheme in schemes:
        for tp, pp in layouts:
            problems.extend(check_layout(scheme, tp, pp))
            if pp > 1:
                # Microbatched 1F1B cell: counts must scale by m and the
                # schedule must not add, drop or resize any message.
                problems.extend(check_layout(
                    scheme, tp, pp, batch=4, schedule="1f1b",
                    num_microbatches=2,
                ))
        for dp, tp, pp, sp in grid_cells:
            problems.extend(check_layout(scheme, tp, pp, dp=dp, sp=sp,
                                         batch=2 * dp))
    return problems
