"""Gradient synchronization points for the DP and SP topology axes.

Two kinds of parameter gradient need post-backward reconciliation once the
grid grows beyond TP×PP:

- **DP**: every replica holds a full gradient set computed on its batch
  shard; the replicas are averaged by the compressible
  :func:`~repro.parallel.collectives.dp_all_reduce`, which the inproc
  backend runs over its replicas and each mp gang's leader over the dp
  group.  This module owns the *codec* for that reduce:
  :func:`build_dp_grad_compressor` maps the run's scheme label onto the
  gradient wire — sparse schemes get per-replica error feedback (the
  AGCMPT treatment), quantization applies stateless, and the AE (whose
  encoder is dimension-bound to the activation hidden size) plus "w/o"
  stay dense.  Its state is keyed by replica site (``dp.rank{r}``), so
  the oracle's one instance and the leaders' one-each hold the same
  residuals and streams.

- **SP**: ring sequence parallelism shards only the attention QKV
  projection's *inputs* by sequence block, so each sp rank's QKV
  weight/bias gradients are partial sums over its block.  Everything else
  (out-proj, MLP, norms, embeddings) consumes replicated full-sequence
  activations and already holds full gradients.  :func:`sp_sync_grads`
  all-reduces the per-stage QKV gradient vector over the sp group after
  the backward pass, on both backends: in-process autograd has already
  summed the blocks (the group's all-reduce is the identity there), a
  worker sums around the ring in rank order — bitwise-identical to the
  oracle's accumulation at sp <= 2.
"""

from __future__ import annotations

import re

import numpy as np

from repro.compression.base import Compressor
from repro.compression.error_feedback import ErrorFeedbackCompressor
from repro.compression.notation import scheme_spec
from repro.parallel.backend.context import Group
from repro.parallel.collectives import CommEvent, dense_bytes

__all__ = ["build_dp_grad_compressor", "sp_grad_groups", "sp_sync_grads"]

#: Seed offset for the DP gradient codec's Random-K stream — disjoint from
#: the activation-site offsets in runtime.py (layer*2+site and 500+b).
_DP_SEED_OFFSET = 900

_SP_PARTIAL = re.compile(r"(?:^|\.)layers\.(\d+)\.attn\.qkv_")


def build_dp_grad_compressor(config) -> Compressor | None:
    """The gradient-wire codec for a run's scheme label, or None for dense.

    Top-/Random-K compress the flat gradient vector under per-replica
    error feedback; quantization applies stateless.  The AE cannot apply
    (its encoder is shaped for the activation hidden dim, not the
    parameter count), so AE runs — like "w/o" — reduce dense gradients.
    """
    spec = scheme_spec(config.scheme)
    if spec.family in ("topk", "randomk"):
        inner = spec.build(config.model.hidden,
                           seed=config.seed * 1000 + _DP_SEED_OFFSET)
        return ErrorFeedbackCompressor(inner)
    if spec.family == "quant":
        return spec.build(config.model.hidden,
                          seed=config.seed * 1000 + _DP_SEED_OFFSET)
    return None


def sp_grad_groups(model) -> dict[int, list[tuple[str, object]]]:
    """Per-stage ``(name, parameter)`` lists needing an SP gradient sync.

    Only parameters whose gradients are partial under ring SP qualify:
    the QKV projections, grouped by the pipeline stage that owns their
    layer, each group in sorted-name order (the flattening order both
    sides of the exchange must agree on).
    """
    partition = model.backbone.partition
    groups: dict[int, list[tuple[str, object]]] = {}
    for name, p in sorted(model.named_parameters()):
        m = _SP_PARTIAL.search(name)
        if m is None or p.grad is None:
            continue
        stage = partition.stage_of(int(m.group(1)))
        groups.setdefault(stage, []).append((name, p))
    return groups


def sp_sync_grads(model) -> None:
    """All-reduce every local stage's partial QKV gradients over the sp group.

    Runs after the backward pass: per stage this process holds, flattens
    the stage's QKV gradients in sorted-name order, all-reduces the vector,
    and writes the slices back in place (a gradient may live in a slab).
    Every sp rank participates (the exchange is symmetric); only the
    designated recorder logs the stage's ``grad_sync`` event.
    """
    sp = Group("sp", model.config.sp)
    groups = sp_grad_groups(model)
    for stage in Group("pp", model.backbone.partition.pp).local:
        params = groups.get(stage)
        if not params:
            continue
        flat = np.concatenate(
            [np.ascontiguousarray(p.grad, dtype=np.float32).ravel()
             for _, p in params])
        total = sp.all_reduce(flat, label="sp grad sync")
        offset = 0
        for _, p in params:
            n = p.grad.size
            p.grad[...] = total[offset:offset + n].reshape(p.grad.shape)
            offset += n
        if sp.records:
            model.tracker.record(
                CommEvent("all_reduce", "sp", "backward", "none",
                          dense_bytes((flat.size,)), sp.world, (flat.size,),
                          None, "grad_sync"))
