"""In-process execution backend: the serial numerics oracle.

Runs the step exactly as the pre-backend code did — every logical rank's
shard computation in this process, collectives over lists of partials.
With ``dp == 1`` the autograd pass leaves gradients directly on the parent
model's parameters, so :class:`StepResult.grads` is empty and
``apply_grads`` / ``sync_weights`` are no-ops; the historical behaviour is
bitwise-unchanged.

With ``dp > 1`` the oracle materializes one *replica model* per
data-parallel rank.  A replica keeps its own ``Parameter`` objects,
gradients and — crucially — compressor state: each replica's
error-feedback residuals and Random-K streams advance on its own batch
shard exactly as the mp gangs' do.  Its weights are the model's:
``sync_weights`` points every replica parameter's ``.data`` at the model's
array and copies nothing, so the optimizer's in-place update reaches every
replica.  Each replica runs the serial step on its contiguous batch
shard, its backward accumulating into one heap vector per replica (each
parameter's gradient buffer is a view of it, in the slabs' sorted-name
layout); the vectors are then combined in place by
:func:`~repro.parallel.collectives.dp_all_reduce` with every replica local
— the function an mp gang leader runs with one replica local, performing
the same additions in the same order on every element (under Top-/Random-K
replicas ``r >= 1`` hand over their messages at their vectors' fronts, as
the leaders do at their slabs', and the first replica folds them).  The step's
gradients are views of the first replica's vector: the parent model's own
gradient buffers, valid until the next step.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.backend.base import ExecutionBackend, StepResult
from repro.parallel.backend.microbatch import (
    loss_grad_seed,
    mean_loss,
    split_microbatches,
)
from repro.parallel.backend.context import grad_views
from repro.parallel.collectives import CommTracker, dp_all_reduce, pack_grads
from repro.parallel.grad_sync import build_dp_grad_compressor, sp_sync_grads

__all__ = ["InprocBackend"]


class InprocBackend(ExecutionBackend):
    name = "inproc"

    def __init__(self, model):
        self.model = model
        cfg = getattr(model, "config", None)
        self.dp = getattr(cfg, "dp", 1) if cfg is not None else 1
        self.sp = getattr(cfg, "sp", 1) if cfg is not None else 1
        self._replicas = [model]
        self._dp_compressor = None
        if self.dp > 1:
            kwargs = {}
            if hasattr(model, "regression"):
                kwargs["regression"] = model.regression
            self._replicas += [type(model)(cfg, **kwargs)
                               for _ in range(self.dp - 1)]
            self._dp_compressor = build_dp_grad_compressor(cfg)
            self.sync_weights(model)
            self._flats = [np.empty(model.num_parameters(), np.float32) for _ in self._replicas]
            for replica, flat in zip(self._replicas, self._flats):
                views = grad_views(flat, {n: p.shape for n, p in replica.named_parameters()})
                for name, p in replica.named_parameters():
                    p.grad_buffer = views[name]

    # ------------------------------------------------------------------
    def _replica_step(self, model, input_ids, labels, attention_mask) -> float:
        """One replica's serial step on (its shard of) the batch."""
        if hasattr(model, "tracker"):  # a serial model sends nothing
            model.tracker.reset()
        model.zero_grad()
        m = getattr(model.config, "num_microbatches", 1)
        if m == 1:
            loss = model.loss(input_ids, labels, attention_mask)
            loss.backward()
            loss_val = loss.item()
        else:
            # The serial image of a microbatched pipeline iteration: each
            # microbatch runs forward + backward in order, so gradients,
            # compressor RNG streams and error-feedback residuals advance
            # exactly as the schedule-driven workers advance them.
            seed = loss_grad_seed(m)
            vals = []
            for mb_ids, mb_labels, mb_mask in split_microbatches(
                    input_ids, labels, attention_mask, m):
                mb_loss = model.loss(mb_ids, mb_labels, mb_mask)
                vals.append(float(mb_loss.item()))
                mb_loss.backward(seed)
            loss_val = mean_loss(vals)
        # SP: the same sync the workers run.  Autograd already summed the
        # QKV block gradients here, so it only logs the per-stage events.
        if self.sp > 1:
            sp_sync_grads(model)
        return float(loss_val)

    def train_step(self, input_ids, labels, attention_mask=None) -> StepResult:
        if self.dp == 1:
            loss_val = self._replica_step(self.model, input_ids, labels,
                                          attention_mask)
            tracker = getattr(self.model, "tracker", None)
            return StepResult(loss=loss_val, grads={},
                              events=list(tracker.events) if tracker else [],
                              timelines={})

        input_ids = np.asarray(input_ids)
        if input_ids.shape[0] % self.dp != 0:
            raise ValueError(
                f"batch size {input_ids.shape[0]} not divisible by "
                f"dp={self.dp}")
        shard = input_ids.shape[0] // self.dp
        labels = np.asarray(labels)
        mask = None if attention_mask is None else np.asarray(attention_mask)

        events: list = []
        losses: list[float] = []
        vectors: list[np.ndarray] = []
        for r, (replica, flat) in enumerate(zip(self._replicas, self._flats)):
            sl = slice(r * shard, (r + 1) * shard)
            losses.append(self._replica_step(
                replica, input_ids[sl], labels[sl],
                None if mask is None else mask[sl]))
            events.extend(replica.tracker.events)
            grads = {name: p.grad for name, p in replica.named_parameters()
                     if p.grad is not None}
            in_place = all(p.grad is p.grad_buffer for p in replica.parameters())
            vectors.append(flat if in_place else pack_grads(flat, grads))

        # Gradient sync point (the dp_all_reduce the mp gang leaders run
        # among themselves), plus the replica-order loss mean.  Every
        # replica wrote the same gradients, laid out as the last one's.
        dp_tracker = CommTracker()
        grads = grad_views(dp_all_reduce(vectors, self._dp_compressor, dp_tracker),
                           {name: g.shape for name, g in grads.items()})
        events.extend(dp_tracker.events)
        loss_val = sum(losses[1:], losses[0]) / self.dp

        self.model.tracker.reset()
        self.model.tracker.events.extend(events)
        return StepResult(loss=float(loss_val), grads=grads, events=events,
                          timelines={})

    def sync_weights(self, model) -> None:
        # A rebind, not a copy: each replica parameter reads the model's array
        # (bound in the constructor; again here after a ``load_state_dict``).
        # At dp == 1 there are no replicas.
        weights = dict(model.named_parameters())
        for replica in self._replicas[1:]:
            for name, p in replica.named_parameters():
                p.data = weights[name].data

    def runtime_state(self) -> dict:
        if self.dp == 1:
            backbone = getattr(self.model, "backbone", None)
            if backbone is None:
                return {}
            return backbone.runtime_state_dict()
        # dp > 1: namespace per replica — the replicas' compressor states
        # advance independently, so a flat union would collide.
        state: dict = {}
        for r, replica in enumerate(self._replicas):
            backbone = getattr(replica, "backbone", None)
            if backbone is not None:
                state[f"dp{r}"] = backbone.runtime_state_dict()
        if self._dp_compressor is not None:
            grad_state = self._dp_compressor.runtime_state()
            if grad_state:
                state["dp_grad"] = grad_state
        return state

    def load_runtime_state(self, state: dict) -> None:
        if self.dp == 1:
            backbone = getattr(self.model, "backbone", None)
            if backbone is not None:
                backbone.load_runtime_state_dict(state)
            return
        for r, replica in enumerate(self._replicas):
            backbone = getattr(replica, "backbone", None)
            if backbone is not None and f"dp{r}" in state:
                backbone.load_runtime_state_dict(state[f"dp{r}"])
        if self._dp_compressor is not None and "dp_grad" in state:
            self._dp_compressor.load_runtime_state(state["dp_grad"])
