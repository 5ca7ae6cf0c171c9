"""Execution-backend interface: how one training step actually runs.

The runtime's *semantics* (which tensors cross which cut points, what the
collectives compute, what bytes the tracker logs) are defined by
:mod:`repro.parallel.collectives`; a backend decides *where* the logical
ranks execute:

- ``inproc`` — today's serial semantics: every rank's shard computation
  runs in this process, collectives operate on lists of partials.  It is
  the numerics oracle.
- ``mp`` — one OS process per logical rank (spawn context); collectives,
  weights and gradients in shared memory, commands and small replies on a
  pipe.  Bitwise-equivalent to ``inproc`` by construction (see DESIGN.md):
  rank sums run in rank order, codecs run rank-local, and the ranks
  compute on the very bytes the parent wrote.

Both backends run one optimizer step through the same call, so the
trainers, the bench harness and the tools drive them identically::

    with create_backend(cfg.backend, model) as backend:
        result = backend.step(input_ids, labels, mask, optimizer,
                              max_grad_norm=1.0)  # result.loss, .grad_norm
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BackendError", "StepResult", "ExecutionBackend", "create_backend",
           "BACKEND_NAMES"]

BACKEND_NAMES = ("inproc", "mp")


class BackendError(RuntimeError):
    """A backend failed: worker crash, transport timeout, protocol violation.

    Carries the failing logical ``rank`` (or ``None`` when the failure is
    not attributable to one rank) so a hung 2×2 run names its culprit
    instead of leaving four silent processes.
    """

    def __init__(self, message: str, rank: int | None = None):
        if rank is not None:
            message = f"[rank {rank}] {message}"
        super().__init__(message)
        self.rank = rank


@dataclass
class StepResult:
    """Outcome of one training (or eval) step, backend-agnostic.

    ``grads`` maps dotted parameter names to gradient arrays that own
    their memory (a result outlives ``close()``); it is empty for inproc
    at ``dp == 1``, whose autograd pass already left the gradients on the
    parent model's parameters.  ``record`` maps global rank to the step's
    slice of that rank's event record
    (:mod:`repro.parallel.backend.events`) and ``timelines`` is its span
    view (``name``/``cat``/``ts_ms``/``dur_ms`` per rank) for Chrome-trace
    export; both are filled when the mp backend's ``collect_timelines`` is
    set, and empty otherwise and always for inproc.
    ``grad_norm`` is the pre-clip global gradient norm when
    :meth:`ExecutionBackend.step` clipped, else ``None``.
    """

    loss: float
    grads: dict[str, np.ndarray] = field(default_factory=dict)
    events: list = field(default_factory=list)
    timelines: dict[int, list[dict]] = field(default_factory=dict)
    record: dict[int, list[dict]] = field(default_factory=dict)
    grad_norm: float | None = None


class ExecutionBackend:
    """Protocol shared by all backends (subclass, don't instantiate)."""

    name = "abstract"

    def step(self, input_ids, labels, attention_mask, optimizer, *,
             max_grad_norm: float | None = None) -> StepResult:
        """One optimizer step on the backend's model, the only place the
        parent's step sequence is written: the ranks compute the
        gradients, the parent's ``optimizer`` (over ``self.model``'s
        parameters) clips them when ``max_grad_norm`` is set and updates
        the weights, and the ranks are handed the updated weights."""
        optimizer.zero_grad()
        result = self.train_step(input_ids, labels, attention_mask)
        self.apply_grads(self.model, result)
        if max_grad_norm:
            result.grad_norm = optimizer.clip_grad_norm(max_grad_norm)
        optimizer.step()
        self.sync_weights(self.model)
        return result

    def train_step(self, input_ids, labels, attention_mask=None) -> StepResult:
        raise NotImplementedError

    def apply_grads(self, model, result: StepResult) -> None:
        """Install ``result.grads`` onto the parent model's parameters
        (inproc at ``dp == 1`` has none: they already live there)."""
        named = dict(model.named_parameters()) if result.grads else {}
        for name, g in result.grads.items():
            named[name].grad = np.asarray(g)

    def sync_weights(self, model) -> None:
        """Make the ranks compute on the parent model's (updated) weights."""
        raise NotImplementedError

    def runtime_state(self) -> dict:
        """Compressor runtime state (EF residuals, RNG streams) for
        checkpointing; ``{}`` for backends/models with none."""
        return {}

    def load_runtime_state(self, state: dict) -> None:
        """Restore compressor runtime state captured by :meth:`runtime_state`."""

    def close(self) -> None:
        """Release processes/shared memory. Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_backend(name: str, model, **kwargs) -> ExecutionBackend:
    """Build the backend ``name`` around a parent model.

    ``model`` is a :class:`~repro.parallel.ModelParallelBertClassifier`
    (or any model following its config/tracker protocol); the mp backend
    reads its :class:`ModelParallelConfig` to spawn one worker per rank.

    The topology grid is re-validated here (configs are plain dataclasses
    — an axis mutated after construction would otherwise surface as a
    worker-spawn failure deep inside the mp backend): a bad axis raises a
    typed :class:`~repro.parallel.topology.TopologyError` naming it.
    """
    cfg = getattr(model, "config", None)
    if cfg is not None and hasattr(cfg, "dp"):
        from repro.parallel.topology import validate_grid

        validate_grid(cfg.dp, cfg.tp, cfg.pp, cfg.sp)
    if name == "inproc":
        from repro.parallel.backend.inproc import InprocBackend

        return InprocBackend(model, **kwargs)
    if name == "mp":
        from repro.parallel.backend.mp import MpBackend

        return MpBackend(model, **kwargs)
    raise ValueError(f"unknown backend {name!r}; valid: {list(BACKEND_NAMES)}")
