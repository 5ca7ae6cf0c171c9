"""Fine-tuning trainer and task evaluation.

Works with any model exposing the ``loss(input_ids, labels, attention_mask)``
/ ``predict(input_ids, attention_mask)`` protocol — both the serial
:class:`~repro.nn.BertForSequenceClassification` and the model-parallel
:class:`~repro.parallel.ModelParallelBertClassifier` qualify, so the same
trainer drives baseline and compressed runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import batch_iter
from repro.data.metrics import METRICS
from repro.data.tasks import GlueDataset
from repro.obs.metrics import NULL_RECORDER, RunRecorder
from repro.optim import Adam, WarmupLinearLR
from repro.parallel.backend import create_backend
from repro.tensor import no_grad
from repro.training.checkpoint import load_trainer_state, save_trainer_state

__all__ = ["TrainConfig", "FineTuneTrainer", "evaluate_task"]


@dataclass
class TrainConfig:
    """Hyper-parameters for one fine-tuning run."""

    lr: float = 1e-3
    epochs: int = 4
    batch_size: int = 32
    warmup_frac: float = 0.1
    max_grad_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ValueError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        if self.max_grad_norm <= 0:
            raise ValueError(f"max_grad_norm must be positive, got {self.max_grad_norm}")


class FineTuneTrainer:
    """Adam + linear-warmup trainer over a materialized dataset.

    Every step runs through an
    :class:`~repro.parallel.backend.ExecutionBackend`: the one given (e.g.
    the mp backend's worker processes) or, by default, an in-process
    :class:`~repro.parallel.backend.inproc.InprocBackend` over ``model`` —
    which honours the model's ``dp`` axis; the two are bitwise-identical
    by design.  The recorder's timers are named after the calls they wrap:
    ``train_step``, ``apply_grads`` and ``optimizer`` (clip, step, weight
    sync).

    An optional live-telemetry pair — a
    :class:`~repro.obs.telemetry.Collector` and a
    :class:`~repro.obs.telemetry.HealthMonitor` — is serviced once per
    step: the step result's rank event record is ingested by the collector
    (inproc backends yield none), the step loss is observed on the
    pooled series, and the monitor's rules are checked.  Both default to
    ``None`` and cost nothing when absent.
    """

    def __init__(self, model, config: TrainConfig, recorder: RunRecorder = NULL_RECORDER,
                 backend=None, collector=None, monitor=None):
        self.model = model
        self.config = config
        self.optimizer = Adam(model.parameters(), lr=config.lr)
        self.history: list[float] = []
        self.recorder = recorder
        self.backend = backend if backend is not None else create_backend(
            "inproc", model)
        self.collector = collector
        self.monitor = monitor
        self.schedule = None
        self.rng = None
        self.global_step = 0
        self._epoch = 0
        self._step_in_epoch = 0
        self._epoch_rng_state: dict | None = None

    def _observe_telemetry(self, loss_val: float) -> None:
        """Per-step collector/monitor service (no-op when not configured)."""
        coll = self.collector
        if coll is None:
            return
        # The pooled loss series exists for both backends: inproc runs get
        # loss health rules (NaN/divergence) even without rank records.
        coll.observe(None, "loss", loss_val)
        if self.monitor is not None:
            self.monitor.check(self.global_step)

    def _step(self, batch) -> float:
        """One step through the execution backend's step protocol."""
        rec = self.recorder
        cfg = self.config
        self.optimizer.zero_grad()
        with rec.timer("train_step"):
            result = self.backend.train_step(batch.input_ids, batch.labels,
                                             batch.attention_mask)
        if self.collector is not None:
            self.collector.ingest_record(result.record)
        with rec.timer("apply_grads"):
            self.backend.apply_grads(self.model, result)
        with rec.timer("optimizer"):
            if cfg.max_grad_norm:
                grad_norm = self.optimizer.clip_grad_norm(cfg.max_grad_norm)
                rec.gauge("grad_norm", grad_norm)
            self.optimizer.step()
            self.backend.sync_weights(self.model)
        return result.loss

    def save_state(self, path: str) -> None:
        """Write a full mid-run snapshot (resume with ``resume_from``)."""
        if self.schedule is None or self._epoch_rng_state is None:
            raise RuntimeError("save_state called before any training step")
        save_trainer_state(
            path,
            model_state=self.model.state_dict(),
            optimizer_state=self.optimizer.state_dict(),
            schedule_state=self.schedule.state_dict(),
            data_rng_state=self._epoch_rng_state,
            # Compressor state lives where the backend runs the step (the
            # mp workers' replicas), so it is pulled over the control plane.
            runtime_state=self.backend.runtime_state(),
            global_step=self.global_step,
            epoch=self._epoch,
            step_in_epoch=self._step_in_epoch,
        )

    def _restore(self, path: str) -> tuple[int, int]:
        """Load a snapshot; returns (start_epoch, steps to skip in it)."""
        state = load_trainer_state(path)
        self.model.load_state_dict(state.model_state)
        self.optimizer.load_state_dict(state.optimizer_state)
        self.schedule.load_state_dict(state.schedule_state)
        # The snapshot's RNG state was captured at the interrupted epoch's
        # start, so replaying batch_iter from it re-draws the identical
        # shuffle; the already-consumed batches are skipped by count.
        self.rng.bit_generator.state = copy.deepcopy(state.data_rng_state)
        self.global_step = state.global_step
        backbone = getattr(self.model, "backbone", None)
        if backbone is not None:
            backbone.load_runtime_state_dict(state.runtime_state)
        self.backend.load_runtime_state(state.runtime_state)
        self.backend.sync_weights(self.model)
        return state.epoch, state.step_in_epoch

    def train(self, dataset: GlueDataset, *, checkpoint_path: str | None = None,
              checkpoint_every: int | None = None,
              resume_from: str | None = None,
              max_steps: int | None = None) -> list[float]:
        """Run the configured number of epochs; returns per-step losses.

        ``checkpoint_path``/``checkpoint_every`` write a full trainer
        snapshot every N global steps; ``resume_from`` restores one and
        continues — bitwise-identical to the uninterrupted run
        (tests/training/test_chaos_recovery.py).  ``max_steps`` stops
        after that many global steps (used by tests to emulate a kill).
        """
        cfg = self.config
        rec = self.recorder
        steps_per_epoch = max(1, int(np.ceil(len(dataset) / cfg.batch_size)))
        total_steps = steps_per_epoch * cfg.epochs
        self.schedule = WarmupLinearLR(
            self.optimizer,
            warmup_steps=max(1, int(cfg.warmup_frac * total_steps)),
            total_steps=total_steps,
        )
        self.rng = np.random.default_rng(cfg.seed)
        self.global_step = 0
        start_epoch = skip_steps = 0
        if resume_from is not None:
            start_epoch, skip_steps = self._restore(resume_from)
        self.model.train()
        for epoch in range(start_epoch, cfg.epochs):
            # Captured *before* batch_iter draws this epoch's shuffle: a
            # resume from mid-epoch restores this state and replays the
            # identical batch order.
            epoch_rng_state = copy.deepcopy(self.rng.bit_generator.state)
            skip = skip_steps if epoch == start_epoch else 0
            for step_in_epoch, batch in enumerate(
                    batch_iter(dataset, cfg.batch_size, rng=self.rng)):
                if step_in_epoch < skip:
                    continue
                with rec.step():
                    loss_val = self._step(batch)
                    rec.gauge("lr", self.schedule.step())
                    rec.gauge("loss", loss_val)
                    rec.count("samples", len(batch.labels))
                    self.history.append(loss_val)
                self._observe_telemetry(loss_val)
                self.global_step += 1
                self._epoch = epoch
                self._step_in_epoch = step_in_epoch + 1
                self._epoch_rng_state = epoch_rng_state
                if (checkpoint_path is not None and checkpoint_every
                        and self.global_step % checkpoint_every == 0):
                    self.save_state(checkpoint_path)
                if max_steps is not None and self.global_step >= max_steps:
                    return self.history
        return self.history


def evaluate_task(model, dataset: GlueDataset, batch_size: int = 64) -> float:
    """Compute the dataset's task metric (×100, GLUE convention)."""
    metric_fn = METRICS[dataset.spec.metric]
    preds, labels = [], []
    model.eval()
    with no_grad():
        for batch in batch_iter(dataset, batch_size):
            preds.append(model.predict(batch.input_ids, batch.attention_mask))
            labels.append(batch.labels)
    model.train()
    score = metric_fn(np.concatenate(preds), np.concatenate(labels))
    return 100.0 * score
