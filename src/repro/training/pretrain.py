"""Masked-language-model pre-training loop (§4.4's workload)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.pretraining import MLMCorpus
from repro.obs.metrics import NULL_RECORDER, RunRecorder
from repro.optim import Adam, WarmupLinearLR
from repro.parallel.backend import create_backend

__all__ = ["PretrainConfig", "run_pretraining"]


@dataclass
class PretrainConfig:
    """Hyper-parameters for one MLM pre-training run."""

    steps: int = 300
    batch_size: int = 32
    lr: float = 1e-3
    warmup_frac: float = 0.1
    max_grad_norm: float = 1.0

    def __post_init__(self):
        if self.steps <= 0 or self.batch_size <= 0:
            raise ValueError("steps and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ValueError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")


def run_pretraining(
    model,
    corpus: MLMCorpus,
    config: PretrainConfig,
    recorder: RunRecorder = NULL_RECORDER,
) -> list[float]:
    """Pre-train ``model`` (an MLM-headed BERT) on ``corpus``.

    Every step runs through the execution backend the model's config
    names (``inproc`` for a serial model), so its ``dp`` / ``sp`` axes and
    its ``num_microbatches`` (gradient accumulation, the numerics of the
    paper's micro-batch-128 / global-batch-1024 pipeline setting) apply
    here as they do in fine-tuning.  Returns the per-step loss history.
    """
    optimizer = Adam(model.parameters(), lr=config.lr)
    schedule = WarmupLinearLR(
        optimizer,
        warmup_steps=max(1, int(config.warmup_frac * config.steps)),
        total_steps=config.steps,
    )
    history: list[float] = []
    model.train()
    with create_backend(getattr(model.config, "backend", "inproc"),
                        model) as backend:
        for _ in range(config.steps):
            with recorder.step():
                batch = corpus.batch(config.batch_size)
                with recorder.timer("step"):
                    result = backend.step(
                        batch.input_ids, batch.labels, batch.attention_mask,
                        optimizer, max_grad_norm=config.max_grad_norm)
                if result.grad_norm is not None:
                    recorder.gauge("grad_norm", result.grad_norm)
                recorder.count("samples", config.batch_size)
                recorder.gauge("lr", schedule.step())
                recorder.gauge("loss", result.loss)
                history.append(result.loss)
    return history
