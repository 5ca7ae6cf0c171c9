"""High-level fine-tune-and-evaluate entry point used by the experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import CompressionPolicy
from repro.data.tasks import GLUE_TASKS, make_task
from repro.data.topics import TopicModel
from repro.nn.transformer import TransformerConfig
from repro.obs.metrics import NULL_RECORDER, RunRecorder
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.backend import create_backend
from repro.training.trainer import FineTuneTrainer, TrainConfig, evaluate_task

__all__ = ["FinetuneResult", "finetune_on_task", "default_accuracy_model"]


@dataclass
class FinetuneResult:
    """Scores of one (task × scheme) fine-tuning run."""

    task: str
    scheme: str
    scores: dict[str, float]  # split name -> metric ×100
    final_loss: float

    @property
    def primary(self) -> float:
        """Single headline number (mean over eval splits, e.g. MNLI m/mm)."""
        return float(np.mean(list(self.scores.values())))


def default_accuracy_model(
    num_classes: int = 2,
    seed: int = 0,
    num_layers: int = 4,
) -> TransformerConfig:
    """The scaled-down BERT used for (real) accuracy experiments.

    DESIGN.md §2: accuracy phenomena are layer-relative and qualitative, so
    a 4-layer / hidden-64 model stands in for BERT-Large; the performance
    simulator (not this model) uses the true BERT-Large dimensions.
    """
    return TransformerConfig(
        vocab_size=128,
        max_seq_len=32,
        hidden=64,
        num_layers=num_layers,
        num_heads=4,
        dropout=0.0,
        num_classes=num_classes,
        seed=seed,
        # Larger-than-BERT init: the scaled-down model needs stronger
        # attention logits at init to learn the relational (XOR) tasks
        # within a CPU-scale step budget.
        init_std=0.08,
    )


def finetune_on_task(
    task_name: str,
    scheme: str = "w/o",
    tp: int = 2,
    pp: int = 2,
    policy: CompressionPolicy | None = None,
    topics: TopicModel | None = None,
    train_config: TrainConfig | None = None,
    seed: int = 0,
    num_layers: int = 4,
    backbone_state: dict[str, np.ndarray] | None = None,
    recorder: RunRecorder = NULL_RECORDER,
) -> FinetuneResult:
    """Fine-tune a fresh (or pre-trained) MP model on one synthetic GLUE task.

    Parameters
    ----------
    backbone_state:
        Optional pre-trained backbone weights (AE params are ignored on
        load — the Table 8 workflow).
    recorder:
        Optional :class:`~repro.obs.metrics.RunRecorder` capturing per-step
        loss / lr / grad-norm and phase timings (no-op by default); on the
        inproc backend its run file also carries every training step's
        ``comm`` and per-call ``fidelity`` events (evaluation records none).
    """
    spec = GLUE_TASKS[task_name]
    model_cfg = default_accuracy_model(
        num_classes=max(spec.num_classes, 2), seed=seed, num_layers=num_layers
    )
    mp_cfg = ModelParallelConfig(
        model_cfg, tp=tp, pp=pp, scheme=scheme, policy=policy, seed=seed
    )
    model = ModelParallelBertClassifier(mp_cfg, regression=spec.regression)
    if backbone_state is not None:
        model.load_backbone(backbone_state)

    train, evals = make_task(task_name, topics=topics, seq_len=model_cfg.max_seq_len // 2,
                             seed=seed)
    if train_config is None:
        train_config = TrainConfig(epochs=spec.epochs, lr=1e-3, seed=seed)

    # Evaluation always runs on the parent model, whose weights the backend
    # keeps current after every optimizer step.
    with create_backend(mp_cfg.backend, model) as backend:
        trainer = FineTuneTrainer(model, train_config, recorder=recorder,
                                  backend=backend)
        history = trainer.train(train)

    scores = {
        split: evaluate_task(model, ds) for split, ds in evals.items()
    }
    return FinetuneResult(task_name, scheme, scores, history[-1] if history else float("nan"))
