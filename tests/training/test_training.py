"""Tests for the training loops, checkpointing, and the fine-tune API."""

import os

import numpy as np
import pytest

from repro import nn
from repro.data.pretraining import MLMCorpus
from repro.data.tasks import make_task
from repro.parallel import (
    ModelParallelBertClassifier,
    ModelParallelBertPreTraining,
    ModelParallelConfig,
)
from repro.parallel.backend import create_backend
from repro.parallel.backend.microbatch import mean_loss, split_microbatches
from repro.training import (
    FineTuneTrainer,
    PretrainConfig,
    TrainConfig,
    evaluate_task,
    load_checkpoint,
    run_pretraining,
    save_checkpoint,
)
from repro.training.finetune import default_accuracy_model, finetune_on_task


def tiny_config(**kw):
    defaults = dict(vocab_size=128, max_seq_len=32, hidden=32, num_layers=2,
                    num_heads=2, num_classes=2, seed=0, init_std=0.08)
    defaults.update(kw)
    return nn.TransformerConfig(**defaults)


class TestFineTuneTrainer:
    def test_loss_decreases_on_easy_task(self):
        train, _ = make_task("SST-2", seed=0, train_size=128)
        model = nn.BertForSequenceClassification(tiny_config())
        trainer = FineTuneTrainer(model, TrainConfig(epochs=4, lr=2e-3, seed=0))
        hist = trainer.train(train)
        assert np.mean(hist[-4:]) < np.mean(hist[:4]) * 0.9

    def test_history_length(self):
        train, _ = make_task("SST-2", seed=0, train_size=64)
        model = nn.BertForSequenceClassification(tiny_config())
        trainer = FineTuneTrainer(model, TrainConfig(epochs=2, batch_size=32, seed=0))
        hist = trainer.train(train)
        assert len(hist) == 2 * 2  # 2 epochs × ceil(64/32) steps

    def test_evaluate_uses_task_metric(self):
        _, evals = make_task("CoLA", seed=0)
        model = nn.BertForSequenceClassification(tiny_config())
        score = evaluate_task(model, evals["eval"])
        assert -100.0 <= score <= 100.0  # Matthews ×100

    def test_evaluate_regression(self):
        _, evals = make_task("STS-B", seed=0)
        model = nn.BertForSequenceClassification(tiny_config(), regression=True)
        score = evaluate_task(model, evals["eval"])
        assert -100.0 <= score <= 100.0


class TestOneStepPath:
    """A trainer without a backend steps through an in-process one."""

    @staticmethod
    def model(**axes):
        return ModelParallelBertClassifier(
            ModelParallelConfig(tiny_config(), scheme="T2", seed=0, **axes))

    def test_tracker_holds_one_steps_events_after_train(self):
        train, _ = make_task("SST-2", seed=0, train_size=48)
        tcfg = TrainConfig(epochs=1, batch_size=16, seed=0)  # 3 steps
        one, three = self.model(tp=2), self.model(tp=2)
        FineTuneTrainer(one, tcfg).train(train, max_steps=1)
        FineTuneTrainer(three, tcfg).train(train)
        assert one.tracker.events
        assert three.tracker.events == one.tracker.events

    def test_dp2_without_a_backend_trains_dp2(self):
        train, _ = make_task("RTE", seed=0, train_size=32)
        tcfg = TrainConfig(epochs=1, batch_size=16, seed=0)
        implicit, explicit = self.model(pp=2, dp=2), self.model(pp=2, dp=2)
        hist = FineTuneTrainer(implicit, tcfg).train(train)
        ref = FineTuneTrainer(explicit, tcfg,
                              backend=create_backend("inproc", explicit)).train(train)
        assert hist == ref
        assert implicit.tracker.count(group="dp") == 1  # the last step's reduce


class TestPretraining:
    def test_mlm_loss_decreases(self):
        cfg = tiny_config()
        model = nn.BertForPreTraining(cfg)
        corpus = MLMCorpus(seq_len=16, seed=0)
        hist = run_pretraining(model, corpus, PretrainConfig(steps=40, batch_size=16))
        assert np.mean(hist[-8:]) < np.mean(hist[:8])

    def test_gradient_accumulation_matches_big_batch_loss_scale(self):
        """num_microbatches=4 reports the mean of the microbatch losses."""
        def build():
            return ModelParallelBertPreTraining(ModelParallelConfig(
                default_accuracy_model(seed=0, num_layers=2), tp=1, pp=1,
                dp=1, sp=1, num_microbatches=4, seed=0))

        hist = run_pretraining(build(), MLMCorpus(seq_len=16, seed=0),
                               PretrainConfig(steps=3, batch_size=8))
        batch = MLMCorpus(seq_len=16, seed=0).batch(8)
        fresh = build()
        losses = [float(fresh.loss(*mb).item()) for mb in split_microbatches(
            batch.input_ids, batch.labels, batch.attention_mask, 4)]
        assert hist[0] == mean_loss(losses)
        assert len(hist) == 3 and all(np.isfinite(h) for h in hist)

    def test_tracker_holds_one_steps_events(self):
        def run(steps):
            model = ModelParallelBertPreTraining(ModelParallelConfig(
                default_accuracy_model(seed=0, num_layers=2), tp=2, pp=2,
                scheme="A2", seed=0))
            run_pretraining(model, MLMCorpus(seq_len=16, seed=0),
                            PretrainConfig(steps=steps, batch_size=8))
            return model.tracker.events

        one, three = run(1), run(3)
        assert one and len(three) == len(one)

    def test_dp2_records_one_dp_event_per_step(self):
        """The tracker holds the last step: one dp gradient reduce."""
        model = ModelParallelBertPreTraining(ModelParallelConfig(
            default_accuracy_model(seed=0, num_layers=2), dp=2, seed=0))
        run_pretraining(model, MLMCorpus(seq_len=16, seed=0),
                        PretrainConfig(steps=2, batch_size=8))
        assert model.tracker.count(group="dp") == 1

    def test_mp_pretraining_runs(self):
        cfg = default_accuracy_model(seed=0, num_layers=2)
        model = ModelParallelBertPreTraining(
            ModelParallelConfig(cfg, tp=2, pp=2, scheme="A2", seed=0)
        )
        corpus = MLMCorpus(seq_len=16, seed=0)
        hist = run_pretraining(model, corpus, PretrainConfig(steps=5, batch_size=8))
        assert len(hist) == 5
        state = model.backbone_state_dict()
        assert not any(k.startswith("compressor.") for k in state)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        state = {"a.b": np.arange(6, dtype=np.float32).reshape(2, 3),
                 "c": np.ones(4)}
        path = os.path.join(tmp_path, "ckpt.npz")
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.b", "c"}
        np.testing.assert_array_equal(loaded["a.b"], state["a.b"])

    def test_backbone_transfer_improves_finetuning(self, tmp_path):
        """Pre-trained weights fine-tune better than random init (Table 8's
        premise), exercised end-to-end through save/load."""
        cfg = default_accuracy_model(seed=0, num_layers=2)
        model = ModelParallelBertPreTraining(ModelParallelConfig(cfg, tp=1, pp=1, seed=0))
        corpus = MLMCorpus(seq_len=16, seed=0)
        run_pretraining(model, corpus, PretrainConfig(steps=60, batch_size=32))
        path = os.path.join(tmp_path, "bb.npz")
        save_checkpoint(model.backbone_state_dict(), path)
        state = load_checkpoint(path)

        quick = TrainConfig(epochs=2, lr=1e-3, seed=0)
        warm = finetune_on_task("SST-2", "w/o", tp=1, pp=1, seed=0,
                                num_layers=2, backbone_state=state, train_config=quick)
        cold = finetune_on_task("SST-2", "w/o", tp=1, pp=1, seed=0,
                                num_layers=2, train_config=quick)
        assert warm.primary >= cold.primary - 5.0  # warm start at least comparable


class TestFinetuneAPI:
    def test_returns_scores_per_split(self):
        res = finetune_on_task("MNLI", "w/o", tp=1, pp=1, seed=0, num_layers=2,
                               train_config=TrainConfig(epochs=1, seed=0))
        assert set(res.scores) == {"m", "mm"}
        assert res.task == "MNLI"
        assert np.isfinite(res.primary)

    def test_compressed_run_has_ae_parameters(self):
        res = finetune_on_task("SST-2", "A2", tp=2, pp=2, seed=0, num_layers=4,
                               train_config=TrainConfig(epochs=1, seed=0))
        assert res.scheme == "A2"
