"""Compression fidelity as rank events: the collectives emit one
``fidelity`` event per compressed-site call into the active record."""

import contextlib

import numpy as np
import pytest

from repro.compression import (
    AutoencoderCompressor,
    NoCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    TopKCompressor,
)
from repro.compression.error_feedback import ErrorFeedbackCompressor
from repro.parallel.backend import events
from repro.parallel.backend.events import EventRecord
from repro.parallel.collectives import (
    CommTracker,
    _observe,
    pipeline_transfer,
    tp_all_reduce,
)
from repro.tensor import Tensor

RNG = np.random.default_rng(7)


def parts(world=2, shape=(2, 5, 32)):
    return [Tensor(RNG.normal(size=shape).astype(np.float32)) for _ in range(world)]


@contextlib.contextmanager
def observed():
    """An installed record; yields the list its ``fidelity`` events fill."""
    record = EventRecord(-1, 1)
    calls: list[dict] = []
    events.install(record)
    try:
        yield calls
    finally:
        events.uninstall()
        calls += [e for e in record.events if e["kind"] == "fidelity"]


class TestProbeMath:
    """The math of one ``fidelity`` event, and the per-site fold."""

    def test_perfect_reconstruction_has_zero_error(self):
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        with observed() as calls:
            _observe("s", TopKCompressor(0.5), "tp", x, x, 32, (4, 4))
        (e,) = calls
        assert e["rel_l2"] == 0.0
        assert e["ratio"] == 1.0  # 16 fp16 elements over 32 wire bytes

    def test_zero_input_yields_zero_error(self):
        z = Tensor(np.zeros((3, 3), dtype=np.float32))
        with observed() as calls:
            pipeline_transfer(z, TopKCompressor(0.25), CommTracker(), boundary=0)
        (e,) = calls
        assert e["rel_l2"] == 0.0

    def test_known_error(self):
        x = np.array([3.0, 4.0], dtype=np.float32)
        with observed() as calls:
            _observe("s", QuantizationCompressor(4), "pp", x,
                     np.zeros(2, dtype=np.float32), 1, (2,))
        (e,) = calls
        assert e["rel_l2"] == pytest.approx(1.0)
        assert e["ratio"] == 4.0
        assert (e["site"], e["scheme"], e["group"]) == ("s", "quantization", "pp")

    def test_per_site_aggregates_and_reset(self):
        from repro.obs.metrics import step_rows, summarize

        x = np.ones(4, dtype=np.float32)
        record = EventRecord(-1, 1)
        events.install(record)
        try:
            for step, errs in enumerate(((0.0, 1.0), (0.5,))):
                record.emit("step_begin", step=step)
                for err in errs:
                    _observe("a", TopKCompressor(0.5), "tp", x, x * (1 - err),
                             4, (4,))
                record.emit("step_end", step=step)
        finally:
            events.uninstall()
        first, second = step_rows(record.events)
        assert first["fidelity"]["a"]["rel_l2"] == pytest.approx(0.5)
        assert first["fidelity"]["a"]["ratio"] == pytest.approx(2.0)
        # The fold starts afresh each step: step 1 saw one call.
        assert second["fidelity"]["a"]["rel_l2"] == pytest.approx(0.5)
        agg = summarize(record.events)["fidelity"]["a"]
        assert agg["steps"] == 2
        assert agg["rel_l2_mean"] == pytest.approx(0.5)
        assert agg["rel_l2_max"] == pytest.approx(0.5)
        assert agg["ratio_mean"] == pytest.approx(2.0)
        assert agg["residual_norm_last"] is None


class TestCollectivesWiring:
    @pytest.mark.parametrize("compressor", [
        TopKCompressor(0.25),
        RandomKCompressor(0.25, seed=0),
        QuantizationCompressor(4),
    ])
    def test_allgather_path_observes_each_rank(self, compressor):
        with observed() as calls:
            tp_all_reduce(parts(world=2), compressor, CommTracker(), layer=1,
                          site="mlp")
        assert [e["site"] for e in calls] == ["layer1.mlp.rank0", "layer1.mlp.rank1"]
        dense = 2 * 5 * 32 * 2
        for e in calls:
            assert e["group"] == "tp"
            assert e["scheme"] == compressor.name
            assert 0.0 < e["rel_l2"] < 1.5
            assert e["ratio"] == dense / compressor.compressed_bytes((2, 5, 32))
            assert e["rank"] == -1  # the record's, not the tp rank's

    def test_ae_path_observes_the_reduced_sum(self):
        ae = AutoencoderCompressor(hidden=32, code_dim=8, seed=0)
        ps = parts(world=2)
        with observed() as calls:
            out = tp_all_reduce(ps, ae, CommTracker(), layer=3, site="attn")
        (e,) = calls
        assert e["site"] == "layer3.attn"
        assert e["scheme"] == "autoencoder"
        dense = ps[0].data + ps[1].data
        expected = float(np.linalg.norm(dense - out.data) / np.linalg.norm(dense))
        assert e["rel_l2"] == pytest.approx(expected, rel=1e-5)
        assert e["ratio"] == 32 / 8  # dense fp16 bytes over code bytes

    def test_pipeline_transfer_observes_boundary(self):
        x = Tensor(RNG.normal(size=(2, 4, 32)).astype(np.float32))
        with observed() as calls:
            pipeline_transfer(x, TopKCompressor(0.25), CommTracker(), boundary=1)
        (e,) = calls
        assert e["site"] == "boundary1" and e["group"] == "pp"
        assert e["residual_norm"] is None  # stateless scheme

    def test_error_feedback_residual_norm_recorded(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.25))
        x = Tensor(RNG.normal(size=(2, 4, 32)).astype(np.float32))
        with observed() as calls:
            pipeline_transfer(x, ef, CommTracker(), boundary=0)
        (e,) = calls
        assert e["scheme"] == "ef(topk)"
        assert e["residual_norm"] == pytest.approx(
            float(np.linalg.norm(ef.residual("boundary0"))))
        assert e["residual_norm"] > 0.0

    def test_no_probe_costs_nothing(self):
        """No active record: nothing is emitted (the one ``is None`` check)."""
        record = EventRecord(-1, 1)  # built, never installed
        assert events.active() is None
        tracker = CommTracker()
        tp_all_reduce(parts(), TopKCompressor(0.25), tracker)
        tp_all_reduce(parts(), AutoencoderCompressor(hidden=32, code_dim=8, seed=0),
                      tracker)
        assert tracker.events  # the tracker still logs the wire
        assert [e["kind"] for e in record.events] == ["meta"]

    def test_identity_paths_do_not_observe(self):
        with observed() as calls:
            tp_all_reduce(parts(), NoCompressor(), CommTracker())
            pipeline_transfer(Tensor(np.ones((2, 2), dtype=np.float32)),
                              NoCompressor(), CommTracker(), boundary=0)
        assert calls == []


class TestFidelityThroughFineTune:
    """Acceptance: a recorded smoke fine-tune's run file yields per-site
    fidelity metrics for at least one scheme from each compressor family."""

    @pytest.mark.parametrize("scheme,family", [
        ("T2", "topk"), ("R2", "randomk"), ("Q2", "quant"), ("A2", "autoencoder"),
    ])
    def test_each_family_produces_site_metrics(self, scheme, family):
        from repro.obs.metrics import RunRecorder, summarize
        from repro.training.finetune import finetune_on_task
        from repro.training.trainer import TrainConfig

        recorder = RunRecorder(run_id=f"smoke-{scheme}")
        finetune_on_task(
            "RTE", scheme=scheme, tp=2, pp=2,
            train_config=TrainConfig(epochs=1, lr=1e-3, seed=0, batch_size=64),
            seed=0, recorder=recorder,
        )
        assert recorder.records, "run telemetry must be captured"
        calls = [e for e in recorder.events if e["kind"] == "fidelity"]
        assert calls, "fidelity events must be captured"
        assert {e["group"] for e in calls} == {"tp", "pp"}
        assert all(family in e["scheme"] for e in calls)
        per_site = summarize(recorder.events)["fidelity"]
        assert set(per_site) == {e["site"] for e in calls}
        for agg in per_site.values():
            assert agg["steps"] == len(recorder.records)
            assert np.isfinite(agg["rel_l2_mean"])
            assert agg["ratio_mean"] > 1.0  # the wire message actually shrank

    def test_evaluation_adds_no_fidelity_to_the_run_file(self, tmp_path):
        """Eval forward passes run outside a recorder step, so the run
        file's fidelity is training's alone."""
        from repro.data.tasks import make_task
        from repro.obs.metrics import RunRecorder
        from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
        from repro.parallel.backend import load_events
        from repro.training.finetune import default_accuracy_model
        from repro.training.trainer import FineTuneTrainer, TrainConfig, evaluate_task

        model = ModelParallelBertClassifier(ModelParallelConfig(
            default_accuracy_model(num_layers=2), tp=2, pp=2, scheme="Q2", seed=0))
        train, evals = make_task("RTE", seq_len=16, seed=0, train_size=16)
        recorder = RunRecorder(stream_path=str(tmp_path / "run.jsonl"))
        FineTuneTrainer(model, TrainConfig(epochs=1, batch_size=8, seed=0),
                        recorder=recorder).train(train)
        assert events.active() is None  # handed back at the step's end

        def calls():
            return [e for e in load_events(recorder.stream_path)
                    if e["kind"] == "fidelity"]

        trained = calls()
        # 2 steps x (1 boundary + 2 tp ranks x 2 sites of stage 1's layer).
        assert len(trained) == 2 * (1 + 2 * 2)
        evaluate_task(model, evals["eval"])
        assert calls() == trained
