"""Bitwise mid-run recovery: a run killed at step k and resumed from the
step-k checkpoint finishes identical to an unkilled run, on both
backends.

The full trainer snapshot (model + optimizer moments + LR scheduler step
+ per-site compressor runtime state + data-order RNG) is what makes this
exact — ``==`` on losses and ``array_equal`` on weights, not allclose.
The R2 scheme is used deliberately: Random-K carries advancing per-site
RNG streams, so forgetting runtime state in the checkpoint breaks this
test where a stateless scheme would hide it.
"""

import json
import os

import numpy as np
import pytest

from repro.compression.error_feedback import ErrorFeedbackCompressor
from repro.compression.randomk import RandomKCompressor
from repro.compression.topk import TopKCompressor
from repro.data.tasks import make_task
from repro.nn.transformer import TransformerConfig
from repro.parallel.backend import BackendError, create_backend, faults
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from repro.training import FineTuneTrainer, TrainConfig
from repro.training.checkpoint import load_trainer_state, save_trainer_state

MP_TIMEOUT = 30.0


def make_model(backend="inproc", scheme="R2"):
    mc = TransformerConfig(vocab_size=128, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=32, dropout=0.0, num_classes=2, seed=0)
    cfg = ModelParallelConfig(model=mc, tp=2, pp=2, scheme=scheme, seed=0,
                              backend=backend)
    return ModelParallelBertClassifier(cfg)


def assert_same_weights(a, b):
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data), f"weights diverged at {name}"


class TestInprocResume:
    @pytest.mark.parametrize("kill_at", [1, 3])
    def test_resume_is_bitwise_identical(self, tmp_path, kill_at):
        """Kill (via max_steps) mid-epoch and at an epoch boundary."""
        train, _ = make_task("SST-2", seed=0, train_size=32)
        tcfg = TrainConfig(epochs=2, batch_size=16, lr=2e-3, seed=0)
        ck = os.path.join(tmp_path, "ckpt")

        ref = FineTuneTrainer(make_model(), tcfg)
        hist_a = ref.train(train)  # 2 epochs x 2 steps

        killed = FineTuneTrainer(make_model(), tcfg)
        killed.train(train, checkpoint_path=ck, checkpoint_every=1,
                     max_steps=kill_at)

        resumed = FineTuneTrainer(make_model(), tcfg)
        hist_b = resumed.train(train, resume_from=ck)
        assert hist_b == hist_a[kill_at:]
        assert_same_weights(ref.model, resumed.model)

    def test_save_before_any_step_is_an_error(self, tmp_path):
        trainer = FineTuneTrainer(make_model(), TrainConfig(epochs=1, seed=0))
        with pytest.raises(RuntimeError, match="before any training step"):
            trainer.save_state(os.path.join(tmp_path, "ckpt"))


class TestMpKillAndResume:
    def test_injected_kill_then_resume_matches_unkilled_run(self, tmp_path):
        """The full chaos loop: fault-plan kill at step k, resume, compare."""
        train, _ = make_task("SST-2", seed=0, train_size=32)
        tcfg = TrainConfig(epochs=1, batch_size=16, lr=2e-3, seed=0)
        ck = os.path.join(tmp_path, "ckpt")
        kill_at = 1

        m_ref = make_model(backend="mp")
        b_ref = create_backend("mp", m_ref, timeout=MP_TIMEOUT)
        try:
            hist_a = FineTuneTrainer(m_ref, tcfg, backend=b_ref).train(train)
        finally:
            b_ref.close()

        plan = json.dumps({"faults": [
            {"kind": "kill", "rank": 3, "step": kill_at}]})
        saved = os.environ.get(faults.ENV_VAR)
        os.environ[faults.ENV_VAR] = plan
        try:
            m_killed = make_model(backend="mp")
            b_killed = create_backend("mp", m_killed, timeout=MP_TIMEOUT)
            try:
                with pytest.raises(BackendError) as err:
                    FineTuneTrainer(m_killed, tcfg, backend=b_killed).train(
                        train, checkpoint_path=ck, checkpoint_every=1)
                assert err.value.rank == 3
            finally:
                b_killed.close()
        finally:
            if saved is None:
                os.environ.pop(faults.ENV_VAR, None)
            else:
                os.environ[faults.ENV_VAR] = saved

        m_res = make_model(backend="mp")
        b_res = create_backend("mp", m_res, timeout=MP_TIMEOUT)
        try:
            hist_b = FineTuneTrainer(m_res, tcfg, backend=b_res).train(
                train, resume_from=ck)
        finally:
            b_res.close()
        assert hist_b == hist_a[kill_at:]
        assert_same_weights(m_ref, m_res)

    def test_mp_checkpoint_resumes_on_inproc_backend(self, tmp_path):
        """Snapshots are backend-portable: runtime state rides the file."""
        train, _ = make_task("SST-2", seed=0, train_size=32)
        tcfg = TrainConfig(epochs=1, batch_size=16, lr=2e-3, seed=0)
        ck = os.path.join(tmp_path, "ckpt")

        ref = FineTuneTrainer(make_model(), tcfg)
        hist_a = ref.train(train)

        m_mp = make_model(backend="mp")
        b_mp = create_backend("mp", m_mp, timeout=MP_TIMEOUT)
        try:
            FineTuneTrainer(m_mp, tcfg, backend=b_mp).train(
                train, checkpoint_path=ck, checkpoint_every=1, max_steps=1)
        finally:
            b_mp.close()

        resumed = FineTuneTrainer(make_model(), tcfg)
        hist_b = resumed.train(train, resume_from=ck)
        assert hist_b == hist_a[1:]
        assert_same_weights(ref.model, resumed.model)


def make_dp_model(backend, scheme="T2", tp=1):
    """dp2 × T2: the gradient wire carries per-replica EF residuals.  With
    tp2 × R2 each gang also owns Random-K activation streams (``dp{r}``)."""
    mc = TransformerConfig(vocab_size=128, hidden=32, num_layers=2, num_heads=4,
                           max_seq_len=32, dropout=0.0, num_classes=2, seed=0)
    cfg = ModelParallelConfig(model=mc, dp=2, tp=tp, scheme=scheme, seed=0,
                              backend=backend)
    return ModelParallelBertClassifier(cfg)


class TestDataParallelResume:
    """dp2 × T2 on both backends: the ``dp_grad`` EF residuals and the
    ``dp{r}`` namespaces ride the checkpoint, whichever backend wrote it."""

    TCFG = TrainConfig(epochs=1, batch_size=8, lr=2e-3, seed=0)  # 4 steps

    def run(self, backend_name, train, scheme="T2", tp=1, **train_kwargs):
        model = make_dp_model(backend_name, scheme, tp)
        kwargs = {"timeout": MP_TIMEOUT} if backend_name == "mp" else {}
        with create_backend(backend_name, model, **kwargs) as backend:
            hist = FineTuneTrainer(model, self.TCFG, backend=backend).train(
                train, **train_kwargs)
        return model, hist

    @pytest.mark.parametrize("backend_name", ["inproc", "mp"])
    def test_kill_at_step_k_then_resume_matches_unkilled_run(
            self, tmp_path, backend_name):
        train, _ = make_task("SST-2", seed=0, train_size=32)
        ck = os.path.join(tmp_path, "ckpt")
        kill_at = 2
        m_ref, hist_a = self.run(backend_name, train)

        if backend_name == "inproc":
            self.run("inproc", train, checkpoint_path=ck, checkpoint_every=1,
                     max_steps=kill_at)
        else:
            plan = json.dumps({"faults": [
                {"kind": "kill", "rank": 1, "step": kill_at}]})
            saved = os.environ.get(faults.ENV_VAR)
            os.environ[faults.ENV_VAR] = plan
            try:
                with pytest.raises(BackendError) as err:
                    self.run("mp", train, checkpoint_path=ck,
                             checkpoint_every=1)
                assert err.value.rank == 1
            finally:
                if saved is None:
                    os.environ.pop(faults.ENV_VAR, None)
                else:
                    os.environ[faults.ENV_VAR] = saved

        state = load_trainer_state(ck)
        assert state.global_step == kill_at
        assert set(state.runtime_state["dp_grad"]["residuals"]) == {
            "dp.rank0", "dp.rank1"}

        m_res, hist_b = self.run(backend_name, train, resume_from=ck)
        assert hist_b == hist_a[kill_at:]
        assert_same_weights(m_ref, m_res)

    @pytest.mark.parametrize("scheme,tp", [("T2", 1), ("R2", 2)])
    @pytest.mark.parametrize("writer,reader", [("mp", "inproc"),
                                               ("inproc", "mp")])
    def test_snapshot_is_backend_portable(self, tmp_path, writer, reader,
                                          scheme, tp):
        train, _ = make_task("SST-2", seed=0, train_size=32)
        ck = os.path.join(tmp_path, "ckpt")
        m_ref, hist_a = self.run(reader, train, scheme, tp)
        self.run(writer, train, scheme, tp, checkpoint_path=ck,
                 checkpoint_every=1, max_steps=2)

        runtime = load_trainer_state(ck).runtime_state
        assert set(runtime) == {"dp0", "dp1", "dp_grad"}
        if scheme == "R2":  # per-gang activation streams, not just the wire
            assert runtime["dp0"] and runtime["dp1"]

        m_res, hist_b = self.run(reader, train, scheme, tp, resume_from=ck)
        assert hist_b == hist_a[2:]
        assert_same_weights(m_ref, m_res)


class TestRuntimeStateUnits:
    def test_error_feedback_residuals_round_trip(self):
        """EF residuals are per-site state a resume must carry over."""
        ef = ErrorFeedbackCompressor(TopKCompressor(fraction=0.5))
        rng = np.random.default_rng(0)
        for site in ("layer0.attn", "layer1.mlp"):
            ef.compress(rng.normal(size=(4, 8)).astype(np.float32), site=site)
        state = ef.runtime_state()
        assert set(state["residuals"]) == {"layer0.attn", "layer1.mlp"}

        fresh = ErrorFeedbackCompressor(TopKCompressor(fraction=0.5))
        fresh.load_runtime_state(state)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        a = ef.compress(x, site="layer0.attn")
        b = fresh.compress(x, site="layer0.attn")
        np.testing.assert_array_equal(ef.decompress(a), fresh.decompress(b))

    def test_randomk_stream_round_trip(self):
        """Random-K selection streams advance per call; a fresh instance
        without the saved state would redraw the first selection."""
        rk = RandomKCompressor(fraction=0.5, seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 8)).astype(np.float32)
        rk.compress(x)  # advance the default site stream
        state = rk.runtime_state()
        assert "default" in state["rng"]

        fresh = RandomKCompressor(fraction=0.5, seed=0)
        fresh.load_runtime_state(state)
        a = rk.compress(x)
        b = fresh.compress(x)
        np.testing.assert_array_equal(a.payloads["indices"],
                                      b.payloads["indices"])
        np.testing.assert_array_equal(a.payloads["values"],
                                      b.payloads["values"])
        # ...whereas a truly fresh stream draws the *first* selection again.
        naive = RandomKCompressor(fraction=0.5, seed=0)
        assert not np.array_equal(naive.compress(x).payloads["indices"],
                                  a.payloads["indices"])

    def test_trainer_snapshot_preserves_runtime_state(self, tmp_path):
        path = os.path.join(tmp_path, "snap")
        runtime = {"layer0.attn": {"rng": {"state": 123}},
                   "boundary0": {"residuals": {"site": np.ones(3)}}}
        save_trainer_state(
            path,
            model_state={"w": np.arange(4, dtype=np.float32)},
            optimizer_state={"step_count": 2, "lr": 0.1, "slots": {}},
            schedule_state={"step": 2},
            data_rng_state={"bit_generator": "PCG64", "state": {"state": 1}},
            runtime_state=runtime,
            global_step=2, epoch=0, step_in_epoch=2,
        )
        state = load_trainer_state(path)
        assert state.global_step == 2 and state.step_in_epoch == 2
        assert state.runtime_state["layer0.attn"] == {"rng": {"state": 123}}
        np.testing.assert_array_equal(
            state.runtime_state["boundary0"]["residuals"]["site"], np.ones(3))
