"""mp backend vs inproc oracle: bitwise equivalence and failure surfacing.

The contract under test (DESIGN.md "Execution backends"): same seed and
batch through either backend produce *identical* losses, gradients and
``CommTracker`` accounting — ``==`` and ``array_equal``, not allclose.
Worker death must surface as a typed :class:`BackendError` naming the
failing rank, never a hang.
"""

import os
import signal
import time
from collections import Counter

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.optim import Adam
from repro.parallel.backend import BackendError, create_backend
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from tests.parallel.helpers import reference_step

#: Keep mp gangs cheap: 2-4 workers on a tiny model, 30s step deadline.
MP_TIMEOUT = 30.0


def make_model(scheme, tp, pp, dropout=0.0):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=dropout, num_classes=3)
    cfg = ModelParallelConfig(model=mc, tp=tp, pp=pp, scheme=scheme, seed=0,
                              backend="inproc")
    return ModelParallelBertClassifier(cfg)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 64, size=(4, 12))
    labels = rng.integers(0, 3, size=(4,))
    mask = np.ones((4, 12), dtype=np.int64)
    return ids, labels, mask


def event_key(e):
    return (e.op, e.group, e.phase, e.scheme, e.wire_bytes, e.world, e.shape,
            e.layer, e.site)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("tp,pp,scheme", [
        (2, 2, "A2"),   # acceptance case: 2x2 with the AE scheme
        (2, 1, "T2"),   # pure TP, top-k collectives
        (1, 2, "Q2"),   # pure PP, quantized boundary
        (2, 2, "R2"),   # random-k: exercises the per-site RNG streams
        (2, 2, "w/o"),  # dense all-gather + raw boundary transfer
    ])
    def test_single_step_matches_oracle_bitwise(self, tp, pp, scheme):
        ids, labels, mask = make_batch()
        oracle_model = make_model(scheme, tp, pp)
        mp_model = make_model(scheme, tp, pp)

        oracle = create_backend("inproc", oracle_model)
        ref = oracle.train_step(ids, labels, mask)

        backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
        try:
            got = backend.train_step(ids, labels, mask)
        finally:
            backend.close()

        assert got.loss == ref.loss  # bitwise, not allclose

        ref_grads = {n: p.grad for n, p in oracle_model.named_parameters()
                     if p.grad is not None}
        assert set(got.grads) == set(ref_grads)
        for name in sorted(ref_grads):
            assert np.array_equal(got.grads[name], ref_grads[name]), name

        # Byte accounting matches event-for-event (order-insensitive).
        assert Counter(map(event_key, got.events)) == \
            Counter(map(event_key, ref.events))
        assert mp_model.tracker.summary() == oracle_model.tracker.summary()

    def test_three_training_steps_keep_weights_identical(self):
        """Full loop: grads applied, Adam steps, weights pushed back out."""
        oracle_model = make_model("A2", 2, 2)
        mp_model = make_model("A2", 2, 2)
        oracle = create_backend("inproc", oracle_model)
        backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
        opt_ref = Adam(oracle_model.parameters(), lr=1e-3)
        opt_got = Adam(mp_model.parameters(), lr=1e-3)
        try:
            for step in range(3):
                ids, labels, mask = make_batch(seed=step)

                ref = reference_step(oracle, oracle_model, opt_ref,
                                     ids, labels, mask)
                got = backend.step(ids, labels, mask, opt_got)

                assert got.loss == ref.loss, f"step {step}"
        finally:
            backend.close()

        ref_state = oracle_model.state_dict()
        got_state = mp_model.state_dict()
        assert set(ref_state) == set(got_state)
        for name in sorted(ref_state):
            assert np.array_equal(ref_state[name], got_state[name]), name

    def test_step_clips_like_the_reference_loop(self):
        """``grad_norm`` is the reference loop's ``clip_grad_norm`` on the
        same batch, and None when ``step`` is given no bound."""
        ids, labels, mask = make_batch()
        oracle_model = make_model("T2", 2, 1)
        mp_model = make_model("T2", 2, 1)
        oracle = create_backend("inproc", oracle_model)
        opt_ref = Adam(oracle_model.parameters(), lr=1e-3)
        opt_got = Adam(mp_model.parameters(), lr=1e-3)
        clipped = reference_step(oracle, oracle_model, opt_ref, ids, labels,
                                 mask, max_grad_norm=1.0)
        reference_step(oracle, oracle_model, opt_ref, ids, labels, mask)
        with create_backend("mp", mp_model, timeout=MP_TIMEOUT) as backend:
            got = backend.step(ids, labels, mask, opt_got, max_grad_norm=1.0)
            unclipped = backend.step(ids, labels, mask, opt_got)
        assert clipped.grad_norm is not None
        assert got.grad_norm == clipped.grad_norm
        assert unclipped.grad_norm is None
        ref_state = oracle_model.state_dict()
        for name, value in mp_model.state_dict().items():
            assert np.array_equal(value, ref_state[name]), name


class TestFailureSurfacing:
    def test_killed_worker_raises_backend_error_naming_rank(self):
        """SIGKILL one rank mid-gang: typed error, correct rank, no hang."""
        model = make_model("w/o", 2, 2)
        backend = create_backend("mp", model, timeout=10.0)
        victim = 3
        try:
            os.kill(backend._procs[victim].pid, signal.SIGKILL)
            backend._procs[victim].join(5.0)
            ids, labels, mask = make_batch()
            start = time.monotonic()
            with pytest.raises(BackendError) as exc:
                backend.train_step(ids, labels, mask)
            elapsed = time.monotonic() - start
            assert exc.value.rank == victim
            assert f"rank {victim}" in str(exc.value)
            assert elapsed < 25.0  # bounded by timeout + teardown, not a hang
        finally:
            backend.close()

    def test_backend_not_reusable_after_failure(self):
        model = make_model("w/o", 2, 1)
        backend = create_backend("mp", model, timeout=10.0)
        try:
            os.kill(backend._procs[0].pid, signal.SIGKILL)
            backend._procs[0].join(5.0)
            ids, labels, mask = make_batch()
            with pytest.raises(BackendError):
                backend.train_step(ids, labels, mask)
            with pytest.raises(BackendError, match="closed"):
                backend.train_step(ids, labels, mask)
        finally:
            backend.close()

    def test_dropout_is_rejected_up_front(self):
        model = make_model("w/o", 2, 1, dropout=0.1)
        with pytest.raises(BackendError, match="dropout"):
            create_backend("mp", model)

    def test_unknown_backend_name_rejected(self):
        model = make_model("w/o", 1, 2)
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("cuda", model)


class TestConfigWiring:
    def test_env_var_sets_default_backend(self, monkeypatch):
        mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2,
                               num_heads=4, max_seq_len=16, dropout=0.0,
                               num_classes=2)
        monkeypatch.setenv("REPRO_BACKEND", "mp")
        assert ModelParallelConfig(model=mc, tp=1, pp=2).backend == "mp"
        monkeypatch.delenv("REPRO_BACKEND")
        assert ModelParallelConfig(model=mc, tp=1, pp=2).backend == "inproc"
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError, match="backend"):
            ModelParallelConfig(model=mc, tp=1, pp=2)

    def test_explicit_backend_overrides_env(self, monkeypatch):
        mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2,
                               num_heads=4, max_seq_len=16, dropout=0.0,
                               num_classes=2)
        monkeypatch.setenv("REPRO_BACKEND", "mp")
        cfg = ModelParallelConfig(model=mc, tp=1, pp=2, backend="inproc")
        assert cfg.backend == "inproc"
