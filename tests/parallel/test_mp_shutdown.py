"""Shutdown regressions for the mp backend: bounded teardown, no shm
leaks on any path, and safety on partially-constructed backends.

Two of the three bugs here shipped: ``close()`` granted each process its
own join timeout (a gang of stuck workers serialized into world ×
timeout), and the terminate path could drop the shared-memory segment's
unlink when a worker died while attached.
"""

import glob
import json
import os
import pickle
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.parallel.backend import BackendError, create_backend, faults
from repro.parallel.backend.mp import MpBackend
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig

MP_TIMEOUT = 30.0


def make_model(dropout=0.0, tp=2, pp=1, dp=1):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=dropout, num_classes=2, seed=0)
    cfg = ModelParallelConfig(model=mc, tp=tp, pp=pp, dp=dp, scheme="w/o",
                              seed=0, backend="mp")
    return ModelParallelBertClassifier(cfg)


def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-rt-*"))


def assert_shm_unlinked(name: str) -> None:
    """The segment must be gone from the OS, not merely detached."""
    with pytest.raises(FileNotFoundError):
        seg = shared_memory.SharedMemory(name=name)
        seg.close()  # pragma: no cover - only on leak


class TestShutdown:
    def test_clean_close_unlinks_segment(self):
        backend = create_backend("mp", make_model(), timeout=MP_TIMEOUT)
        name = backend.transport.spec["name"]
        backend.close()
        assert_shm_unlinked(name)
        assert all(not p.is_alive() for p in backend._procs)

    def test_close_is_idempotent(self):
        backend = create_backend("mp", make_model(), timeout=MP_TIMEOUT)
        backend.close()
        backend.close()  # second call is a no-op, not an error

    def test_kill_then_close_does_not_leak_shm(self):
        """SIGKILL a worker while it is attached, then tear down."""
        backend = create_backend("mp", make_model(), timeout=10.0)
        name = backend.transport.spec["name"]
        victim = backend._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5.0)
        backend.close()
        assert_shm_unlinked(name)

    def test_error_path_close_unlinks_shm(self):
        """The gang a failed step tears down must not leak its segment."""
        backend = create_backend("mp", make_model(), timeout=10.0)
        name = backend.transport.spec["name"]
        os.kill(backend._procs[1].pid, signal.SIGKILL)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, size=(4, 16))
        labels = rng.integers(0, 2, size=(4,))
        with pytest.raises(BackendError):
            backend.train_step(ids, labels, None)
        assert backend._closed
        assert_shm_unlinked(name)

    def test_stuck_worker_shutdown_is_globally_bounded(self):
        """A wedged rank costs ~shutdown_timeout total, not per process.

        The worker is wedged deterministically: a step-fault delay much
        longer than the shutdown budget keeps it inside ``time.sleep``
        while ``close()`` runs.  With the old per-process ``join(0.1)``
        floor this still passed; the real regression guard is the global
        deadline — world × stuck must not serialize.
        """
        plan = json.dumps({"faults": [
            {"kind": "delay", "rank": r, "step": 0, "seconds": 30.0}
            for r in range(2)
        ]})
        saved = os.environ.get(faults.ENV_VAR)
        os.environ[faults.ENV_VAR] = plan
        try:
            backend = create_backend("mp", make_model(), timeout=MP_TIMEOUT,
                                     shutdown_timeout=1.0)
        finally:
            if saved is None:
                os.environ.pop(faults.ENV_VAR, None)
            else:
                os.environ[faults.ENV_VAR] = saved
        name = backend.transport.spec["name"]
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, size=(4, 16))
        labels = rng.integers(0, 2, size=(4,))
        # Fire the step but do not collect: every worker is now sleeping
        # 30s inside the injected delay and cannot see the shutdown.
        backend._send_all(("step", ids, labels, None, False))
        t0 = time.monotonic()
        backend.close()
        elapsed = time.monotonic() - t0
        # Budget: shutdown_timeout (1s) + shared 1s terminate grace +
        # slack.  The old per-process accounting would exceed this as
        # soon as more than a couple of ranks wedge.
        assert elapsed < 4.0, f"close() took {elapsed:.1f}s"
        assert all(not p.is_alive() for p in backend._procs)
        assert_shm_unlinked(name)

    def test_partially_constructed_backend_close_is_safe(self):
        """__init__ failing before spawn leaves close()/__del__ harmless."""
        with pytest.raises(BackendError, match="dropout"):
            MpBackend(make_model(dropout=0.1))
        # close() on a never-initialized instance must not raise either.
        MpBackend.__new__(MpBackend).close()


class TestStatePlaneLifetime:
    """Weights and gradients live in the backend's one segment; a step's
    result must not: it is read and pickled after ``close()``."""

    @pytest.mark.parametrize("path,tp,dp", [
        ("clean", 2, 1), ("clean", 1, 2), ("worker_error", 2, 1),
        ("killed_worker", 2, 1)])
    def test_result_outlives_the_segment(self, path, tp, dp):
        before = shm_segments()
        model = make_model(tp=tp, dp=dp)
        backend = create_backend("mp", model, timeout=10.0)
        name = backend.transport.spec["name"]
        # Exactly one segment per backend: mailboxes, barrier, weights and
        # gradient slabs all live in it.
        assert shm_segments() - before == {f"/dev/shm/{name}"}

        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, size=(4, 16))
        labels = rng.integers(0, 2, size=(4,))
        result = backend.train_step(ids, labels, None)
        backend.apply_grads(model, result)
        if path == "worker_error":
            with pytest.raises(BackendError, match="worker failed"):
                backend.train_step(ids + 1000, labels, None)  # off the vocab
            assert backend._closed
        elif path == "killed_worker":
            os.kill(backend._procs[1].pid, signal.SIGKILL)
            with pytest.raises(BackendError):
                backend.train_step(ids, labels, None)
            assert backend._closed
        # A view of the segment still out would make this raise BufferError.
        backend.close()

        assert_shm_unlinked(name)
        assert shm_segments() <= before
        restored = pickle.loads(pickle.dumps(result.grads))
        named = dict(model.named_parameters())
        assert set(restored) == {n for n, p in named.items()
                                 if p.grad is not None}
        for pname, g in restored.items():
            assert np.isfinite(g).all()
            assert np.array_equal(g, named[pname].grad)
