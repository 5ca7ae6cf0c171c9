"""The mp backend's shared-memory state plane: weights and gradients.

Parameters and gradients never cross the control pipe; the parent writes
the weights arena, each worker writes the gradients it owns into its dp
gang's slab, and nothing but the pipe's FIFO order guards either.  The
tests here turn that ordering argument into something that fails:

- poison: every slab is NaN-filled between steps, so a byte the parent
  reads without the owning rank having rewritten it this step shows up as
  a NaN against the inproc oracle;
- a worker that updates a parameter in place hits a read-only view, and
  the parent gets a typed error naming the rank;
- a gradient written by two ranks of one gang is a typed error too, not a
  silent pick between them.

Each parameter-sized weight vector has one home per process: the parent's
parameters are the arena until ``close()`` hands them private copies, and
the oracle's dp replicas read the model's own arrays.
"""

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.optim import Adam
from repro.parallel.backend import BackendError, create_backend
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from tests.parallel.helpers import reference_step

MP_TIMEOUT = 30.0


class RankLocalUpdate(ModelParallelBertClassifier):
    """Nudges a weight in place mid-step, as a rank-owned optimizer would."""

    def loss_from_hidden(self, hidden, labels):
        self.classifier.weight.data *= 1.0
        return super().loss_from_hidden(hidden, labels)


class TiedHead(ModelParallelBertClassifier):
    """Ties a stage-0 parameter into the last stage's loss."""

    def loss_from_hidden(self, hidden, labels):
        tie = self.backbone.embed_ln.weight.sum() * 0.0
        return super().loss_from_hidden(hidden, labels) + tie


def make_model(cls=ModelParallelBertClassifier, scheme="w/o", **grid):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=3)
    cfg = ModelParallelConfig(model=mc, scheme=scheme, seed=0,
                              backend="inproc", **grid)
    return cls(cfg)


def make_batch(seed=0, batch=8):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 64, size=(batch, 12))
    labels = rng.integers(0, 3, size=(batch,))
    mask = np.ones((batch, 12), dtype=np.int64)
    return ids, labels, mask


def poison_slabs(backend):
    for gang in range(backend.dp):
        for view in backend.transport.grad_slab(gang).values():
            view.fill(np.nan)


class TestPoisonedSlabs:
    @pytest.mark.parametrize("scheme,grid", [
        ("T2", dict(dp=2)),
        ("Q2", dict(tp=2, pp=2)),
        ("w/o", dict(pp=2, pipeline_schedule="1f1b", num_microbatches=4)),
    ], ids=["dp2", "tp2pp2", "tp1pp2-1f1b-m4"])
    def test_every_byte_read_was_written_this_step(self, scheme, grid):
        oracle_model = make_model(scheme=scheme, **grid)
        mp_model = make_model(scheme=scheme, **grid)
        oracle = create_backend("inproc", oracle_model)
        backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
        opt_ref = Adam(oracle_model.parameters(), lr=1e-3)
        opt_got = Adam(mp_model.parameters(), lr=1e-3)
        try:
            for step in range(3):
                poison_slabs(backend)
                ids, labels, mask = make_batch(seed=step)
                ref = reference_step(oracle, oracle_model, opt_ref,
                                     ids, labels, mask)
                got = backend.step(ids, labels, mask, opt_got)

                assert got.loss == ref.loss  # bitwise, not allclose
                ref_grads = {n: p.grad for n, p in
                             oracle_model.named_parameters()
                             if p.grad is not None}
                assert set(got.grads) == set(ref_grads)
                for name, g in ref_grads.items():
                    assert np.array_equal(got.grads[name], g), (step, name)
        finally:
            backend.close()


class TestOwnership:
    def test_in_place_parameter_write_names_the_rank(self):
        """Rank 1 holds the head; its weights are read-only arena views."""
        model = make_model(RankLocalUpdate, pp=2)
        backend = create_backend("mp", model, timeout=MP_TIMEOUT,
                                 shutdown_timeout=1.0)
        try:
            with pytest.raises(BackendError, match="read-only") as err:
                backend.train_step(*make_batch())
        finally:
            backend.close()
        assert err.value.rank == 1
        # The same model is fine where parameters are ordinary arrays.
        create_backend("inproc", model).train_step(*make_batch())

    def test_gradient_written_by_two_ranks_is_an_error(self):
        model = make_model(TiedHead, pp=2)
        backend = create_backend("mp", model, timeout=MP_TIMEOUT)
        try:
            with pytest.raises(BackendError,
                               match="embed_ln.weight.*ranks 0 and 1") as err:
                backend.train_step(*make_batch())
        finally:
            backend.close()
        assert err.value.rank == 1
        assert backend._closed

    def test_workers_compute_on_the_bytes_the_parent_wrote(self):
        """No message carries weights, and the parent's parameters are the
        arena: an in-place write reaches the next step; ``load_state_dict``
        rebinds them off the arena, so it is invisible until
        ``sync_weights``."""
        model = make_model(tp=2)
        batch = make_batch()
        start = model.state_dict()
        with create_backend("mp", model, timeout=MP_TIMEOUT) as backend:
            base = backend.train_step(*batch).loss
            model.classifier.weight.data += 0.5
            moved = backend.train_step(*batch).loss
            assert moved != base
            model.load_state_dict(start)
            assert backend.train_step(*batch).loss == moved
            backend.sync_weights(model)
            assert backend.train_step(*batch).loss == base
        oracle = create_backend("inproc", model)
        assert oracle.train_step(*batch).loss == base
        model.classifier.weight.data += 0.5
        assert oracle.train_step(*batch).loss == moved


class TestOneWeightCopy:
    def test_close_hands_every_parameter_a_private_copy(self):
        """Parameters are arena views while the gang runs; after ``close()``
        none shares memory with the segment, and the model trains on
        ``inproc`` and evaluates as any other model."""
        model = make_model(pp=2)
        optimizer = Adam(model.parameters(), lr=1e-3)
        backend = create_backend("mp", model, timeout=MP_TIMEOUT)
        backend.step(*make_batch(), optimizer)
        arena = backend.transport.weights
        segment = {name: (view.ctypes.data, view.ctypes.data + view.nbytes)
                   for name, view in arena.items()}
        params = dict(model.named_parameters())
        assert all(params[name].data is view for name, view in arena.items())
        del arena
        backend.close()
        for name, p in params.items():
            lo, hi = segment[name]
            assert not lo <= p.data.ctypes.data < hi, name
            assert p.data.flags.owndata and p.data.flags.writeable, name
        inproc = create_backend("inproc", model)
        for step in range(2):
            assert np.isfinite(inproc.step(*make_batch(seed=step), optimizer).loss)
        ids, _, mask = make_batch()
        assert model.predict(ids, mask).shape == (len(ids),)

    def test_inproc_dp_replicas_share_the_model_weights(self):
        model = make_model(dp=2)
        backend = create_backend("inproc", model)
        replica = backend._replicas[1]

        def shared():
            return all(np.shares_memory(p.data, q.data) for (_, p), (_, q)
                       in zip(model.named_parameters(), replica.named_parameters()))

        assert shared()
        moved = {name: w + 0.5 for name, w in model.state_dict().items()}
        model.load_state_dict(moved)
        assert not shared()
        backend.sync_weights(model)
        assert shared()
        for name, q in replica.named_parameters():
            assert np.array_equal(q.data, moved[name]), name
