"""Communication tracking and compression plumbing in the MP runtime."""

import numpy as np
import pytest

from repro.compression import (
    AutoencoderCompressor,
    CompressionPolicy,
    NoCompressor,
    QuantizationCompressor,
    TopKCompressor,
)
from repro.nn.transformer import TransformerConfig
from repro.parallel import (
    CommTracker,
    ModelParallelBertClassifier,
    ModelParallelConfig,
)
from repro.parallel.collectives import pipeline_transfer, tp_all_reduce, tp_broadcast
from repro.tensor import Tensor

RNG = np.random.default_rng(0)


def small_config(**kw):
    defaults = dict(vocab_size=60, max_seq_len=16, hidden=32, num_layers=4,
                    num_heads=4, dropout=0.0)
    defaults.update(kw)
    return TransformerConfig(**defaults)


class TestCollectiveOps:
    def test_all_reduce_none_records_dense_bytes(self):
        tr = CommTracker()
        parts = [Tensor(RNG.normal(size=(2, 3, 8)).astype(np.float32)) for _ in range(4)]
        out = tp_all_reduce(parts, NoCompressor(), tr)
        np.testing.assert_allclose(out.data, sum(p.data for p in parts), rtol=1e-5)
        (e,) = tr.filtered(phase="forward")
        assert e.op == "all_reduce" and e.wire_bytes == 2 * 3 * 8 * 2 and e.world == 4

    def test_all_reduce_backward_event(self):
        tr = CommTracker()
        parts = [Tensor(RNG.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
                 for _ in range(2)]
        out = tp_all_reduce(parts, NoCompressor(), tr)
        out.sum().backward()
        assert tr.count(phase="backward", op="all_reduce") == 1

    def test_ae_all_reduce_sums_codes(self):
        """AE path: dec(Σ enc(xᵢ)) == Σ dec(enc(xᵢ)) by linearity."""
        tr = CommTracker()
        ae = AutoencoderCompressor(hidden=32, code_dim=8, seed=0)
        parts = [Tensor(RNG.normal(size=(2, 5, 32)).astype(np.float32)) for _ in range(2)]
        out = tp_all_reduce(parts, ae, tr)
        expected = sum(ae.roundtrip(p.data) for p in parts)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)
        (e,) = tr.filtered(phase="forward")
        assert e.op == "all_reduce"  # AE keeps the all-reduce path
        assert e.wire_bytes == 2 * 5 * 8 * 2  # code bytes, not activation bytes

    def test_sparse_scheme_takes_all_gather_path(self):
        tr = CommTracker()
        parts = [Tensor(RNG.normal(size=(2, 5, 32)).astype(np.float32)) for _ in range(2)]
        out = tp_all_reduce(parts, TopKCompressor(0.25), tr)
        (e,) = tr.filtered(phase="forward")
        assert e.op == "all_gather"
        # Sum of sparsified partials
        expected = sum(TopKCompressor(0.25).roundtrip(p.data) for p in parts)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_quant_backward_bytes_dense(self):
        """§3.3: quantization cannot shrink the backward message."""
        tr = CommTracker()
        q = QuantizationCompressor(4)
        parts = [Tensor(RNG.normal(size=(4, 32)).astype(np.float32), requires_grad=True)
                 for _ in range(2)]
        out = tp_all_reduce(parts, q, tr)
        out.sum().backward()
        (bwd,) = tr.filtered(phase="backward")
        assert bwd.wire_bytes == 4 * 32 * 2  # dense fp16
        (fwd,) = tr.filtered(phase="forward")
        assert fwd.wire_bytes < bwd.wire_bytes  # forward was compressed

    def test_world_one_is_silent(self):
        tr = CommTracker()
        x = Tensor(RNG.normal(size=(2, 4)).astype(np.float32))
        out = tp_all_reduce([x], TopKCompressor(0.1), tr)
        assert out is x
        assert tr.count() == 0

    def test_broadcast_backward_accounting(self):
        tr = CommTracker()
        x = Tensor(RNG.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        y = tp_broadcast(x, 4, tr)
        y.sum().backward()
        (e,) = tr.events
        assert e.phase == "backward" and e.op == "all_reduce"

    def test_broadcast_world_one_noop(self):
        tr = CommTracker()
        x = Tensor(np.zeros(3))
        assert tp_broadcast(x, 1, tr) is x

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            tp_all_reduce(
                [Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))],
                NoCompressor(), CommTracker(),
            )

    def test_empty_partials_rejected(self):
        with pytest.raises(ValueError):
            tp_all_reduce([], NoCompressor(), CommTracker())

    def test_pipeline_transfer_records_both_directions(self):
        tr = CommTracker()
        ae = AutoencoderCompressor(hidden=32, code_dim=8)
        x = Tensor(RNG.normal(size=(2, 5, 32)).astype(np.float32), requires_grad=True)
        y = pipeline_transfer(x, ae, tr, boundary=0)
        y.sum().backward()
        fwd = tr.filtered(group="pp", phase="forward")[0]
        bwd = tr.filtered(group="pp", phase="backward")[0]
        assert fwd.wire_bytes == 2 * 5 * 8 * 2
        assert bwd.wire_bytes == 2 * 5 * 8 * 2
        assert fwd.site == "boundary0"

    def test_pipeline_transfer_identity_keeps_values(self):
        tr = CommTracker()
        x = Tensor(RNG.normal(size=(2, 3, 4)).astype(np.float32))
        y = pipeline_transfer(x, NoCompressor(), tr, boundary=1)
        np.testing.assert_array_equal(y.data, x.data)
        assert tr.filtered()[0].wire_bytes == 2 * 3 * 4 * 2

    def test_summary_keys_are_sorted(self):
        """summary() must serialize stably (bench JSON diffs by key order)."""
        tr = CommTracker()
        # Record in deliberately unsorted group/phase order: pp before tp,
        # backward before forward.
        x = Tensor(RNG.normal(size=(2, 3, 32)).astype(np.float32), requires_grad=True)
        pipeline_transfer(x, NoCompressor(), tr, boundary=0).sum().backward()
        parts = [Tensor(RNG.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
                 for _ in range(2)]
        tp_all_reduce(parts, TopKCompressor(0.25), tr).sum().backward()
        keys = list(tr.summary())
        assert len(keys) >= 3
        assert keys == sorted(keys)

    def test_tracker_reset_and_totals(self):
        tr = CommTracker()
        parts = [Tensor(np.zeros((2, 2), dtype=np.float32))] * 2
        tp_all_reduce(parts, NoCompressor(), tr)
        assert tr.total_bytes(group="tp") == 8
        tr.reset()
        assert tr.count() == 0

    def test_filtered_rejects_unknown_attribute(self):
        tr = CommTracker()
        parts = [Tensor(np.zeros((2, 2), dtype=np.float32))] * 2
        tp_all_reduce(parts, NoCompressor(), tr)
        with pytest.raises(ValueError, match="unknown CommEvent attribute"):
            tr.filtered(phse="forward")  # typo must not read as "0 events"
        with pytest.raises(ValueError, match="wire_byte"):
            tr.total_bytes(wire_byte=8)

    def test_summary_groups_bytes(self):
        tr = CommTracker()
        parts = [Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
                 for _ in range(2)]
        out = tp_all_reduce(parts, NoCompressor(), tr)
        pipeline_transfer(out, NoCompressor(), tr, boundary=0)
        out.sum().backward()
        summary = tr.summary()
        assert summary[("tp", "forward", "none")] == 8
        assert summary[("tp", "backward", "none")] == 8
        assert summary[("pp", "forward", "none")] == 8

    def test_comm_event_invariants_enforced(self):
        from repro.parallel.collectives import CommEvent

        good = dict(op="all_reduce", group="tp", phase="forward", scheme="none",
                    wire_bytes=8, world=2, shape=(2, 2))
        CommEvent(**good)
        with pytest.raises(ValueError, match="unknown op"):
            CommEvent(**{**good, "op": "allreduce"})
        with pytest.raises(ValueError, match="unknown group"):
            CommEvent(**{**good, "group": "ep"})
        with pytest.raises(ValueError, match="unknown phase"):
            CommEvent(**{**good, "phase": "fwd"})
        with pytest.raises(ValueError, match="wire_bytes"):
            CommEvent(**{**good, "wire_bytes": -1})
        with pytest.raises(ValueError, match="world"):
            CommEvent(**{**good, "world": 1})


class TestRuntimeCompression:
    def test_event_counts_per_forward(self):
        cfg = small_config()
        mp = ModelParallelBertClassifier(ModelParallelConfig(cfg, tp=2, pp=2))
        ids = RNG.integers(0, 60, size=(2, 8))
        mp(ids)
        # 4 layers × 2 all-reduces + 1 pipeline boundary
        assert mp.tracker.count(op="all_reduce", phase="forward") == 8
        assert mp.tracker.count(group="pp", phase="forward") == 1

    def test_backward_events_after_loss(self):
        cfg = small_config()
        mp = ModelParallelBertClassifier(ModelParallelConfig(cfg, tp=2, pp=2))
        ids = RNG.integers(0, 60, size=(2, 8))
        mp.loss(ids, np.zeros(2, dtype=np.int64)).backward()
        # each layer: 2 g-backward all-reduces + 2 f-backward all-reduces
        assert mp.tracker.count(op="all_reduce", phase="backward") == 16
        assert mp.tracker.count(group="pp", phase="backward") == 1

    def test_ae_scheme_reduces_tp_bytes(self):
        cfg = small_config(num_layers=4)
        base = ModelParallelBertClassifier(ModelParallelConfig(cfg, tp=2, pp=1))
        comp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=2, pp=1, scheme="A2",
                                policy=CompressionPolicy.last_k(4, 2))
        )
        ids = RNG.integers(0, 60, size=(2, 8))
        base(ids)
        comp(ids)
        assert comp.tracker.total_bytes(group="tp", phase="forward") < \
            base.tracker.total_bytes(group="tp", phase="forward")

    def test_compressed_layers_only_where_policy_says(self):
        cfg = small_config(num_layers=4)
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=2, pp=1, scheme="A2",
                                policy=CompressionPolicy.last_k(4, 2))
        )
        ids = RNG.integers(0, 60, size=(2, 8))
        mp(ids)
        for e in mp.tracker.filtered(phase="forward", group="tp"):
            if e.layer in (2, 3):
                assert e.scheme == "autoencoder"
            else:
                assert e.scheme == "none"

    def test_ae_params_registered_and_droppable(self):
        cfg = small_config(num_layers=4)
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=2, pp=2, scheme="A2")
        )
        names = mp.backbone.compressor_parameter_names
        assert names, "AE parameters must be registered for joint training"
        assert all(n.startswith("compressor.") for n in names)
        clean = mp.backbone.model_state_dict()
        assert not any(k.startswith("compressor.") for k in clean)

    def test_sparse_scheme_has_no_learnable_params(self):
        cfg = small_config(num_layers=4)
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=2, pp=2, scheme="T1")
        )
        assert mp.backbone.compressor_parameter_names == []

    def test_ae_params_receive_gradients(self):
        cfg = small_config(num_layers=4)
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=2, pp=2, scheme="A2")
        )
        ids = RNG.integers(0, 60, size=(2, 8))
        mp.loss(ids, np.zeros(2, dtype=np.int64)).backward()
        comp_params = [
            p for n, p in mp.named_parameters() if "compressor." in n
        ]
        assert comp_params and all(p.grad is not None for p in comp_params)

    def test_boundary_policy_respected(self):
        """Last-half policy on 4 layers, PP=2: boundary after layer 1 feeds
        layer 2 (compressed) → boundary is compressed."""
        cfg = small_config(num_layers=4)
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=1, pp=2, scheme="A2",
                                policy=CompressionPolicy.last_k(4, 2))
        )
        ids = RNG.integers(0, 60, size=(2, 8))
        mp(ids)
        (e,) = mp.tracker.filtered(group="pp", phase="forward")
        assert e.scheme == "autoencoder"

    def test_uncompressed_boundary_when_policy_excludes(self):
        cfg = small_config(num_layers=4)
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=1, pp=2, scheme="A2",
                                policy=CompressionPolicy.last_k(4, 1))
        )
        ids = RNG.integers(0, 60, size=(2, 8))
        mp(ids)
        (e,) = mp.tracker.filtered(group="pp", phase="forward")
        assert e.scheme == "none"  # boundary feeds layer 2, not in policy

    def test_tp1_scheme_has_no_tp_compressors(self):
        """TP=1 rows in the paper only compress pipeline traffic."""
        cfg = small_config(num_layers=4)
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(cfg, tp=1, pp=4, scheme="A2")
        )
        keys = set(mp.backbone._site_compressors)
        assert all(k.startswith("boundary") for k in keys)
