"""EF wrapper in the collectives: per-rank residuals, byte accounting, and
compressor parameter registration without name collisions."""

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.compression.error_feedback import ErrorFeedbackCompressor
from repro.nn.module import Parameter
from repro.nn.transformer import TransformerConfig
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.collectives import CommTracker, pipeline_transfer, tp_all_reduce
from repro.tensor import Tensor

RNG = np.random.default_rng(5)


class TestEFAcrossTPRanks:
    def test_all_gather_path_keys_residuals_per_rank(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.25))
        parts = [Tensor(RNG.normal(size=(2, 4, 8)).astype(np.float32))
                 for _ in range(2)]
        tp_all_reduce(parts, ef, CommTracker(), layer=2, site="mlp")
        assert set(ef._residuals) == {"layer2.mlp.rank0", "layer2.mlp.rank1"}

    def test_rank_residual_matches_that_ranks_partial(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.25))
        parts = [Tensor(RNG.normal(size=(2, 4, 8)).astype(np.float32))
                 for _ in range(2)]
        tp_all_reduce(parts, ef, CommTracker(), layer=0, site="attn")
        for rank, p in enumerate(parts):
            expected = p.data - ef.inner.decompress(ef.inner.compress(p.data))
            np.testing.assert_allclose(
                ef.residual(f"layer0.attn.rank{rank}"), expected, rtol=1e-6
            )

    def test_two_steps_accumulate_independently(self):
        """Each rank's second message must be corrected by its *own* residual:
        the summed output differs from a stateless double-call."""
        stateless = TopKCompressor(0.25)
        ef = ErrorFeedbackCompressor(TopKCompressor(0.25))
        data = [RNG.normal(size=(2, 4, 8)).astype(np.float32) for _ in range(2)]
        tr = CommTracker()
        tp_all_reduce([Tensor(d) for d in data], ef, tr, layer=1, site="mlp")
        r1 = {rank: ef.residual(f"layer1.mlp.rank{rank}").copy()
              for rank in range(2)}
        out2 = tp_all_reduce([Tensor(d) for d in data], ef, tr, layer=1, site="mlp")
        plain = sum(stateless.roundtrip(d) for d in data)
        assert not np.allclose(out2.data, plain)  # residuals fed forward
        # Step 2 compresses each rank's d + its own step-1 residual.
        expected = sum(stateless.roundtrip(d + r1[rank])
                       for rank, d in enumerate(data))
        np.testing.assert_allclose(out2.data, expected, rtol=1e-5)


class TestEFByteAccounting:
    def test_pipeline_transfer_bytes_and_scheme_label(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.25))
        tr = CommTracker()
        shape = (2, 4, 32)
        x = Tensor(RNG.normal(size=shape).astype(np.float32), requires_grad=True)
        y = pipeline_transfer(x, ef, tr, boundary=0)
        y.sum().backward()
        fwd = tr.filtered(group="pp", phase="forward")[0]
        bwd = tr.filtered(group="pp", phase="backward")[0]
        # EF changes *what* is compressed, never the wire format: the events
        # must carry the inner compressor's sizes under the ef(...) label.
        inner = TopKCompressor(0.25)
        assert fwd.scheme == "ef(topk)" and bwd.scheme == "ef(topk)"
        assert fwd.wire_bytes == inner.compressed_bytes(shape)
        assert bwd.wire_bytes == inner.backward_bytes(shape)

    def test_summary_groups_ef_traffic_under_its_label(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.25))
        tr = CommTracker()
        x = Tensor(RNG.normal(size=(2, 4, 32)).astype(np.float32), requires_grad=True)
        parts = [Tensor(RNG.normal(size=(2, 4, 32)).astype(np.float32))
                 for _ in range(2)]
        tp_all_reduce(parts, ef, tr, layer=0, site="attn")
        pipeline_transfer(x, ef, tr, boundary=0).sum().backward()
        summary = tr.summary()
        inner = TopKCompressor(0.25)
        assert summary[("tp", "forward", "ef(topk)")] == inner.compressed_bytes((2, 4, 32))
        assert summary[("pp", "forward", "ef(topk)")] == inner.compressed_bytes((2, 4, 32))
        assert summary[("pp", "backward", "ef(topk)")] == inner.backward_bytes((2, 4, 32))


class _ThreeParamCompressor:
    """Minimal stateful compressor with a third learnable tensor (e.g. a
    bias): the registration regression's trigger."""

    name = "fake3"
    learnable = True
    allreduce_compatible = False

    def __init__(self):
        self.encoder = Parameter(np.zeros((4, 2), dtype=np.float32))
        self.decoder = Parameter(np.zeros((2, 4), dtype=np.float32))
        self.bias = Parameter(np.zeros(4, dtype=np.float32))

    def parameters(self):
        return [self.encoder, self.decoder, self.bias]


class TestCompressorParamRegistration:
    def small(self, **kw):
        return TransformerConfig(vocab_size=60, max_seq_len=16, hidden=32,
                                 num_layers=4, num_heads=4, dropout=0.0, **kw)

    def test_extra_parameters_get_unique_names(self):
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(self.small(), tp=1, pp=1)
        )
        backbone = mp.backbone
        comp = _ThreeParamCompressor()
        backbone._site_compressors["layer0.attn"] = comp
        backbone._add_compressor_params()
        names = backbone.compressor_parameter_names
        assert len(names) == 3
        assert len(set(names)) == 3, f"colliding names: {names}"
        assert "compressor.layer0.attn.encoder" in names
        assert "compressor.layer0.attn.decoder" in names
        # the third parameter must not silently shadow the decoder
        registered = dict(backbone.named_parameters())
        assert registered["compressor.layer0.attn.param2"] is comp.bias

    def test_duplicate_registration_is_loud(self):
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(self.small(), tp=1, pp=1)
        )
        backbone = mp.backbone
        backbone._site_compressors["layer0.attn"] = _ThreeParamCompressor()
        backbone._add_compressor_params()
        with pytest.raises(ValueError, match="duplicate compressor parameter"):
            backbone._add_compressor_params()  # same names again

    def test_ae_sites_register_all_params_without_loss(self):
        mp = ModelParallelBertClassifier(
            ModelParallelConfig(self.small(), tp=2, pp=2, scheme="A2")
        )
        names = mp.backbone.compressor_parameter_names
        sites = set(mp.backbone._site_compressors)
        # every AE site contributes exactly encoder + decoder
        assert len(names) == 2 * len(sites)
        assert len(set(names)) == len(names)
