"""Unit tests for every compressor: message face, graph face, byte accounting."""

import tracemalloc

import numpy as np
import pytest

from repro.compression import (
    AutoencoderCompressor,
    CompressedMessage,
    ErrorFeedbackCompressor,
    NoCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    TopKCompressor,
    available_compressors,
    make_compressor,
)
from repro.compression.quantization import pack_bits, unpack_bits
from repro.compression.topk import topk_mask
from repro.tensor import Tensor

RNG = np.random.default_rng(0)


class TestRegistry:
    def test_all_families_registered(self):
        names = available_compressors()
        for expected in ["none", "topk", "randomk", "quantization", "autoencoder"]:
            assert expected in names

    def test_make_by_name(self):
        c = make_compressor("topk", fraction=0.1)
        assert isinstance(c, TopKCompressor)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_compressor("nope")


class TestNoCompressor:
    def test_identity_roundtrip(self):
        x = RNG.normal(size=(3, 4)).astype(np.float32)
        c = NoCompressor()
        np.testing.assert_array_equal(c.roundtrip(x), x)
        assert c.compress(x).wire_bytes == x.size * 2
        assert c.ratio(x.shape) == 1.0
        assert c.reconstruction_error(x) == 0.0

    def test_apply_is_passthrough(self):
        c = NoCompressor()
        t = Tensor(np.ones(3))
        assert c.apply(t) is t


class TestTopK:
    def test_keeps_largest(self):
        x = np.array([[1.0, -9.0, 2.0], [0.1, 5.0, -0.5]], dtype=np.float32)
        c = TopKCompressor(fraction=2 / 6)
        out = c.roundtrip(x)
        expected = np.zeros_like(x)
        expected[0, 1] = -9.0
        expected[1, 1] = 5.0
        np.testing.assert_array_equal(out, expected)

    def test_mask_count(self):
        x = RNG.normal(size=(10, 10)).astype(np.float32)
        mask = topk_mask(x, 7)
        assert mask.sum() == 7

    def test_wire_bytes(self):
        c = TopKCompressor(fraction=0.1)
        msg = c.compress(RNG.normal(size=(100,)).astype(np.float32))
        assert msg.wire_bytes == 10 * (2 + 4)
        assert c.compressed_bytes((100,)) == msg.wire_bytes

    def test_ratio_below_keep_reciprocal(self):
        # 6 bytes/kept element vs 2 bytes/element dense: ratio = 1/(3f)
        c = TopKCompressor(fraction=0.1)
        assert c.ratio((1000,)) == pytest.approx(1 / 0.3, rel=1e-3)

    def test_apply_gradient_masked(self):
        x = Tensor(np.array([3.0, -1.0, 0.5, 2.0], dtype=np.float32).reshape(1, 4),
                   requires_grad=True)
        c = TopKCompressor(fraction=0.5)
        c.apply(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0, 1.0]])

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            TopKCompressor(0.0)
        with pytest.raises(ValueError):
            TopKCompressor(1.5)

    def test_full_fraction_identity(self):
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        np.testing.assert_array_equal(TopKCompressor(1.0).roundtrip(x), x)


class TestRandomK:
    def test_keeps_k_entries(self):
        x = RNG.normal(size=(20, 5)).astype(np.float32)
        c = RandomKCompressor(fraction=0.2, seed=1)
        out = c.roundtrip(x)
        assert (out != 0).sum() <= 20  # k = 20 of 100 (some x could be 0)
        kept = out != 0
        np.testing.assert_array_equal(out[kept], x[kept])

    def test_unbiased_rescale_roundtrip(self):
        x = np.ones((10, 10), dtype=np.float32)
        c = RandomKCompressor(fraction=0.5, seed=0, unbiased=True)
        msg = c.compress(x)
        np.testing.assert_allclose(msg.payloads["values"], 2.0)
        out = c.decompress(msg)
        np.testing.assert_allclose(out[out != 0], 1.0)

    def test_unbiased_in_expectation(self):
        x = RNG.normal(size=(50,)).astype(np.float32)
        total = np.zeros_like(x)
        n = 1200
        c = RandomKCompressor(fraction=0.25, seed=3, unbiased=True)
        for _ in range(n):
            t = c.apply(Tensor(x))
            total += t.data
        # std of the mean is sqrt(3)|x|/sqrt(n); 5 sigma on |x|<=3 is ~0.45
        np.testing.assert_allclose(total / n, x, atol=0.45)

    def test_selection_varies_between_calls(self):
        c = RandomKCompressor(fraction=0.1, seed=0)
        a = c.compress(np.ones(100, dtype=np.float32)).payloads["indices"]
        b = c.compress(np.ones(100, dtype=np.float32)).payloads["indices"]
        assert not np.array_equal(a, b)

    def test_wire_bytes_match_topk(self):
        assert RandomKCompressor(0.1).compressed_bytes((100,)) == TopKCompressor(
            0.1
        ).compressed_bytes((100,))


class TestQuantization:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_roundtrip_error_bounded(self, bits):
        x = RNG.normal(size=(16, 64)).astype(np.float32)
        c = QuantizationCompressor(bits, group_size=64)
        err = np.abs(c.roundtrip(x) - x)
        # Max error is half a quantization step per group.
        grouped = x.reshape(-1, 64)
        step = (grouped.max(1) - grouped.min(1)) / (2**bits - 1)
        assert (err.reshape(-1, 64).max(1) <= step / 2 + 1e-6).all()

    def test_more_bits_less_error(self):
        x = RNG.normal(size=(8, 256)).astype(np.float32)
        errs = [QuantizationCompressor(b).reconstruction_error(x) for b in (2, 4, 8)]
        assert errs[0] > errs[1] > errs[2]

    def test_wire_bytes_packed(self):
        c = QuantizationCompressor(4, group_size=128)
        msg = c.compress(RNG.normal(size=(256,)).astype(np.float32))
        # 256 codes at 4 bits = 128 bytes + 2 groups × 2 params × 2 bytes
        assert msg.wire_bytes == 128 + 8
        assert c.compressed_bytes((256,)) == msg.wire_bytes

    def test_constant_group_handled(self):
        x = np.full((256,), 3.14, dtype=np.float32)
        c = QuantizationCompressor(2)
        np.testing.assert_allclose(c.roundtrip(x), x, rtol=1e-5)

    def test_pack_unpack_roundtrip(self):
        for bits in (2, 4, 8):
            codes = RNG.integers(0, 2**bits, size=37).astype(np.uint8)
            packed = pack_bits(codes, bits)
            np.testing.assert_array_equal(unpack_bits(packed, bits, 37), codes)

    def test_pack_rejects_odd_bits(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros(4, dtype=np.uint8), 3)

    def test_apply_straight_through(self):
        x = Tensor(RNG.normal(size=(4, 256)).astype(np.float32), requires_grad=True)
        c = QuantizationCompressor(4)
        c.apply(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((4, 256)))

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            QuantizationCompressor(3)
        with pytest.raises(ValueError):
            QuantizationCompressor(4, group_size=0)

    def test_nonmultiple_size_padding(self):
        x = RNG.normal(size=(100,)).astype(np.float32)  # not a multiple of 256
        c = QuantizationCompressor(8)
        out = c.roundtrip(x)
        assert out.shape == x.shape
        assert np.abs(out - x).max() < 0.05


class TestAutoencoder:
    def test_message_is_code(self):
        ae = AutoencoderCompressor(hidden=32, code_dim=8, seed=0)
        x = RNG.normal(size=(2, 5, 32)).astype(np.float32)
        msg = ae.compress(x)
        assert msg.payloads["code"].shape == (2, 5, 8)
        assert msg.wire_bytes == 2 * 5 * 8 * 2
        assert ae.decompress(msg).shape == x.shape

    def test_ratio_is_h_over_c(self):
        ae = AutoencoderCompressor(hidden=64, code_dim=8)
        assert ae.ratio((3, 7, 64)) == pytest.approx(8.0)

    def test_allreduce_compatible_flag(self):
        assert AutoencoderCompressor(16, 4).allreduce_compatible
        assert not TopKCompressor(0.1).allreduce_compatible
        assert not QuantizationCompressor(4).allreduce_compatible

    def test_orthonormal_init_roundtrip_projects(self):
        """Initial enc/dec behave as an orthogonal projection (Px = PPx)."""
        ae = AutoencoderCompressor(hidden=32, code_dim=8, seed=1)
        x = RNG.normal(size=(4, 32)).astype(np.float32)
        once = ae.roundtrip(x)
        twice = ae.roundtrip(once)
        np.testing.assert_allclose(once, twice, atol=1e-4)

    def test_learnable_params_receive_grads(self):
        ae = AutoencoderCompressor(hidden=16, code_dim=4, seed=0)
        x = Tensor(RNG.normal(size=(2, 3, 16)).astype(np.float32), requires_grad=True)
        ae.apply(x).sum().backward()
        assert ae.encoder.grad is not None
        assert ae.decoder.grad is not None
        assert x.grad is not None

    def test_training_reduces_reconstruction_error(self):
        """The AE learns to reconstruct structured activations."""
        from repro.optim import Adam

        rng = np.random.default_rng(0)
        basis = rng.normal(size=(6, 32)).astype(np.float32)
        ae = AutoencoderCompressor(hidden=32, code_dim=8, seed=0)
        opt = Adam(ae.parameters(), lr=1e-2)

        def batch():
            coef = rng.normal(size=(64, 6)).astype(np.float32)
            return coef @ basis  # rank-6 signal in R^32

        x0 = batch()
        err_before = ae.reconstruction_error(x0)
        for _ in range(200):
            x = Tensor(batch())
            opt.zero_grad()
            recon = ae.apply(x)
            loss = ((recon - x) ** 2).mean()
            loss.backward()
            opt.step()
        err_after = ae.reconstruction_error(x0)
        assert err_after < err_before * 0.5
        assert err_after < 0.15

    def test_code_dim_validation(self):
        with pytest.raises(ValueError):
            AutoencoderCompressor(hidden=8, code_dim=8)

    def test_shape_validation(self):
        ae = AutoencoderCompressor(hidden=8, code_dim=2)
        with pytest.raises(ValueError):
            ae.compress(RNG.normal(size=(3, 7)).astype(np.float32))
        with pytest.raises(ValueError):
            ae.compressed_bytes((3, 7))


class TestErrorFeedback:
    def test_residual_tracks_error(self):
        inner = TopKCompressor(0.25)
        ef = ErrorFeedbackCompressor(inner)
        x = RNG.normal(size=(4, 4)).astype(np.float32)
        msg = ef.compress(x)
        resid = ef.residual()
        np.testing.assert_allclose(resid, x - inner.decompress(msg), atol=1e-6)

    def test_feedback_improves_average_reconstruction(self):
        """With a constant input, EF makes the running average exact-ish."""
        inner = TopKCompressor(0.25)
        ef = ErrorFeedbackCompressor(inner)
        x = RNG.normal(size=(8, 8)).astype(np.float32)
        total = np.zeros_like(x)
        n = 16
        for _ in range(n):
            total += ef.decompress(ef.compress(x))
        err_ef = np.linalg.norm(total / n - x) / np.linalg.norm(x)
        err_plain = inner.reconstruction_error(x)
        assert err_ef < err_plain * 0.5

    @staticmethod
    def _cumulative_stream_error(compressor, site=None):
        """Error of the *running sum* of reconstructions vs the true stream.

        The stream is slowly-drifting activations, like consecutive training
        iterations.  This is the quantity error feedback provably bounds:
        with EF the sum of transmitted messages equals the sum of inputs up
        to the final residual, whereas plain sparsification drops the same
        (small-magnitude) mass every step and the omission accumulates.
        """
        rng = np.random.default_rng(0)
        base = rng.normal(size=(32, 64)).astype(np.float32)
        total_x = np.zeros_like(base)
        total_r = np.zeros_like(base)
        for _ in range(24):
            base = 0.95 * base + 0.05 * rng.normal(size=base.shape).astype(np.float32)
            kwargs = {} if site is None else {"site": site}
            total_x += base
            total_r += compressor.decompress(compressor.compress(base, **kwargs))
        return float(np.linalg.norm(total_x - total_r) / np.linalg.norm(total_x))

    def test_error_feedback_reduces_cumulative_error(self):
        """Ablation (DESIGN.md §5.1): the paper's implementation "allows the
        integration of error-feedback compression algorithms" but does not
        evaluate them; EF rescues Top-K 10% on a realistic stream."""
        plain = self._cumulative_stream_error(TopKCompressor(0.1))
        ef = self._cumulative_stream_error(
            ErrorFeedbackCompressor(TopKCompressor(0.1)), site="abl")
        assert ef < plain * 0.6

    def test_error_feedback_decay_tradeoff(self):
        """Stronger feedback (decay→1) corrects more of the dropped mass."""
        errs = {
            decay: self._cumulative_stream_error(
                ErrorFeedbackCompressor(TopKCompressor(0.1), decay=decay),
                site="abl")
            for decay in (0.0, 1.0)
        }
        # decay=0 is plain Top-K; full feedback should beat it clearly.
        assert errs[1.0] < errs[0.0]

    @pytest.mark.parametrize("face", ["apply", "compress"])
    def test_warmed_step_allocates_at_most_one_and_a_half_vectors(self, face):
        """Memory regression guard for the dp gradient reduce, which runs
        this step in every gang leader on one flat parameter-sized vector:
        once the site has its residual, a step may allocate one vector (the
        reconstruction, which first serves as the |x| scratch), the mask
        and the message — no further copy of the input (4.2x its bytes
        before the selection was made lean)."""
        rng = np.random.default_rng(0)
        ef = ErrorFeedbackCompressor(TopKCompressor(1 / 30))
        xs = [rng.standard_normal(1_600_000).astype(np.float32)
              for _ in range(3)]

        def step(x):
            if face == "apply":
                return ef.apply(Tensor(x), site="dp.rank0")
            return ef.compress(x, site="dp.rank0")

        step(xs[0]), step(xs[1])
        tracemalloc.start()
        try:
            result = step(xs[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result is not None
        assert peak <= 1.5 * xs[2].nbytes, f"{peak / xs[2].nbytes:.2f}x"

    def test_per_site_state_isolated(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.5))
        a = RNG.normal(size=(4,)).astype(np.float32)
        b = RNG.normal(size=(6,)).astype(np.float32)
        ef.compress(a, site="s1")
        ef.compress(b, site="s2")
        assert ef.residual("s1").shape == (4,)
        assert ef.residual("s2").shape == (6,)

    def test_reset(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.5))
        ef.compress(RNG.normal(size=(4,)).astype(np.float32))
        ef.reset()
        assert ef.residual() is None

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            ErrorFeedbackCompressor(TopKCompressor(0.5), decay=1.5)

    def test_apply_graph_face(self):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.5))
        x = Tensor(RNG.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        ef.apply(x).sum().backward()
        assert x.grad is not None
        # second application uses the stored residual
        y = Tensor(RNG.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        ef.apply(y).sum().backward()
        assert ef.residual() is not None
