"""Tests for the PowerSGD baseline — the scheme the paper excludes."""

import numpy as np
import pytest

from repro.analysis import collect_gradient_and_activation
from repro.compression import AutoencoderCompressor, PowerSGDCompressor
from repro.compression.powersgd import orthonormalize
from repro.optim import Adam
from repro.tensor import Tensor

RNG = np.random.default_rng(0)


class TestOrthonormalize:
    def test_columns_orthonormal(self):
        m = orthonormalize(RNG.normal(size=(20, 5)).astype(np.float32))
        gram = m.T @ m
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-4)

    def test_handles_degenerate_columns(self):
        mat = np.ones((10, 3), dtype=np.float32)  # rank 1
        out = orthonormalize(mat)
        assert np.isfinite(out).all()


class TestPowerSGD:
    def test_exact_on_lowrank_matrix(self):
        """Rank-r input is reconstructed (near-)exactly at rank r."""
        u = RNG.normal(size=(40, 3)).astype(np.float32)
        v = RNG.normal(size=(32, 3)).astype(np.float32)
        m = u @ v.T
        c = PowerSGDCompressor(rank=3, warm_start=False)
        # a couple of power iterations refine the subspace
        for _ in range(3):
            out = c.roundtrip(m)
        c2 = PowerSGDCompressor(rank=3, warm_start=True)
        for _ in range(3):
            out = c2.roundtrip(m)
        err = np.linalg.norm(out - m) / np.linalg.norm(m)
        assert err < 0.05

    def test_poor_on_fullrank_matrix(self):
        m = RNG.normal(size=(64, 64)).astype(np.float32)
        c = PowerSGDCompressor(rank=4)
        assert c.reconstruction_error(m) > 0.6

    def test_wire_bytes(self):
        c = PowerSGDCompressor(rank=4)
        x = RNG.normal(size=(8, 16, 32)).astype(np.float32)
        msg = c.compress(x)
        assert msg.wire_bytes == (8 * 16 * 4 + 32 * 4) * 2
        assert msg.wire_bytes == c.compressed_bytes(x.shape)

    def test_roundtrip_shape(self):
        c = PowerSGDCompressor(rank=2)
        x = RNG.normal(size=(4, 6, 8)).astype(np.float32)
        assert c.roundtrip(x).shape == x.shape

    def test_warm_start_improves_over_iterations(self):
        u = RNG.normal(size=(40, 2)).astype(np.float32)
        v = RNG.normal(size=(24, 2)).astype(np.float32)
        m = u @ v.T
        c = PowerSGDCompressor(rank=2, warm_start=True)
        first = np.linalg.norm(c.roundtrip(m) - m)
        for _ in range(4):
            last = np.linalg.norm(c.roundtrip(m) - m)
        assert last <= first

    def test_apply_straight_through(self):
        c = PowerSGDCompressor(rank=2)
        x = Tensor(RNG.normal(size=(4, 8)).astype(np.float32), requires_grad=True)
        c.apply(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((4, 8)))

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            PowerSGDCompressor(0)

    def test_rank_clamped_to_matrix(self):
        c = PowerSGDCompressor(rank=100)
        x = RNG.normal(size=(6, 4)).astype(np.float32)
        msg = c.compress(x)
        assert msg.meta["rank"] <= 4


@pytest.fixture(scope="module")
def grad_and_act():
    """A weight gradient and an activation matrix from a trained model."""
    return collect_gradient_and_activation(batch=8, seq=16, seed=0)


def _rel_err(compressor, x, tries=1):
    return min(np.linalg.norm(compressor.roundtrip(x) - x)
               for _ in range(tries)) / np.linalg.norm(x)


class TestPaperExclusionClaim:
    """§3.1's exclusion, made empirical: the paper drops low-rank
    compression because Fig. 2 shows activations are not low-rank.  These
    run PowerSGD anyway, on real gradients and activations."""

    def test_gradients_compress_well_activations_dont(self, grad_and_act):
        """At equal rank, PowerSGD reconstructs a weight gradient far better
        than an activation matrix."""
        grad, act = grad_and_act
        grad_err = _rel_err(PowerSGDCompressor(rank=4, warm_start=False, seed=0),
                            grad, tries=3)
        act_err = _rel_err(PowerSGDCompressor(rank=4, warm_start=False, seed=0),
                           act, tries=3)
        assert grad_err < 0.45
        assert act_err > grad_err + 0.25

    def test_powersgd_fails_on_activations(self, grad_and_act):
        grad, act = grad_and_act
        rows = []
        for rank in (2, 4, 8):
            rows.append({
                "rank": rank,
                "grad_err": _rel_err(
                    PowerSGDCompressor(rank=rank, warm_start=False, seed=0),
                    grad, tries=3),
                "act_err": _rel_err(
                    PowerSGDCompressor(rank=rank, warm_start=False, seed=0),
                    act, tries=3),
            })
        # At every rank, gradients compress far better.
        for r in rows:
            assert r["act_err"] > r["grad_err"]
        # And the gap is large at small rank (where compression is worthwhile).
        assert rows[0]["act_err"] > rows[0]["grad_err"] + 0.2

    def test_trained_ae_beats_powersgd_on_activations(self, grad_and_act):
        """A *learned* linear code beats per-call power iteration at equal
        wire budget — why the paper's learning-based family wins."""
        _, act = grad_and_act
        rank = 8
        psgd_err = _rel_err(
            PowerSGDCompressor(rank=rank, warm_start=False, seed=0), act)

        ae = AutoencoderCompressor(hidden=act.shape[-1], code_dim=rank, seed=0)
        opt = Adam(ae.parameters(), lr=1e-2)
        for _ in range(300):
            opt.zero_grad()
            t = Tensor(act)
            loss = ((ae.apply(t) - t) ** 2).mean()
            loss.backward()
            opt.step()
        assert ae.reconstruction_error(act) < psgd_err
