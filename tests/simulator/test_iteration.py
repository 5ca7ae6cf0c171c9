"""Tests for the iteration simulator: composition rules and paper anchors."""

import pytest

from repro.compression import CompressionPolicy, build_compressor
from repro.parallel.topology import ClusterTopology
from repro.simulator import IterationSimulator, SimSetting
from repro.simulator.comm import allgather_time, allreduce_time


def aws(nodes=1):
    return ClusterTopology.p3_8xlarge(nodes)


class TestSimSetting:
    def test_policy_defaults(self):
        s = SimSetting(aws(), 2, 2, 32, 512)
        assert s.policy.num_compressed == 0
        s2 = SimSetting(aws(), 2, 2, 32, 512, scheme="A1")
        assert s2.policy.num_compressed == 12  # last half of 24

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            SimSetting(aws(), 3, 2, 32, 512)

    def test_invalid_microbatches(self):
        with pytest.raises(ValueError):
            SimSetting(aws(), 2, 2, 32, 512, num_microbatches=0)


class TestComposition:
    def test_total_is_sum_of_columns(self):
        b = IterationSimulator(SimSetting(aws(), 2, 2, 32, 512, scheme="A1")).breakdown()
        assert b.total_ms == pytest.approx(
            b.forward_ms + b.backward_ms + b.optimizer_ms + b.pipeline_ms
        )

    def test_tp1_has_no_tensor_comm(self):
        b = IterationSimulator(SimSetting(aws(), 1, 4, 32, 512)).breakdown()
        assert b.tensor_comm_ms == 0.0

    def test_pp1_has_no_pipeline_time(self):
        b = IterationSimulator(SimSetting(aws(), 4, 1, 32, 512)).breakdown()
        assert b.pipeline_ms == 0.0

    def test_uncompressed_has_no_encdec(self):
        b = IterationSimulator(SimSetting(aws(), 2, 2, 32, 512)).breakdown()
        assert b.encode_ms == 0.0 and b.decode_ms == 0.0

    def test_compression_reduces_forward_comm(self):
        wo = IterationSimulator(SimSetting(aws(), 4, 1, 32, 512)).breakdown()
        a1 = IterationSimulator(SimSetting(aws(), 4, 1, 32, 512, scheme="A1")).breakdown()
        assert a1.tensor_comm_ms < wo.tensor_comm_ms

    def test_backward_comm_unchanged_by_compression(self):
        """f all-reduces stay dense: backward within AE's extra GEMM cost."""
        wo = IterationSimulator(SimSetting(aws(), 4, 1, 32, 512)).breakdown()
        t1 = IterationSimulator(SimSetting(aws(), 4, 1, 32, 512, scheme="T1")).breakdown()
        assert t1.backward_ms == pytest.approx(wo.backward_ms)

    def test_policy_scales_encode_cost(self):
        half = IterationSimulator(SimSetting(aws(), 4, 1, 32, 512, scheme="T1")).breakdown()
        full = IterationSimulator(
            SimSetting(aws(), 4, 1, 32, 512, scheme="T1",
                       policy=CompressionPolicy.all(24))
        ).breakdown()
        assert full.encode_ms == pytest.approx(2 * half.encode_ms, rel=0.01)

    def test_more_microbatches_amortize_bubble(self):
        """Per-sample time falls as m grows (bubble fraction shrinks)."""
        t1 = IterationSimulator(SimSetting(aws(4), 4, 4, 16, 128, num_microbatches=1)).total_ms()
        t8 = IterationSimulator(SimSetting(aws(4), 4, 4, 16, 128, num_microbatches=8)).total_ms()
        assert t8 / 8 < t1

    def test_quant_backward_boundary_dense(self):
        sim = IterationSimulator(SimSetting(aws(4), 4, 4, 128, 128, scheme="Q2",
                                            num_microbatches=8))
        fwd, bwd = sim.boundary_send_ms(1)  # a compressed boundary
        assert bwd > fwd  # backward carries the dense gradient + staging

    @pytest.mark.parametrize("scheme", ["w/o", "T2", "Q2"])
    def test_dp_comm_prices_the_codec_bytes_of_the_flat_vector(self, scheme):
        """dp=2 on two nodes: dense schemes all-reduce fp16, the others
        all-gather the compressor's own byte count for the parameter vector."""
        sim = IterationSimulator(SimSetting(aws(2), 4, 1, 4, 128, scheme=scheme, dp=2))
        n = sim._model_param_count()
        link = sim.s.layout.dp_link()
        if scheme == "w/o":
            want = allreduce_time(2 * n, 2, link)
        else:
            want = allgather_time(build_compressor(scheme, 1024).compressed_bytes((n,)),
                                  2, link)
        assert sim.dp_comm_ms() == want
        assert sim.breakdown().dp_comm_ms == want
        single = IterationSimulator(SimSetting(aws(1), 4, 1, 4, 128, scheme=scheme))
        assert single.dp_comm_ms() == 0.0


class TestPaperAnchors:
    """Totals must land near the paper's w/o rows (±12%)."""

    @pytest.mark.parametrize("tp,pp,expected", [(1, 4, 591.96), (2, 2, 440.71), (4, 1, 261.48)])
    def test_table2_baseline(self, tp, pp, expected):
        t = IterationSimulator(SimSetting(aws(), tp, pp, 32, 512)).total_ms()
        assert t == pytest.approx(expected, rel=0.12)

    def test_table4_baseline_total(self):
        t = IterationSimulator(
            SimSetting(ClusterTopology.local_pcie(), 2, 2, 32, 512)
        ).total_ms()
        assert t == pytest.approx(646.14, rel=0.15)

    @pytest.mark.parametrize("tp,pp,expected", [(2, 8, 1625.16), (4, 4, 1422.40), (8, 2, 15642.30)])
    def test_table6_baseline(self, tp, pp, expected):
        t = IterationSimulator(
            SimSetting(aws(4), tp, pp, 128, 128, num_microbatches=8)
        ).total_ms()
        assert t == pytest.approx(expected, rel=0.15)

    def test_table2_scheme_ordering(self):
        """NVLink TP4: w/o ≲ A1 < T1 < T4 ≪ R1."""
        times = {
            s: IterationSimulator(SimSetting(aws(), 4, 1, 32, 512, scheme=s)).total_ms()
            for s in ["w/o", "A1", "T1", "T4", "R1"]
        }
        assert times["w/o"] <= times["A1"] * 1.02
        assert times["A1"] < times["T1"] < times["T4"] < times["R1"]

    def test_table6_ae_wins_pretraining(self):
        wo = IterationSimulator(SimSetting(aws(4), 4, 4, 128, 128, num_microbatches=8)).total_ms()
        a2 = IterationSimulator(SimSetting(aws(4), 4, 4, 128, 128, num_microbatches=8,
                                           scheme="A2")).total_ms()
        assert a2 < wo * 0.92
