"""Heterogeneous link/straggler models in the iteration simulator.

The contract has two halves.  First, opting in with nothing degraded
changes nothing: an all-default ``LinkModel`` is the uniform cluster.
Second, opting in must localize: a degraded PP link moves only
``pipeline_ms``, a degraded TP link only the collective columns, and a
straggler rank gates exactly its stage.
"""

import pytest

from repro.parallel.topology import ClusterTopology
from repro.simulator import IterationSimulator, SimSetting
from repro.simulator.hardware import LINKS, LinkModel, LinkSpec, LinkType


def aws(nodes=1):
    return ClusterTopology.p3_8xlarge(nodes)


def setting(mb=32, **kw):
    kw.setdefault("schedule", "gpipe")
    return SimSetting(aws(), 2, 2, mb, 512, num_microbatches=4, **kw)


ETH = LINKS[LinkType.ETHERNET]


class TestHomogeneousPathUntouched:
    @pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
    def test_empty_link_model_matches_homogeneous(self, schedule):
        """An all-default LinkModel is the same cluster, just computed on
        the per-stage path; totals agree to float tolerance."""
        a = IterationSimulator(setting(schedule=schedule, scheme="T2")).breakdown()
        b = IterationSimulator(setting(schedule=schedule, scheme="T2",
                                       links=LinkModel())).breakdown()
        assert b.total_ms == pytest.approx(a.total_ms, rel=1e-9)
        assert b.pipeline_ms == pytest.approx(a.pipeline_ms, rel=1e-9)


class TestStragglers:
    @pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
    def test_slow_rank_gates_the_iteration(self, schedule):
        base = IterationSimulator(setting(schedule=schedule)).breakdown()
        slow = IterationSimulator(setting(
            schedule=schedule,
            links=LinkModel(slow_ranks={0: 1.5}))).breakdown()
        assert slow.total_ms > base.total_ms
        assert slow.forward_ms > base.forward_ms

    def test_straggler_gates_only_its_stage(self):
        """Slowing a rank of stage 1 and a rank of stage 0 by the same
        factor must cost the same (balanced stages), and slowing both
        ranks of one stage costs no more than one (max, not sum)."""
        one = IterationSimulator(setting(
            links=LinkModel(slow_ranks={0: 1.5}))).breakdown()
        other_stage = IterationSimulator(setting(
            links=LinkModel(slow_ranks={2: 1.5}))).breakdown()
        both_ranks = IterationSimulator(setting(
            links=LinkModel(slow_ranks={0: 1.5, 1: 1.5}))).breakdown()
        assert one.total_ms == pytest.approx(other_stage.total_ms, rel=1e-6)
        assert both_ranks.total_ms == pytest.approx(one.total_ms, rel=1e-9)

    def test_sub_unity_multiplier_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1.0"):
            LinkModel(slow_ranks={0: 0.5})


class TestDegradedLinks:
    def test_degraded_pp_link_moves_only_pipeline_column(self):
        """Dense scheme: boundary messages are large enough to be
        bandwidth-bound, so an Ethernet boundary inflates pipeline_ms
        and leaves compute/TP columns alone."""
        base = IterationSimulator(setting(scheme="w/o")).breakdown()
        deg = IterationSimulator(setting(
            scheme="w/o", links=LinkModel(pp_links={0: ETH}))).breakdown()
        assert deg.pipeline_ms > base.pipeline_ms * 2
        assert deg.forward_ms == pytest.approx(base.forward_ms, rel=1e-9)
        assert deg.tensor_comm_ms == pytest.approx(base.tensor_comm_ms, rel=1e-9)

    def test_degraded_tp_link_moves_collective_columns(self):
        """Dense scheme again: forward g collectives feel the slow link."""
        base = IterationSimulator(setting(scheme="w/o")).breakdown()
        deg = IterationSimulator(setting(
            scheme="w/o",
            links=LinkModel(tp_links={0: ETH, 1: ETH}))).breakdown()
        assert deg.tensor_comm_ms > base.tensor_comm_ms
        assert deg.backward_ms > base.backward_ms
        assert deg.optimizer_ms == pytest.approx(base.optimizer_ms, rel=1e-9)

    def test_compressed_messages_dodge_the_slow_tp_link(self):
        """The payoff the paper can't measure on a uniform testbed: T2's
        compressed forward messages drop under the small-message floor,
        so degrading stage 1's TP link barely moves tensor_comm while
        the dense all-reduces in backward still pay full price.  At
        micro-batch 8 the T2 message (819198 B) sits just under the
        819200 B small-message floor."""
        base = IterationSimulator(setting(mb=8, scheme="T2")).breakdown()
        deg = IterationSimulator(setting(
            mb=8, scheme="T2", links=LinkModel(tp_links={1: ETH}))).breakdown()
        # Stage 1 holds the compressed layers (12-23): forward collectives
        # there are small-message-flat, hence link-insensitive.
        assert deg.tensor_comm_ms == pytest.approx(base.tensor_comm_ms, rel=1e-6)
        assert deg.backward_ms > base.backward_ms

    def test_scaled_link_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ETH.scaled(0.0)
        half = ETH.scaled(0.5, latency_factor=2.0)
        assert half.bandwidth_gbps == pytest.approx(ETH.bandwidth_gbps * 0.5)
        assert half.p2p_gbps == pytest.approx(ETH.p2p_gbps * 0.5)
        assert half.latency_s == pytest.approx(ETH.latency_s * 2.0)
        assert isinstance(half, LinkSpec)

    def test_scaled_link_degrades_monotonically(self):
        full = IterationSimulator(setting(
            scheme="w/o", links=LinkModel(pp_links={0: ETH}))).breakdown()
        half = IterationSimulator(setting(
            scheme="w/o",
            links=LinkModel(pp_links={0: ETH.scaled(0.5)}))).breakdown()
        assert half.pipeline_ms > full.pipeline_ms


class TestPlacementReport:
    def test_report_shape_and_links(self):
        sim = IterationSimulator(setting(
            scheme="T2", links=LinkModel(tp_links={1: ETH})))
        report = sim.placement_report()
        tp = [e for e in report if e["kind"] == "tp"]
        pp = [e for e in report if e["kind"] == "pp"]
        assert [e["index"] for e in tp] == [0, 1]
        assert [e["index"] for e in pp] == [0]
        assert tp[0]["link"] == "NVLink"
        assert tp[1]["link"] == "10GbE"
        for e in report:
            assert e["dense_ms"] > 0 and e["compressed_ms"] > 0
            assert e["speedup"] == pytest.approx(
                e["dense_ms"] / e["compressed_ms"])

    def test_compression_pays_most_on_the_slow_link(self):
        """The answer the report exists to give: same scheme, same model,
        compression speedup on the Ethernet stage dwarfs the NVLink one
        (small messages cost the flat floor regardless of fabric)."""
        sim = IterationSimulator(setting(
            mb=8, scheme="T2", links=LinkModel(tp_links={1: ETH})))
        tp = {e["index"]: e for e in sim.placement_report()
              if e["kind"] == "tp"}
        assert tp[1]["speedup"] > 10 * tp[0]["speedup"]
        assert tp[0]["speedup"] > 1.0  # still helps, just less
