"""Tests for the experiment harness: structure, determinism, formatting,
and the paper's shape claims on the deterministic tables.

The claim classes assert *shape* — who wins, rough factors, crossovers —
never absolute milliseconds (see EXPERIMENTS.md).  ``python -m
repro.experiments <target>`` prints the tables they read.  The five
accuracy claims really train and live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.compression.notation import scheme_spec
from repro.experiments import (
    fig4b_location,
    figure1_comm_overhead,
    figure2_lowrank,
    figure5_fit,
    format_table,
    table2_finetune_nvlink,
    table3_nvlink_ablation,
    table4_breakdown_finetune,
    table6_pretrain,
    table7_breakdown_pretrain,
    table9_stage_comm,
    table10_weak_scaling,
    tables11_14_hparam_sweep,
)
from repro.experiments.accuracy import (
    pretrain_backbone,
    table5_glue_accuracy,
    table8_pretrain_accuracy,
)
from repro.experiments.timing import FINETUNE_SCHEMES
from repro.parallel.topology import LinkType
from repro.simulator import allgather_time, allreduce_time


@pytest.fixture(scope="module")
def fig2_report():
    return figure2_lowrank()


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 1234.5678}, {"a": 22, "b": 3.1}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1,234.57" in text
        assert len({len(l) for l in lines[1:]}) <= 2  # header/sep/body aligned

    def test_format_empty(self):
        assert "(empty)" in format_table([], title="x")

    def test_column_subset(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestTimingHarness:
    def test_table2_structure(self):
        rows = table2_finetune_nvlink(["w/o", "A1"])
        assert [r["setting"] for r in rows] == ["TP=1, PP=4", "TP=2, PP=2", "TP=4, PP=1"]
        assert all({"w/o", "A1"} <= set(r) for r in rows)

    def test_table2_deterministic(self):
        a = table2_finetune_nvlink(["w/o"])
        b = table2_finetune_nvlink(["w/o"])
        assert a == b

    def test_default_scheme_columns_match_paper(self):
        assert FINETUNE_SCHEMES[0] == "w/o"
        assert set(FINETUNE_SCHEMES) >= {"A1", "A2", "T1", "T4", "R1", "R4", "Q1", "Q2"}

    def test_table3_has_both_machines(self):
        rows = table3_nvlink_ablation()
        machines = {r["machine"] for r in rows}
        assert machines == {"With NVLink", "Without NVLink"}
        assert len(rows) == 6

    def test_table4_breakdown_columns(self):
        rows = table4_breakdown_finetune(["w/o", "A1"])
        expected = {"scheme", "forward", "backward", "optimizer", "wait_pipeline",
                    "total", "tensor_enc", "tensor_dec", "tensor_comm"}
        assert set(rows[0]) == expected
        for r in rows:
            assert r["total"] == pytest.approx(
                r["forward"] + r["backward"] + r["optimizer"] + r["wait_pipeline"]
            )

    def test_table6_grid(self):
        rows = table6_pretrain(["w/o"])
        assert [r["setting"] for r in rows] == ["TP=2, PP=8", "TP=4, PP=4", "TP=8, PP=2"]

    def test_table7_subset(self):
        rows = table7_breakdown_pretrain(["w/o", "A2"])
        assert len(rows) == 2

    def test_table9_three_boundaries(self):
        rows = table9_stage_comm()
        assert len(rows) == 3

    def test_tables11_14_keys(self):
        out = tables11_14_hparam_sweep(["w/o", "Q3"])
        assert set(out) == {"table11_nvlink_b32", "table12_nvlink_b8",
                            "table13_pcie_b32", "table14_pcie_b8"}

    def test_fig1_fractions_valid(self):
        for r in figure1_comm_overhead():
            assert 0 < r["comm_fraction"] < 1


class TestAnalysisHarness:
    def test_fig2_report_keys(self, fig2_report):
        assert {"gradient", "activation", "gradient_is_lower_rank"} <= set(fig2_report)

    def test_fig5_prediction_arrays_aligned(self):
        r = figure5_fit()
        n = len(r["measured"]["hiddens"])
        assert len(r["predicted"]["speedup"]) == n

    def test_table10_rows(self):
        rows = table10_weak_scaling()
        assert len(rows) == 7
        assert rows[0]["hidden"] == 6144

class TestTimingClaims:
    """Shape claims on the simulator tables (Fig. 1, Tables 2-4, 6-7, 9, 11-14)."""

    def test_fig1_comm_overhead(self):
        rows = figure1_comm_overhead()
        # Communication is a substantial fraction of iteration time at the
        # default fine-tuning setting (b=32, s=512).
        big = next(r for r in rows if r["batch"] == 32 and r["seq"] == 512)
        assert big["comm_fraction"] > 0.30
        # Absolute comm time grows with the activation size b*s.
        sizes = sorted(rows, key=lambda r: r["batch"] * r["seq"])
        comms = [r["comm_ms"] for r in sizes]
        assert comms == sorted(comms)

    def test_table2_finetune_nvlink(self):
        rows = table2_finetune_nvlink()
        by = {r["setting"]: r for r in rows}
        for setting, row in by.items():
            # Takeaway 1: with NVLink, no non-learning scheme beats the baseline.
            for scheme in ["T1", "T2", "T3", "T4", "R1", "R2", "R3", "R4", "Q1", "Q2"]:
                assert row[scheme] >= row["w/o"] * 0.99, (setting, scheme)
            # Random-K is catastrophically slower where TP communication exists.
            if setting != "TP=1, PP=4":
                assert row["R1"] > 3 * row["w/o"]
                assert row["R4"] > row["R3"] > row["R2"] > row["R1"]
        # AE is within a few percent of the baseline everywhere on NVLink.
        for row in rows:
            assert row["A1"] < row["w/o"] * 1.10
        # TP=4, PP=1 is the fastest uncompressed setting (as in the paper).
        assert by["TP=4, PP=1"]["w/o"] < by["TP=2, PP=2"]["w/o"] < by["TP=1, PP=4"]["w/o"]

    def test_table3_nvlink_ablation(self):
        rows = table3_nvlink_ablation()
        nv = {r["setting"]: r for r in rows if r["machine"] == "With NVLink"}
        pcie = {r["setting"]: r for r in rows if r["machine"] == "Without NVLink"}
        # Takeaway: the AE speedup appears only on the slower interconnect.
        nv_speedup = nv["TP=4, PP=1"]["w/o"] / nv["TP=4, PP=1"]["A1"]
        pcie_speedup = pcie["TP=4, PP=1"]["w/o"] / pcie["TP=4, PP=1"]["A1"]
        assert pcie_speedup > nv_speedup
        # Paper: up to ~17.8% end-to-end without NVLink; we require >8%.
        assert pcie_speedup > 1.08
        # Without TP communication (TP=1), AE still helps slightly via the
        # pipeline boundary on the PCIe box.
        assert pcie["TP=1, PP=4"]["A1"] <= pcie["TP=1, PP=4"]["w/o"] * 1.02

    def test_table4_breakdown_finetune(self):
        by = {r["scheme"]: r for r in table4_breakdown_finetune()}
        wo, a1 = by["w/o"], by["A1"]
        # AE halves-or-better the tensor communication time (paper: 150.7→80.9).
        assert a1["tensor_comm"] < wo["tensor_comm"] * 0.62
        # AE's encode/decode overhead is small (single-digit ms).
        assert a1["tensor_enc"] + a1["tensor_dec"] < 15
        # Top-K's encode overhead dwarfs AE's (paper: 70.1 vs 2.2 ms).
        assert by["T1"]["tensor_enc"] > 10 * a1["tensor_enc"]
        # Random-K's Python-sampling encode dominates its entire iteration.
        assert by["R1"]["tensor_enc"] > by["R1"]["backward"]
        assert by["R4"]["tensor_enc"] > by["R3"]["tensor_enc"] > by["R2"]["tensor_enc"]
        # Backward time barely changes across schemes (f all-reduces stay
        # dense); AE adds a few ms of backward GEMMs.
        for scheme in ["T1", "T4", "Q1", "Q2", "R1"]:
            assert abs(by[scheme]["backward"] - wo["backward"]) < 0.15 * wo["backward"]
        assert a1["backward"] >= wo["backward"]
        # End-to-end: only AE beats the baseline on this machine.
        assert a1["total"] < wo["total"]
        for scheme in ["T1", "T2", "T3", "T4", "R1", "Q1"]:
            assert by[scheme]["total"] > wo["total"] * 0.99

    def test_table6_pretrain_throughput(self):
        by = {r["setting"]: r for r in table6_pretrain()}
        best = by["TP=4, PP=4"]
        # TP=4, PP=4 is the best distributed setting (TP stays on NVLink).
        assert best["w/o"] < by["TP=2, PP=8"]["w/o"]
        assert best["w/o"] < by["TP=8, PP=2"]["w/o"]
        # TP spanning nodes (TP=8) is ~an order of magnitude slower.
        assert by["TP=8, PP=2"]["w/o"] > 7 * best["w/o"]
        # Takeaway 3: AE and Top-K improve pre-training; quantization does not.
        assert best["A1"] < best["w/o"]
        assert best["A2"] < best["w/o"]
        assert best["T1"] < best["w/o"]
        assert best["Q1"] > best["w/o"]
        assert best["Q2"] > best["w/o"]
        assert best["R1"] > 5 * best["w/o"]
        # Paper: AE speeds pre-training up by ~16%; require at least 10%.
        assert best["w/o"] / min(best["A1"], best["A2"]) > 1.10

    def test_table7_breakdown_pretrain(self):
        by = {r["scheme"]: r for r in table7_breakdown_pretrain()}
        wo = by["w/o"]
        # Compression slashes waiting & pipeline time (inter-node bandwidth
        # is the bottleneck): paper 528 → 233 for A1.
        assert by["A1"]["wait_pipeline"] < wo["wait_pipeline"] * 0.6
        assert by["T1"]["wait_pipeline"] < wo["wait_pipeline"] * 0.6
        # Quantization makes the pipeline *worse* (multi-tensor + dense backward).
        assert by["Q1"]["wait_pipeline"] > wo["wait_pipeline"] * 1.5
        # Random-K's encode is still catastrophic at pre-training scale.
        assert by["R1"]["tensor_enc"] > 10 * by["T1"]["tensor_enc"]
        assert by["R1"]["total"] > 8 * wo["total"]

    def test_table9_stage_comm(self):
        first, second, third = table9_stage_comm()
        # The first boundary feeds an uncompressed layer → unchanged.
        assert abs(first["comm_A2"] - first["comm_wo"]) < 1e-6
        # The compressed boundaries drop ~6–10× (paper: 88.7→13.2, 97.7→14.1).
        for row in (second, third):
            ratio = row["comm_wo"] / row["comm_A2"]
            assert 4.0 < ratio < 15.0, ratio

    def test_tables11_14_hparam_sweep(self):
        tables = tables11_14_hparam_sweep()
        # Takeaway 8: at s=128 compression stops paying. On NVLink no scheme
        # improves throughput at all (paper Tables 11–12); on PCIe only AE
        # can still eke out a small win (paper Table 13's underlined A1/A2
        # cells) while the non-learning schemes always lose.
        for key, rows in tables.items():
            nvlink = "nvlink" in key
            for row in rows:
                for scheme in ["T1", "T4", "Q1", "Q3"]:
                    assert row[scheme] > row["w/o"] * 0.97, (key, row["setting"], scheme)
                for scheme in ["A1", "A2"]:
                    floor = 0.97 if nvlink else 0.88
                    assert row[scheme] > row["w/o"] * floor, (key, row["setting"], scheme)
        # Random-K remains the worst everywhere TP communication exists.
        for key, rows in tables.items():
            for row in rows:
                if row["setting"] != "TP=1, PP=4":
                    assert row["R4"] > row["R1"] > row["w/o"]

    def test_allgather_penalty_grows_with_world(self):
        """Ablation (DESIGN.md §5.3): the all-gather fallback's cost.

        Sparse/quantized schemes cannot ride all-reduce (two tensors /
        non-float dtypes) and fall back to all-gather + local sum.  How much
        of their slowdown is the collective switch itself: a counterfactual
        Top-K that *could* use all-reduce, on T2's message.
        """
        batch, seq, hidden = 32, 512, 1024
        msg = int(round(scheme_spec("T2").fraction * batch * seq * hidden)) * 6
        penalties = [allgather_time(msg, world, LinkType.PCIE)
                     / allreduce_time(msg, world, LinkType.PCIE)
                     for world in (2, 4, 8)]
        # All-gather moves (p−1)·msg per rank vs all-reduce's 2(p−1)/p·msg:
        # the penalty approaches p/2 and grows with the world size.
        assert penalties == sorted(penalties)
        assert penalties[-1] > 2.0


class TestModelClaims:
    """Shape claims on Fig. 2 (SVD), Fig. 5 and Table 10 (§4.7 cost model)."""

    def test_fig2_lowrank(self, fig2_report):
        g, a = fig2_report["gradient"], fig2_report["activation"]
        # The gradient's spectrum concentrates (AUC near 1); the
        # activation's hugs the diagonal (AUC near 0.5–0.7).
        assert fig2_report["gradient_is_lower_rank"]
        assert g["auc"] > 0.85
        assert a["auc"] < 0.8
        # The activation curve is near-linear: no 10% of dims holds >50% mass.
        ai = int(0.1 * len(a["dims"]))
        assert a["cumulative"][ai] < 0.5

    def test_fig5_perfmodel_fit(self):
        result = figure5_fit()
        measured, predicted = result["measured"], result["predicted"]
        big = [
            {"comp_meas": m_c, "comp_pred": p_c, "comm_meas": m_k,
             "comm_pred": p_k, "overhead_meas": m_o, "overhead_pred": p_o,
             "speedup": s}
            for h, m_c, p_c, m_k, p_k, m_o, p_o, s in zip(
                measured["hiddens"], measured["comp_ms"], predicted["comp_pred_ms"],
                measured["comm_ms"], predicted["comm_pred_ms"],
                measured["overhead_ms"], predicted["overhead_pred_ms"],
                predicted["speedup"])
            if h >= 1024
        ]
        assert big
        for r in big:
            # (a) compute prediction tracks measurement at large hidden sizes
            # (the paper notes small-h fits are unusable; α is fit at the
            # largest size).
            assert abs(r["comp_pred"] - r["comp_meas"]) < 0.5 * r["comp_meas"]
            # (b) comm prediction tracks measurement above the threshold.
            assert abs(r["comm_pred"] - r["comm_meas"]) < 0.3 * r["comm_meas"]
            # (c) overhead is linear in B·s·h: prediction within 20%.
            assert abs(r["overhead_pred"] - r["overhead_meas"]) \
                < 0.2 * max(r["overhead_meas"], 1e-9)
        # (d) speedup declines monotonically with hidden size toward 1.
        speedups = [r["speedup"] for r in big]
        assert speedups == sorted(speedups, reverse=True)
        assert speedups[-1] > 1.0

    def test_table10_weak_scaling(self):
        speedups = [r["speedup"] for r in table10_weak_scaling()]
        # All configurations retain a real speedup (paper: 1.46×–1.91×).
        assert all(s > 1.15 for s in speedups)
        # Speedup declines as hidden grows…
        assert speedups == sorted(speedups, reverse=True)
        # …but node growth keeps it from collapsing: the h=25600 run still
        # holds most of the h=16384 run's benefit (paper plateaus at ~1.46).
        assert speedups[-1] > speedups[0] * 0.55


class TestAccuracyHarness:
    """Tiny-budget runs exercising the full accuracy pipeline."""

    def test_backbone_cache_hit(self):
        a = pretrain_backbone("w/o", steps=5, seed=99)
        b = pretrain_backbone("w/o", steps=5, seed=99)
        assert a is b

    def test_backbone_cache_keys_on_the_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP", "1")
        dp1 = pretrain_backbone("w/o", steps=2, seed=98)
        monkeypatch.setenv("REPRO_DP", "2")
        assert pretrain_backbone("w/o", steps=2, seed=98) is not dp1

    def test_table5_structure_tiny(self):
        rows = table5_glue_accuracy(tasks=["SST-2"], schemes=["w/o", "A2"],
                                    seed=0, pretrain_steps=5)
        assert [r["scheme"] for r in rows] == ["w/o", "A2"]
        assert all("SST-2" in r and "Avg." in r for r in rows)

    def test_table5_mnli_two_columns_tiny(self):
        rows = table5_glue_accuracy(tasks=["MNLI"], schemes=["w/o"],
                                    seed=0, pretrain_steps=5)
        assert {"MNLI-m", "MNLI-mm"} <= set(rows[0])

    def test_table8_finetunes_without_compression_tiny(self):
        rows = table8_pretrain_accuracy(tasks=["SST-2"], schemes=["w/o", "A2"],
                                        seed=0, pretrain_steps=5)
        assert len(rows) == 2
        assert all(np.isfinite(r["Avg."]) for r in rows)
