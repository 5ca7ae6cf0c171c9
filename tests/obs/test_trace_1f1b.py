"""1F1B trace export: validation against the breakdown + async spans.

The simulated 1F1B timeline interleaves forward and backward compute, so
:func:`validate_against_breakdown` re-derives the ``overlap_ms`` column
as the intersection of the two compute windows; the pin stays at 1e-6 ms
for every scheme × layout × microbatch count.  The mp worker-timeline
exporter renders ``mp.async`` spans (the staging windows of pipeline
boundary sends and gradient relays) as Chrome async ``b``/``e`` pairs.
"""

import pytest

from repro.parallel.topology import ClusterTopology, LinkType
from repro.simulator.iteration import IterationSimulator, SimSetting
from repro.obs.trace import (
    chrome_trace,
    simulated_iteration_trace,
    validate_against_breakdown,
)

SCHEMES = ("w/o", "T2", "R2", "Q2", "A2")


def span(rank, name, cat, ts_ms, dur_ms):
    """A worker's ``span`` event, ``ts_ms`` after a common origin."""
    return {"kind": "span", "rank": rank, "idx": 0, "name": name, "cat": cat,
            "t": (ts_ms + dur_ms) / 1e3, "dur": dur_ms / 1e3}


def setting(scheme, tp, pp, m, schedule="1f1b"):
    topo = ClusterTopology(1, tp * pp, LinkType.PCIE)
    return SimSetting(topo, tp, pp, 32, 512, num_microbatches=m,
                      scheme=scheme, schedule=schedule)


class Test1F1BTraceValidation:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_2x2_1f1b_trace_matches_breakdown(self, scheme):
        sim = IterationSimulator(setting(scheme, 2, 2, 4))
        diffs = validate_against_breakdown(simulated_iteration_trace(sim),
                                           sim.breakdown())
        assert max(diffs.values()) < 1e-6, diffs

    @pytest.mark.parametrize("tp,pp,m", [(1, 2, 1), (1, 2, 8), (1, 4, 2),
                                         (2, 2, 2), (1, 4, 8)])
    def test_other_layouts_match_too(self, tp, pp, m):
        sim = IterationSimulator(setting("A2", tp, pp, m))
        diffs = validate_against_breakdown(simulated_iteration_trace(sim),
                                           sim.breakdown())
        assert max(diffs.values()) < 1e-6, diffs

    def test_overlap_column_nonzero_only_under_1f1b(self):
        for schedule, expect_overlap in (("gpipe", False), ("1f1b", True)):
            sim = IterationSimulator(setting("w/o", 1, 2, 4, schedule))
            b = sim.breakdown()
            assert (b.overlap_ms > 0) is expect_overlap
            diffs = validate_against_breakdown(simulated_iteration_trace(sim),
                                               b)
            assert diffs["overlap_ms"] < 1e-6

    def test_validator_catches_schedule_mismatch(self):
        """A GPipe trace must not validate against a 1F1B breakdown: the
        overlap column (and the compute makespans) differ."""
        gpipe = IterationSimulator(setting("w/o", 1, 2, 4, "gpipe"))
        onefb = IterationSimulator(setting("w/o", 1, 2, 4, "1f1b"))
        diffs = validate_against_breakdown(simulated_iteration_trace(gpipe),
                                           onefb.breakdown())
        assert diffs["overlap_ms"] > 1e-6


class TestAsyncSpanExport:
    EVENTS = [
        {"kind": "meta", "rank": 0, "idx": 0, "t": 0.0, "world": 2},
        span(0, "F0", "mp.phase", 0.0, 2.0),
        span(0, "pp send boundary0", "mp.async", 0.5, 1.0),
        span(1, "pp grad send mb0", "mp.async", 1.0, 0.25),
        span(1, "recv wait", "mp.wait", 2.0, 0.5),
    ]

    def test_async_spans_become_b_e_pairs(self):
        trace = chrome_trace(self.EVENTS, {"run_id": "t"})
        begins = [e for e in trace["traceEvents"] if e.get("ph") == "b"]
        ends = [e for e in trace["traceEvents"] if e.get("ph") == "e"]
        assert len(begins) == len(ends) == 2
        by_id = {e["id"]: e for e in ends}
        for b in begins:
            assert b["cat"] == "mp.async"
            e = by_id[b["id"]]
            assert e["name"] == b["name"] and e["ts"] > b["ts"]

    def test_sync_spans_stay_x_slices(self):
        trace = chrome_trace(self.EVENTS, {"run_id": "t"})
        x_cats = [e["cat"] for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert sorted(x_cats) == ["mp.phase", "mp.wait"]

    def test_async_spans_do_not_perturb_validation(self):
        """Merged real+simulated traces stay valid: ``b``/``e`` events are
        invisible to the slice-summing validator."""
        from repro.obs.trace import merge_traces

        sim = IterationSimulator(setting("A2", 2, 2, 4))
        merged = merge_traces(simulated_iteration_trace(sim),
                              chrome_trace(self.EVENTS, {}))
        diffs = validate_against_breakdown(merged, sim.breakdown())
        assert max(diffs.values()) < 1e-6, diffs


class TestTrackLabels:
    EVENTS = [span(r, "F0", "mp.phase", 0.0, 1.0) for r in (3, 1, 0, 2)]

    @staticmethod
    def thread_names(trace):
        return {e["args"]["name"] for e in trace["traceEvents"]
                if e.get("ph") == "M" and e.get("name") == "thread_name"}

    def test_layout_meta_labels_tracks_with_tp_pp_coordinates(self):
        trace = chrome_trace(self.EVENTS, {"run_id": "t", "tp": 2, "pp": 2})
        assert self.thread_names(trace) == {
            "rank 0 · tp0/pp0", "rank 1 · tp1/pp0",
            "rank 2 · tp0/pp1", "rank 3 · tp1/pp1",
        }

    def test_process_name_metadata_is_emitted(self):
        trace = chrome_trace(self.EVENTS, {"run_id": "mytest", "tp": 2, "pp": 2})
        procs = [e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "process_name"]
        assert procs == ["repro run: mytest"]

    def test_tracks_follow_rank_order_not_input_order(self):
        trace = chrome_trace(self.EVENTS, {"run_id": "t"})
        assert [e["args"]["name"] for e in trace["traceEvents"]
                if e.get("name") == "thread_name"] == [f"rank{r}" for r in range(4)]

    def test_without_layout_meta_tracks_degrade_to_plain_rank(self):
        trace = chrome_trace(self.EVENTS, {"run_id": "t"})
        assert self.thread_names(trace) == {"rank0", "rank1", "rank2", "rank3"}
