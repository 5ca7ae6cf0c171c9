"""Chrome-trace export: validity and exact agreement with the breakdown."""

import json

import pytest

from repro.obs.metrics import RunRecorder
from repro.obs.trace import (
    chrome_trace,
    simulated_iteration_trace,
    validate_against_breakdown,
    write_trace,
)
from repro.parallel.topology import ClusterTopology
from repro.simulator.iteration import IterationSimulator, SimSetting


def setting(scheme="A2", tp=2, pp=2, m=4, **kw):
    return SimSetting(ClusterTopology.p3_8xlarge(), tp, pp, 16, 512,
                      num_microbatches=m, scheme=scheme, **kw)


def x_events(trace):
    return [e for e in trace["traceEvents"] if e.get("ph") == "X"]


class TestTraceValidity:
    def test_json_serializable_with_required_keys(self):
        trace = simulated_iteration_trace(setting())
        again = json.loads(json.dumps(trace))
        assert again["displayTimeUnit"] == "ms"
        assert isinstance(again["traceEvents"], list) and again["traceEvents"]

    def test_complete_events_are_well_formed(self):
        trace = simulated_iteration_trace(setting())
        for e in x_events(trace):
            assert e["ts"] >= 0 and e["dur"] > 0  # µs
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            assert e["name"] and e["cat"]

    def test_tracks_are_named(self):
        trace = simulated_iteration_trace(setting(pp=2))
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert "stage 0" in names and "stage 1" in names
        assert any(n.startswith("boundary") for n in names)

    def test_one_compute_track_per_stage(self):
        trace = simulated_iteration_trace(setting(tp=1, pp=4, m=2))
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert {f"stage {i}" for i in range(4)} <= names

    def test_forward_boxes_one_per_stage_microbatch(self):
        trace = simulated_iteration_trace(setting(m=4, pp=2))
        fwd = [e for e in x_events(trace) if e["cat"] == "forward_compute"]
        bwd = [e for e in x_events(trace) if e["cat"] == "backward_compute"]
        assert len(fwd) == 2 * 4 and len(bwd) == 2 * 4

    def test_write_trace_round_trips(self, tmp_path):
        path = write_trace(simulated_iteration_trace(setting()),
                           str(tmp_path / "out" / "sim.json"))
        with open(path) as fh:
            again = json.load(fh)
        assert again["traceEvents"]


class TestBreakdownAgreement:
    """Acceptance: per-track slice sums match IterationBreakdown within 1e-6 ms."""

    @pytest.mark.parametrize("scheme", ["w/o", "A2", "T2", "R2", "Q2"])
    def test_2x2_gpipe_trace_matches_breakdown(self, scheme):
        sim = IterationSimulator(setting(scheme=scheme, tp=2, pp=2, m=4))
        diffs = validate_against_breakdown(
            simulated_iteration_trace(sim), sim.breakdown()
        )
        assert max(diffs.values()) < 1e-6, diffs

    @pytest.mark.parametrize("tp,pp,m", [(4, 1, 1), (1, 4, 2), (2, 2, 1), (2, 2, 8)])
    def test_other_layouts_match_too(self, tp, pp, m):
        sim = IterationSimulator(setting(scheme="A2", tp=tp, pp=pp, m=m))
        diffs = validate_against_breakdown(
            simulated_iteration_trace(sim), sim.breakdown()
        )
        assert max(diffs.values()) < 1e-6, diffs

    def test_validator_catches_a_doctored_trace(self):
        sim = IterationSimulator(setting())
        trace = simulated_iteration_trace(sim)
        for e in x_events(trace):
            if e["cat"] == "tensor_comm":
                e["dur"] *= 2
                break
        diffs = validate_against_breakdown(trace, sim.breakdown())
        assert diffs["tensor_comm_ms"] > 1e-6
        assert diffs["forward_ms"] > 1e-6


class TestRunTrace:
    def make_run(self):
        rec = RunRecorder(run_id="r", meta={"scheme": "T2"})
        for loss in (2.0, 1.0):
            with rec.step():
                rec.gauge("loss", loss)
                with rec.timer("forward"):
                    pass
                with rec.timer("backward"):
                    pass
        return rec

    def test_step_slices_and_phase_slices(self):
        rec = self.make_run()
        trace = chrome_trace(rec.events, {"run_id": rec.run_id})
        steps = [e for e in x_events(trace) if e["cat"] == "step"]
        assert len(steps) == 2
        origin = rec.records[0]["t_start_ms"]
        for step_event, record in zip(steps, rec.records):
            assert step_event["dur"] == pytest.approx(record["wall_ms"] * 1000)
            assert step_event["ts"] == pytest.approx(
                (record["t_start_ms"] - origin) * 1000)
        phases = [e for e in x_events(trace) if e["cat"] == "phase"]
        assert [e["name"] for e in phases] == ["forward", "backward"] * 2

    def test_gauges_become_counter_events(self):
        trace = chrome_trace(self.make_run().events)
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert [c["args"]["loss"] for c in counters] == [2.0, 1.0]
