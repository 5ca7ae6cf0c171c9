"""OpProfiler: hook seam, deterministic rollups, spans, comm events, traces."""

import numpy as np
import pytest

from repro.obs.profile import OpProfiler, OpStats, op_bytes, op_flops
from repro.obs.trace import (
    chrome_trace,
    merge_traces,
    simulated_iteration_trace,
    validate_against_breakdown,
)
from repro.parallel.backend import events
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.topology import ClusterTopology, LinkType
from repro.simulator.iteration import IterationSimulator, SimSetting
from repro.tensor import Tensor, op_hook, register_op_hook, unregister_op_hook
from repro.training.finetune import default_accuracy_model


def of_kind(prof, kind):
    return [e for e in prof.record.events if e["kind"] == kind]


def within(event, span):
    """Whether ``event`` was stamped inside ``span``'s window."""
    return span["t"] - span["dur"] <= event["t"] <= span["t"]


def small_model(tp=2, pp=1, scheme="w/o"):
    cfg = ModelParallelConfig(
        default_accuracy_model(num_classes=2, seed=0),
        tp=tp, pp=pp, scheme=scheme, seed=0,
    )
    return ModelParallelBertClassifier(cfg)


def tiny_batch(model, n=4, seq=8, seed=0):
    rng = np.random.default_rng(seed)
    input_ids = rng.integers(0, model.config.model.vocab_size, size=(n, seq))
    labels = rng.integers(0, 2, size=n)
    return input_ids, labels, np.ones((n, seq), dtype=np.int64)


class TestHookSeam:
    def test_hook_sees_forward_and_backward_ops(self):
        seen = []
        with op_hook(lambda op, data, shapes, phase: seen.append((phase, op))):
            a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
            b = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
            (a @ b).sum().backward()
        fwd = [op for phase, op in seen if phase == "forward"]
        bwd = [op for phase, op in seen if phase == "backward"]
        assert "__matmul__" in fwd and "sum" in fwd
        assert bwd, "backward closures must fire the hook too"

    def test_unregister_stops_delivery(self):
        seen = []
        hook = lambda *args: seen.append(args)  # noqa: E731
        register_op_hook(hook)
        Tensor(np.ones(2, dtype=np.float32)) + Tensor(np.ones(2, dtype=np.float32))
        n = len(seen)
        assert n > 0
        unregister_op_hook(hook)
        Tensor(np.ones(2, dtype=np.float32)) + Tensor(np.ones(2, dtype=np.float32))
        assert len(seen) == n

    def test_multiple_hooks_all_fire(self):
        first, second = [], []
        with op_hook(lambda *a: first.append(a)):
            with op_hook(lambda *a: second.append(a)):
                Tensor(np.ones(2, dtype=np.float32)) + Tensor(
                    np.ones(2, dtype=np.float32))
        assert len(first) == len(second) == 1


class TestOpCosts:
    def test_matmul_flops(self):
        # (2,3) @ (3,4) -> out (2,4): 2*N*K = 2*8*3
        assert op_flops("__matmul__", (2, 4), ((2, 3), (3, 4))) == 2 * 8 * 3

    def test_linear_flops_are_the_gemm_plus_one_per_output_for_the_bias(self):
        assert op_flops("linear", (2, 4), ((2, 3), (3, 4), (4,))) == 2 * 8 * 3 + 8
        assert op_flops("linear", (2, 4), ((2, 3), (3, 4))) == 2 * 8 * 3
        assert op_flops("linear", (2, 4), ()) == 0.0  # a backward closure

    def test_predicted_ms_prices_linear_as_a_gemm(self):
        def predicted(op):
            prof = OpProfiler(record_events=False)
            prof.ops[("forward", op)] = OpStats(calls=1, flops=4e9, bytes_moved=1e6)
            return prof.predicted_ms()

        assert predicted("linear") == predicted("__matmul__") > predicted("__add__")

    def test_elementwise_flops(self):
        assert op_flops("__add__", (5, 7), ((5, 7), (5, 7))) == 35

    def test_shape_ops_cost_no_flops(self):
        assert op_flops("reshape", (10,), ((2, 5),)) == 0.0

    def test_bytes_counts_reads_and_write(self):
        # two (2,2) fp32 reads + 16-byte output
        assert op_bytes("__add__", 16, ((2, 2), (2, 2))) == 2 * 16 + 16


class TestRollups:
    def workload(self):
        a = Tensor(np.ones((4, 8), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((8, 2), dtype=np.float32), requires_grad=True)
        ((a @ b).tanh().sum()).backward()

    def test_deterministic_counts_across_runs(self):
        summaries = []
        for _ in range(2):
            prof = OpProfiler(record_events=False)
            with prof:
                self.workload()
            s = prof.summary()
            ops = {key: {f: v for f, v in stats.items() if f != "wall_ms"}
                   for key, stats in s["ops"].items()}
            summaries.append((s["op_calls"], s["flops"], s["alloc_bytes"],
                              s["bytes_moved"], ops))
        assert summaries[0] == summaries[1]

    def test_fake_clock_wall_times_are_deterministic(self, monkeypatch):
        walls = []
        for _ in range(2):
            ticks = iter(range(1, 10_000))  # +1 ms per reading, from 1 ms
            monkeypatch.setattr("time.monotonic", lambda: next(ticks) * 1e-3)
            prof = OpProfiler(record_events=False)
            with prof:
                self.workload()
            walls.append(prof.total_wall_ms())
        assert walls[0] == walls[1] > 0

    def test_forward_and_backward_phases_split(self):
        prof = OpProfiler()
        with prof:
            self.workload()
        phases = {phase for phase, _ in prof.ops}
        assert phases == {"forward", "backward"}
        assert prof.ops[("forward", "__matmul__")].flops == 2 * (4 * 2) * 8

    def test_predicted_ms_positive_and_deterministic(self):
        vals = []
        for _ in range(2):
            prof = OpProfiler(record_events=False)
            with prof:
                self.workload()
            vals.append(prof.predicted_ms())
        assert vals[0] == vals[1] > 0

    def test_summary_key_order_is_stable(self):
        prof = OpProfiler()
        with prof:
            self.workload()
        s = prof.summary()
        assert list(s["ops"]) == sorted(s["ops"])
        assert list(s["comm_bytes"]) == sorted(s["comm_bytes"])


class TestSpans:
    def test_nested_paths_and_rank_inheritance(self):
        prof = OpProfiler()
        with prof:
            with prof.span("step", cat="step", rank=3):
                with prof.span("forward"):
                    Tensor(np.ones(4, dtype=np.float32)) + Tensor(
                        np.ones(4, dtype=np.float32))
        by_name = {s["name"]: s for s in of_kind(prof, "span")}
        assert by_name["forward"]["path"] == "step/forward"
        assert by_name["forward"]["rank"] == 3  # inherited from "step"
        assert by_name["forward"]["op_calls"] == 1
        assert by_name["forward"]["alloc_bytes"] == 16
        (op,) = of_kind(prof, "op")
        assert (op["name"], op["rank"], op["alloc_bytes"]) == ("__add__", 3, 16)
        assert within(op, by_name["forward"])

    def test_peak_alloc_high_water_mark(self):
        prof = OpProfiler()
        ones = lambda n: Tensor(np.ones(n, dtype=np.float32))  # noqa: E731
        with prof:
            with prof.span("big", rank=0):
                ones(256) + ones(256)  # 1024 B output
            with prof.span("small", rank=0):
                ones(4) + ones(4)
            with prof.span("other", rank=1):
                ones(16) + ones(16)
        assert prof.peak_alloc_by_rank[0] == 1024
        assert prof.peak_alloc_by_rank[1] == 64
        assert prof.peak_span_alloc == 1024

    def test_span_durations_use_clock(self):
        prof = OpProfiler()
        with prof:
            with prof.span("outer"):
                pass
        (span,) = of_kind(prof, "span")
        assert span["dur"] > 0 and span["rank"] == -1  # the parent's


class TestCommLinks:
    def test_events_cross_linked_to_spans(self):
        model = small_model(tp=2, scheme="T2")
        prof = OpProfiler(record_events=False)
        input_ids, labels, mask = tiny_batch(model)
        with prof:
            with prof.span("step", cat="step", rank=0):
                with prof.span("forward"):
                    loss = model.loss(input_ids, labels, mask)
                with prof.span("backward"):
                    loss.backward()
        comms = of_kind(prof, "comm")
        assert comms, "TP=2 step must record collectives"
        assert len(comms) == len(model.tracker.events)
        spans = {s["name"]: s for s in of_kind(prof, "span")}
        assert spans["step"]["rank"] == 0
        for comm, event in zip(comms, model.tracker.events):
            assert (event.op, event.wire_bytes) == (comm["op"], comm["wire_bytes"])
            assert within(comm, spans["step"])
        fwd = [c for c in comms if within(c, spans["forward"])]
        bwd = [c for c in comms if within(c, spans["backward"])]
        assert fwd and bwd and len(fwd) + len(bwd) == len(comms)

    def test_comm_bytes_match_tracker_summary(self):
        model = small_model(tp=2, scheme="Q2")
        prof = OpProfiler(record_events=False)
        input_ids, labels, mask = tiny_batch(model)
        with prof:
            model.loss(input_ids, labels, mask).backward()
        expected = {"/".join(k): v for k, v in model.tracker.summary().items()}
        assert prof.comm_bytes() == expected

    def test_uninstall_restores_tracker_record(self):
        """The tracker is never patched: installing the profiler only makes
        its record the active one, and uninstalling hands the seam back."""
        model = small_model(tp=2)
        input_ids, labels, mask = tiny_batch(model)
        prof = OpProfiler(record_events=False)
        with prof:
            assert events.active() is prof.record
            assert "record" not in vars(model.tracker)
        assert events.active() is None
        model.loss(input_ids, labels, mask)
        assert model.tracker.events and of_kind(prof, "comm") == []


class TestSideChannel:
    """DESIGN decision #7: profiling observes numerics, never changes them."""

    def test_profiled_step_is_bitwise_identical(self):
        def run(profiled):
            model = small_model(tp=2, pp=2, scheme="A2")
            input_ids, labels, mask = tiny_batch(model)
            if profiled:
                prof = OpProfiler()
                with prof:
                    with prof.span("step", rank=0):
                        loss = model.loss(input_ids, labels, mask)
                        loss.backward()
            else:
                loss = model.loss(input_ids, labels, mask)
                loss.backward()
            grads = [p.grad.copy() for p in model.parameters() if p.grad is not None]
            return loss.item(), grads

        loss_plain, grads_plain = run(profiled=False)
        loss_prof, grads_prof = run(profiled=True)
        assert loss_plain == loss_prof
        assert len(grads_plain) == len(grads_prof)
        for g0, g1 in zip(grads_plain, grads_prof):
            np.testing.assert_array_equal(g0, g1)


class TestTraces:
    def setting(self):
        return SimSetting(ClusterTopology(1, 4, LinkType.PCIE), 2, 2, 32, 512,
                          num_microbatches=4, scheme="A2")

    def profiled(self):
        model = small_model(tp=2, scheme="A2")
        prof = OpProfiler()
        input_ids, labels, mask = tiny_batch(model)
        with prof:
            with prof.span("step", cat="step", rank=0):
                model.loss(input_ids, labels, mask).backward()
        return prof

    def test_profiled_trace_has_spans_ops_and_comm_instants(self):
        prof = self.profiled()
        trace = chrome_trace(prof.record.events)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["cat"] for e in slices} == {"step", "op.forward", "op.backward"}
        assert len(slices) <= 1 + len(of_kind(prof, "op"))  # zero-length ops drop
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(of_kind(prof, "comm")) > 0
        assert {e["cat"] for e in instants} == {"comm"}
        # The span names rank 0: its spans, ops and comms share that track.
        names = [e["args"]["name"] for e in trace["traceEvents"]
                 if e["name"] == "thread_name"]
        assert names == ["rank0"]

    def test_merged_trace_still_validates_breakdown(self):
        """Acceptance: merged real+simulated trace ≤ 1e-6 ms per column."""
        setting = self.setting()
        sim_trace = simulated_iteration_trace(setting)
        merged = merge_traces(chrome_trace(self.profiled().record.events), sim_trace,
                              meta={"purpose": "side-by-side"})
        breakdown = IterationSimulator(setting).breakdown()
        for column, diff in validate_against_breakdown(merged, breakdown).items():
            assert diff <= 1e-6, (column, diff)

    def test_merge_rehomes_pids(self):
        t1 = chrome_trace(self.profiled().record.events)
        t2 = simulated_iteration_trace(self.setting())
        merged = merge_traces(t1, t2)
        assert {e["pid"] for e in merged["traceEvents"]} == {1, 2}
        assert len(merged["traceEvents"]) == len(t1["traceEvents"]) + len(t2["traceEvents"])


class TestOverhead:
    def test_no_hook_fast_path_overhead_is_tiny(self):
        """With no profiler installed the per-op cost is one list check."""
        import timeit

        a = Tensor(np.ones((8, 8), dtype=np.float32))
        b = Tensor(np.ones((8, 8), dtype=np.float32))
        n = 2000
        baseline = min(timeit.repeat(lambda: a + b, number=n, repeat=5))
        again = min(timeit.repeat(lambda: a + b, number=n, repeat=5))
        # Same code path twice: the spread bounds measurement noise, the
        # guard itself is unmeasurable. This asserts the hook seam did not
        # install anything by default.
        from repro.tensor.tensor import _OP_HOOKS

        assert _OP_HOOKS == []
        assert again < baseline * 3  # sanity: no pathological slowdown
