"""Pipeline schedule machinery + 1F1B end-to-end equivalence.

:func:`repro.parallel.pipeline.schedule_ops` is the single op list the
backend workers execute verbatim; these tests pin its structure (warmup
depth, steady-state interleave, ascending backward order, peak in-flight
accounting) and then drive the real mp gang under 1F1B, asserting losses,
gradients and the comm-event multiset stay bitwise-identical to the
serial inproc oracle — the schedule reorders work, it must never change
a single bit of it.
"""

from collections import Counter

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.parallel.backend import create_backend
from repro.parallel.pipeline import (
    SCHEDULES,
    ScheduleOp,
    iteration_slots,
    peak_inflight_microbatches,
    schedule_ops,
    warmup_depth,
)
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig

MP_TIMEOUT = 30.0


def make_model(scheme, tp, pp, schedule="gpipe", m=1):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=3)
    cfg = ModelParallelConfig(model=mc, tp=tp, pp=pp, scheme=scheme, seed=0,
                              backend="inproc", pipeline_schedule=schedule,
                              num_microbatches=m)
    return ModelParallelBertClassifier(cfg)


def make_batch(seed=0, batch=4):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 64, size=(batch, 12))
    labels = rng.integers(0, 3, size=(batch,))
    mask = np.ones((batch, 12), dtype=np.int64)
    return ids, labels, mask


def event_key(e):
    return (e.op, e.group, e.phase, e.scheme, e.wire_bytes, e.world, e.shape,
            e.layer, e.site)


class TestScheduleOps:
    def test_gpipe_is_all_forwards_then_all_backwards(self):
        ops = schedule_ops("gpipe", 4, 1, 3)
        assert ops == [ScheduleOp("F", 0), ScheduleOp("F", 1), ScheduleOp("F", 2),
                       ScheduleOp("B", 0), ScheduleOp("B", 1), ScheduleOp("B", 2)]

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("pp,m", [(2, 1), (2, 4), (4, 2), (4, 8)])
    def test_every_microbatch_forward_and_backward_once(self, schedule, pp, m):
        for stage in range(pp):
            ops = schedule_ops(schedule, pp, stage, m)
            assert Counter(o.kind for o in ops) == {"F": m, "B": m}
            fwd = [o.microbatch for o in ops if o.kind == "F"]
            bwd = [o.microbatch for o in ops if o.kind == "B"]
            # Ascending order in BOTH directions under BOTH schedules:
            # this is what keeps gradient accumulation (and stateful
            # compressor streams) bitwise-identical across schedules.
            assert fwd == sorted(range(m)) and bwd == sorted(range(m))

    def test_1f1b_warmup_depth_shrinks_downstream(self):
        assert [warmup_depth("1f1b", 4, s, 8) for s in range(4)] == [3, 2, 1, 0]
        # Capped by m when the pipeline is deeper than the microbatch count.
        assert warmup_depth("1f1b", 4, 0, 2) == 2
        assert [warmup_depth("gpipe", 4, s, 8) for s in range(4)] == [8] * 4

    def test_1f1b_steady_state_alternates(self):
        ops = schedule_ops("1f1b", 4, 0, 8)
        kinds = "".join(o.kind for o in ops)
        assert kinds == "FFF" + "FB" * 5 + "BBB"

    def test_last_stage_has_no_warmup(self):
        ops = schedule_ops("1f1b", 4, 3, 4)
        assert "".join(o.kind for o in ops) == "FBFBFBFB"

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("pp,m", [(2, 4), (4, 2), (4, 8)])
    def test_peak_inflight_matches_op_walk(self, schedule, pp, m):
        """The memory headline is derivable from the op list itself."""
        for stage in range(pp):
            live = peak = 0
            for op in schedule_ops(schedule, pp, stage, m):
                live += 1 if op.kind == "F" else -1
                peak = max(peak, live)
            assert peak == peak_inflight_microbatches(schedule, pp, stage, m)
            assert peak <= peak_inflight_microbatches("gpipe", pp, stage, m)

    def test_1f1b_keeps_gpipe_slot_count(self):
        assert iteration_slots("1f1b", 8, 4) == iteration_slots("gpipe", 8, 4) == 11

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline schedule"):
            schedule_ops("interleaved", 2, 0, 4)
        with pytest.raises(ValueError, match="pipeline_schedule"):
            make_model("w/o", 1, 2, schedule="zigzag")

    def test_env_var_sets_default_schedule(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE", "1f1b")
        mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4,
                               num_heads=4, max_seq_len=16, dropout=0.0,
                               num_classes=3)
        assert ModelParallelConfig(model=mc, tp=1, pp=2).pipeline_schedule == "1f1b"
        monkeypatch.delenv("REPRO_SCHEDULE")
        assert ModelParallelConfig(model=mc, tp=1, pp=2).pipeline_schedule == "gpipe"


class TestScheduleOpValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScheduleOp("X", 0)

    def test_negative_microbatch_rejected(self):
        with pytest.raises(ValueError):
            ScheduleOp("F", -1)

    def test_valid_ops_construct(self):
        assert ScheduleOp("F", 0).kind == "F"
        assert ScheduleOp("B", 3).microbatch == 3


class Test1F1BEquivalence:
    """The 1F1B mp gang against the serial microbatched oracle."""

    @pytest.mark.parametrize("tp,pp,scheme", [
        (2, 2, "A2"),   # learnable codec: grads replayed over raw partials
        (1, 2, "Q2"),   # pure PP, quantized boundary
        (2, 2, "R2"),   # per-site RNG streams must advance in mb order
    ])
    def test_1f1b_step_matches_oracle_bitwise(self, tp, pp, scheme):
        m = 2
        ids, labels, mask = make_batch()
        oracle_model = make_model(scheme, tp, pp, schedule="gpipe", m=m)
        mp_model = make_model(scheme, tp, pp, schedule="1f1b", m=m)

        ref = create_backend("inproc", oracle_model).train_step(ids, labels, mask)
        backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
        try:
            got = backend.train_step(ids, labels, mask)
        finally:
            backend.close()

        assert got.loss == ref.loss  # bitwise, not allclose
        ref_grads = {n: p.grad for n, p in oracle_model.named_parameters()
                     if p.grad is not None}
        assert set(got.grads) == set(ref_grads)
        for name in sorted(ref_grads):
            assert np.array_equal(got.grads[name], ref_grads[name]), name
        assert Counter(map(event_key, got.events)) == \
            Counter(map(event_key, ref.events))

    def test_1f1b_timelines_carry_async_spans(self):
        """Steady-state 1F1B keeps sends in flight: the worker timelines
        must record ``mp.async`` windows, and the trace exporter must turn
        them into Chrome async ``b``/``e`` pairs."""
        from repro.obs.trace import chrome_trace

        model = make_model("T2", 1, 2, schedule="1f1b", m=2)
        backend = create_backend("mp", model, timeout=MP_TIMEOUT,
                                 collect_timelines=True)
        try:
            result = backend.train_step(*make_batch())
        finally:
            backend.close()

        async_spans = [s for spans in result.timelines.values()
                       for s in spans if s["cat"] == "mp.async"]
        assert async_spans, "no in-flight comm window was recorded"

        trace = chrome_trace([e for events in result.record.values()
                              for e in events], {"run_id": "t"})
        begins = [e for e in trace["traceEvents"] if e.get("ph") == "b"]
        ends = [e for e in trace["traceEvents"] if e.get("ph") == "e"]
        assert begins and len(begins) == len(ends)
        assert all(e["cat"] == "mp.async" for e in begins)
        assert len({e["id"] for e in begins}) == len(begins)  # distinct ids
        # No mp.async span leaked through as an X slice.
        assert not [e for e in trace["traceEvents"]
                    if e.get("ph") == "X" and e.get("cat") == "mp.async"]
