"""The per-step fold (``step_rows``), the worker's step-end telemetry
events, window statistics and the registry snapshot over rows."""

import numpy as np
import pytest

from repro.obs.fidelity import FidelityProbe
from repro.obs.metrics import RunRecorder, step_rows
from repro.obs.telemetry import enabled
from repro.obs.telemetry.agent import emit_step_telemetry
from repro.obs.telemetry.health import WINDOW, window, window_stats
from repro.obs.telemetry.registry import telemetry_snapshot
from repro.parallel.backend.events import EventRecord
from tests.obs.helpers import row


def _ev(kind, t, rank=0, **fields):
    return {"kind": kind, "rank": rank, "idx": 0, "t": t, **fields}


def _span(cat, name, dur_ms, rank=0):
    return _ev("span", 0.0, rank, name=name, cat=cat, dur=dur_ms / 1e3)


def _faults(rank=0, **counts):
    return [_ev("fault", 0.0, rank, fault=kind) for kind, n in counts.items()
            for _ in range(n)]


def _step(step, *body, wall_s=0.020, rank=0, t0=1.0):
    return [_ev("step_begin", t0, rank, step=step), *body,
            _ev("step_end", t0 + wall_s, rank, step=step)]


class TestAgentEvents:
    def test_meta_event_emitted_at_construction(self):
        (meta,) = EventRecord(rank=0, world=4).flush()
        assert meta["kind"] == "meta"
        assert meta["rank"] == 0
        assert meta["world"] == 4

    def test_publish_batches_and_clears_buffer(self):
        record = EventRecord(rank=0, world=4)
        record.emit("fault", fault="kill", step=3)
        assert [e["kind"] for e in record.flush()] == ["meta", "fault"]
        assert record.flush() == []  # the slice is handed over once

    def test_record_step_shape_and_derived_fields(self):
        events = _step(
            7,
            _span("mp.phase", "forward", 5.0),
            _span("mp.wait", "recv", 3.0),
            _span("mp.wait", "barrier", 2.0),
            _span("mp.fault", "retry", 1.5),
            *_faults(drop=2, corrupt=1, delay=1),
            _ev("gauge", 0.0, name="loss", value=1.25),
            _ev("gauge", 0.0, name="ring_occupancy", value=3),
            _ev("gauge", 0.0, name="peak_rss_kb", value=1000.0),
        )
        (r,) = step_rows(events)
        assert list(r) == ["rank", "step", "t_start_ms", "wall_ms",
                           "comm_wait_ms", "busy_ms", "fault_ms", "retries",
                           "drops", "delays", "gauges", "counters",
                           "timers_ms", "fidelity"]
        assert r["rank"] == 0 and r["step"] == 7
        assert r["wall_ms"] == pytest.approx(20.0)
        assert r["comm_wait_ms"] == pytest.approx(5.0)
        assert r["fault_ms"] == pytest.approx(1.5)
        assert r["busy_ms"] == pytest.approx(r["wall_ms"] - 5.0)
        assert r["retries"] == 3 and r["drops"] == 2
        assert r["delays"] == 1
        assert r["gauges"] == {"loss": 1.25, "ring_occupancy": 3,
                               "peak_rss_kb": 1000.0}
        assert r["timers_ms"] == {}  # mp.phase is compute, not a phase timer

    def test_fault_deltas_are_per_step_not_cumulative(self):
        # Counted from each step's own fault events, so a later step with
        # none reads zero whatever the plan's lifetime counters say.
        first, second = step_rows(_step(0, *_faults(drop=2)) + _step(1))
        assert first["drops"] == 2
        assert second["drops"] == 0

    def test_fidelity_block_from_probe_and_probe_reset(self):
        probe = FidelityProbe()
        x = np.ones(8)
        probe.observe(site="layer2.mlp", scheme="T2", group="tp",
                      original=x, reconstructed=x * 0.9,
                      wire_bytes=16, dense_bytes=64, residual=x * 0.1)
        record = EventRecord(rank=1, world=2)
        for step, loss in ((0, 1.25), (1, None)):
            record.emit("step_begin", step=step)
            emit_step_telemetry(record, probe, loss=loss, ring_occupancy=2)
            record.emit("step_end", step=step)
        first, second = step_rows(record.flush())
        fid = first["fidelity"]["layer2.mlp"]
        assert fid["rel_l2"] == pytest.approx(0.1)
        assert fid["ratio"] == pytest.approx(4.0)
        assert fid["residual_norm"] == pytest.approx(np.linalg.norm(x * 0.1))
        assert first["gauges"]["loss"] == 1.25
        assert first["gauges"]["ring_occupancy"] == 2
        assert first["gauges"]["peak_rss_kb"] >= 0.0
        # The probe was reset; a stage without the loss emits no loss gauge.
        assert second["fidelity"] == {}
        assert set(second["gauges"]) == {"ring_occupancy", "peak_rss_kb"}


class TestEnvGate:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not enabled()

    def test_zero_counts_as_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert not enabled()

    def test_any_other_value_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert enabled()


class TestStepRows:
    def test_interleaved_ranks_fold_per_rank(self):
        # Two ranks' slices interleaved event by event, as a merged stream
        # can arrive: each rank's begin/end, waits and faults stay its own.
        rank0 = _step(0, _span("mp.wait", "recv", 2.0, rank=0),
                      *_faults(rank=0, drop=1), wall_s=0.010, rank=0, t0=1.0)
        rank1 = _step(0, _span("mp.wait", "recv", 7.0, rank=1),
                      *_faults(rank=1, delay=1), wall_s=0.030, rank=1, t0=1.002)
        merged = [e for pair in zip(rank0, rank1) for e in pair]
        r0, r1 = step_rows(merged)
        assert (r0["rank"], r1["rank"]) == (0, 1)
        assert r0["wall_ms"] == pytest.approx(10.0)
        assert r1["wall_ms"] == pytest.approx(30.0)
        assert r0["comm_wait_ms"] == pytest.approx(2.0)
        assert r1["comm_wait_ms"] == pytest.approx(7.0)
        assert (r0["drops"], r0["delays"]) == (1, 0)
        assert (r1["drops"], r1["delays"]) == (0, 1)
        assert r0["t_start_ms"] == r1["t_start_ms"] == 0.0  # own first event

    def test_events_outside_a_step_are_ignored(self):
        events = [_ev("meta", 0.5, world=2), *_faults(drop=3),
                  *_step(0), _span("mp.wait", "late", 9.0)]
        (r,) = step_rows(events)
        assert r["drops"] == 0 and r["comm_wait_ms"] == 0.0
        assert r["t_start_ms"] == pytest.approx(500.0)  # from the meta event

    def test_parent_rows_are_rank_minus_one(self):
        rec = RunRecorder()
        with rec.step():
            rec.gauge("loss", 2.0)
            rec.count("samples", 4)
            rec.count("samples", 4)
        (r,) = rec.records
        assert r["rank"] == -1
        assert r["gauges"] == {"loss": 2.0} and r["counters"] == {"samples": 8}


class TestWindowStats:
    def test_exact_statistics(self):
        stats = window_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats["count"] == stats["window"] == 5
        assert stats["mean"] == pytest.approx(3.0)
        assert stats["min"] == 1.0 and stats["max"] == 5.0
        assert stats["last"] == 5.0
        assert stats["p50"] == pytest.approx(3.0)
        assert stats["p99"] == pytest.approx(4.96)  # interpolated, exact

    def test_percentile_interpolates_between_neighbours(self):
        stats = window_stats([10.0, 0.0])  # order-free: sorted first
        assert stats["p50"] == pytest.approx(5.0)
        assert stats["p99"] == pytest.approx(9.9)
        assert window_stats([7.0])["p99"] == 7.0

    def test_empty_window_stats_are_none(self):
        stats = window_stats([])
        assert stats["count"] == 0 and stats["window"] == 0
        assert all(stats[k] is None
                   for k in ("last", "mean", "min", "max", "p50", "p99"))

    def test_window_keeps_each_ranks_last_steps_and_count_is_lifetime(self):
        rows = [row(rank, step, wall_ms=float(step))
                for step in range(WINDOW + 6) for rank in (-1, 0, 1)]
        recent = window(rows)
        assert len(recent) == 3 * WINDOW
        assert {r["step"] for r in recent} == set(range(6, WINDOW + 6))
        wall = telemetry_snapshot(rows)["per_rank"]["0"]["wall_ms"]
        assert (wall["count"], wall["window"]) == (WINDOW + 6, WINDOW)
        assert wall["min"] == 6.0


class TestSnapshot:
    def test_rows_feed_per_rank_and_pooled_windows(self):
        snap = telemetry_snapshot([row(0, 0, wall_ms=10.0),
                                   row(1, 0, wall_ms=30.0)])
        assert snap["per_rank"]["0"]["wall_ms"]["last"] == 10.0
        assert snap["pooled"]["wall_ms"]["window"] == 2
        assert snap["pooled"]["wall_ms"]["mean"] == 20.0
        assert snap["last_step"] == {"0": 0, "1": 0}

    def test_fidelity_pools_per_site(self):
        snap = telemetry_snapshot([row(0, 0, fidelity={
            "boundary0": {"rel_l2": 0.1, "ratio": 4.0, "residual_norm": None}})])
        assert list(snap["fidelity"]) == ["boundary0"]
        assert snap["fidelity"]["boundary0"]["rel_l2"]["last"] == 0.1
        # A None residual never becomes a sample.
        assert "residual_norm" not in snap["fidelity"]["boundary0"]

    def test_snapshot_shape(self):
        fidelity = {"boundary0": {"rel_l2": 0.1, "ratio": 4.0,
                                  "residual_norm": 2.0}}
        rows = [row(-1, 3, gauges={"loss": 1.5}),
                row(0, 3, gauges={"loss": 1.0}, fidelity=fidelity),
                row(1, 3, gauges={"loss": 2.0})]
        snap = telemetry_snapshot(rows)
        assert snap["world"] == 2 and snap["ranks"] == [0, 1]
        assert snap["last_step"] == {"0": 3, "1": 3}
        assert snap["per_rank"]["0"]["wall_ms"]["window"] == 1
        assert snap["per_rank"]["1"]["loss"]["last"] == 2.0
        # The parent's loss is the run's: one value per step, not per rank.
        assert snap["pooled"]["loss"]["count"] == 1
        assert snap["pooled"]["loss"]["last"] == 1.5
        assert snap["fidelity"]["boundary0"]["rel_l2"]["mean"] == 0.1
