"""The step-summary fold, SlidingWindow statistics, Collector ingestion."""

import math

import numpy as np
import pytest

from repro.obs.fidelity import FidelityProbe
from repro.obs.telemetry import Collector, SlidingWindow, enabled, step_summary
from repro.parallel.backend.events import EventRecord


def _ev(kind, t, **fields):
    return {"kind": kind, "rank": 0, "idx": 0, "t": t, **fields}


def _span(cat, name, dur_ms):
    return _ev("span", 0.0, name=name, cat=cat, dur=dur_ms / 1e3)


def _faults(**counts):
    return [_ev("fault", 0.0, fault=kind) for kind, n in counts.items()
            for _ in range(n)]


def _step(step, *body, wall_s=0.020):
    return [_ev("step_begin", 1.0, step=step), *body,
            _ev("step_end", 1.0 + wall_s, step=step)]


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
        )
        event = step_summary(events, loss=1.25, ring_occupancy=3,
                             peak_rss_kb=1000.0)
        assert event["step"] == 7
        assert event["wall_ms"] == pytest.approx(20.0)
        assert event["comm_wait_ms"] == pytest.approx(5.0)
        assert event["fault_ms"] == pytest.approx(1.5)
        assert event["busy_ms"] == pytest.approx(event["wall_ms"] - 5.0)
        assert event["ring_occupancy"] == 3
        assert event["retries"] == 3 and event["drops"] == 2
        assert event["delays"] == 1
        assert event["loss"] == 1.25
        assert event["peak_rss_kb"] == 1000.0

    def test_fault_deltas_are_per_step_not_cumulative(self):
        # Counted from the slice's own fault events, so a later step with
        # none reads zero whatever the plan's lifetime counters say.
        first = step_summary(_step(0, *_faults(drop=2)))
        second = step_summary(_step(1))
        assert first["drops"] == 2
        assert second["drops"] == 0

    def test_fidelity_block_from_probe_and_probe_reset(self):
        probe = FidelityProbe()
        x = np.ones(8)
        probe.observe(site="layer2.mlp", scheme="T2", group="tp",
                      original=x, reconstructed=x * 0.9,
                      wire_bytes=16, dense_bytes=64, residual=x * 0.1)
        event = step_summary(_step(0), fidelity=probe.per_site())
        fid = event["fidelity"]["layer2.mlp"]
        assert fid["rel_l2"] == pytest.approx(0.1)
        assert fid["ratio"] == pytest.approx(4.0)
        assert fid["residual_norm"] == pytest.approx(np.linalg.norm(x * 0.1))
        probe.reset()
        assert "fidelity" not in step_summary(_step(1),
                                              fidelity=probe.per_site())


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


class TestSlidingWindow:
    def test_ring_evicts_but_count_is_lifetime(self):
        win = SlidingWindow(3)
        for v in (1, 2, 3, 4, 5):
            win.push(v)
        assert win.values() == [3.0, 4.0, 5.0]
        assert len(win) == 3 and win.count == 5

    def test_exact_statistics(self):
        win = SlidingWindow(8)
        for v in (1, 2, 3, 4, 5):
            win.push(v)
        assert win.mean() == pytest.approx(3.0)
        assert win.std() == pytest.approx(math.sqrt(2.0))
        assert win.min() == 1.0 and win.max() == 5.0
        assert win.last == 5.0
        assert win.p50() == pytest.approx(3.0)
        assert win.p99() == pytest.approx(4.96)  # interpolated, exact

    def test_ewma(self):
        win = SlidingWindow(8, ewma_alpha=0.5)
        win.push(10.0)
        win.push(20.0)
        assert win.ewma == pytest.approx(15.0)

    def test_empty_window_stats_are_none_or_nan(self):
        win = SlidingWindow(4)
        stats = win.stats()
        assert stats["count"] == 0 and stats["window"] == 0
        assert stats["last"] is None and stats["mean"] is None
        assert math.isnan(win.mean()) and math.isnan(win.p50())

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)
        with pytest.raises(ValueError):
            SlidingWindow(4, ewma_alpha=0.0)


def step_event(rank, step, **fields):
    base = {"kind": "step", "rank": rank, "idx": 0, "t": 0.0, "step": step,
            "wall_ms": 10.0, "comm_wait_ms": 4.0, "busy_ms": 6.0,
            "fault_ms": 0.0, "ring_occupancy": 1, "retries": 0, "drops": 0,
            "delays": 0, "peak_rss_kb": 1000.0}
    base.update(fields)
    return base


class TestCollector:
    def test_meta_registers_rank_and_world(self):
        coll = Collector()
        coll.ingest({"kind": "meta", "rank": 2, "idx": 0, "t": 0.0, "world": 4})
        assert coll.ranks() == [2]
        assert coll.world == 4

    def test_step_feeds_per_rank_and_pooled_series(self):
        coll = Collector()
        coll.ingest(step_event(0, 0, wall_ms=10.0))
        coll.ingest(step_event(1, 0, wall_ms=30.0))
        assert coll.series(0, "wall_ms").values() == [10.0]
        assert coll.series(None, "wall_ms").values() == [10.0, 30.0]
        assert coll.last_step(1) == 0

    def test_fidelity_pools_per_site(self):
        coll = Collector()
        coll.ingest(step_event(0, 0, fidelity={
            "boundary0": {"rel_l2": 0.1, "ratio": 4.0, "residual_norm": None},
        }))
        assert coll.sites() == ["boundary0"]
        assert coll.series(None, "fidelity/boundary0/rel_l2").values() == [0.1]
        # None residual never becomes a sample
        assert len(coll.series(None, "fidelity/boundary0/residual_norm")) == 0

    def test_unknown_events_are_counted_but_ignored(self):
        coll = Collector()
        coll.ingest({"kind": "fault", "rank": 0, "idx": 0, "t": 0.0,
                     "fault": "kill"})
        coll.ingest({"kind": "span", "rank": 0, "idx": 1, "t": 0.0,
                     "name": "barrier", "cat": "mp.wait", "dur": 0.001})
        assert coll.events_seen == 2
        assert coll.ranks() == []

    def test_ingest_record_takes_every_ranks_slice(self):
        coll = Collector()
        record = {0: [step_event(0, 0), step_event(0, 1)],
                  1: [step_event(1, 0)]}
        coll.ingest_record(record)
        assert coll.events_seen == 3
        assert coll.ranks() == [0, 1] and coll.last_step(0) == 1
        coll.ingest_record({})  # telemetry off: nothing rides
        assert coll.events_seen == 3

    def test_snapshot_shape(self):
        coll = Collector()
        coll.ingest({"kind": "meta", "rank": 0, "idx": 0, "t": 0.0, "world": 2})
        coll.ingest(step_event(0, 3, loss=1.5, fidelity={
            "boundary0": {"rel_l2": 0.1, "ratio": 4.0, "residual_norm": 2.0},
        }))
        snap = coll.snapshot()
        assert snap["world"] == 2 and snap["ranks"] == [0]
        assert snap["last_step"] == {"0": 3}
        assert snap["per_rank"]["0"]["wall_ms"]["window"] == 1
        assert snap["pooled"]["loss"]["last"] == 1.5
        assert snap["fidelity"]["boundary0"]["rel_l2"]["mean"] == 0.1
