"""The per-step fold (``step_rows``), the worker's step-end telemetry
events, window statistics and the run-level fold (``summarize``) over them."""

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.obs.metrics import RunRecorder, step_rows, summarize
from repro.obs.telemetry.agent import emit_step_telemetry
from repro.obs.telemetry import HealthMonitor
from repro.obs.telemetry.health import WINDOW, window, window_stats
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.backend import create_backend, events
from repro.parallel.backend.events import EventRecord
from tests.obs.helpers import events as events_of, row, steps_of


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
            _span("mp.fault", "fault:delay 0->1 seq 1", 1.5),
            *_faults(delay=3, kill=1),
            _ev("gauge", 0.0, name="loss", value=1.25),
            _ev("gauge", 0.0, name="ring_occupancy", value=3),
            _ev("gauge", 0.0, name="peak_rss_kb", value=1000.0),
        )
        (r,) = step_rows(events)
        assert list(r) == ["rank", "step", "t_start_ms", "wall_ms",
                           "comm_wait_ms", "busy_ms", "fault_ms", "delays",
                           "gauges", "counters", "timers_ms", "fidelity"]
        assert r["rank"] == 0 and r["step"] == 7
        assert r["wall_ms"] == pytest.approx(20.0)
        assert r["comm_wait_ms"] == pytest.approx(5.0)
        assert r["fault_ms"] == pytest.approx(1.5)
        assert r["busy_ms"] == pytest.approx(r["wall_ms"] - 5.0)
        assert r["delays"] == 3  # a kill is not a delay
        assert r["gauges"] == {"loss": 1.25, "ring_occupancy": 3,
                               "peak_rss_kb": 1000.0}
        assert r["timers_ms"] == {}  # mp.phase is compute, not a phase timer

    def test_fault_deltas_are_per_step_not_cumulative(self):
        # Counted from each step's own fault events, so a later step with
        # none reads zero whatever the plan's lifetime counters say.
        first, second = step_rows(_step(0, *_faults(delay=2)) + _step(1))
        assert first["delays"] == 2
        assert second["delays"] == 0

    def test_fidelity_block_from_probe_and_probe_reset(self):
        """A row's fidelity block is the fold of its own step's calls (it
        starts afresh each step): pp2 1F1B with m=4 microbatches makes
        four boundary sends per step, folded to their mean."""
        mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2,
                               num_heads=4, max_seq_len=16, dropout=0.0,
                               num_classes=2)
        model = ModelParallelBertClassifier(ModelParallelConfig(
            mc, tp=1, pp=2, scheme="T2", seed=0, pipeline_schedule="1f1b",
            num_microbatches=4))
        rng = np.random.default_rng(0)
        record = EventRecord(rank=1, world=2)
        events.install(record)
        try:
            with create_backend("inproc", model) as backend:
                for step, loss in ((0, 1.25), (1, None)):
                    record.emit("step_begin", step=step)
                    backend.train_step(rng.integers(0, 64, size=(8, 12)),
                                       rng.integers(0, 2, size=8))
                    emit_step_telemetry(record, loss=loss, ring_occupancy=2)
                    record.emit("step_end", step=step)
        finally:
            events.uninstall()
        flushed = record.flush()
        rows = step_rows(flushed)
        assert [r["step"] for r in rows] == [0, 1]
        begins = [i for i, e in enumerate(flushed) if e["kind"] == "step_begin"]
        for row, lo, hi in zip(rows, begins, begins[1:] + [len(flushed)]):
            calls = [e for e in flushed[lo:hi] if e["kind"] == "fidelity"]
            assert [e["site"] for e in calls] == ["boundary0"] * 4
            fid = row["fidelity"]["boundary0"]
            assert fid["rel_l2"] == pytest.approx(np.mean([e["rel_l2"] for e in calls]))
            assert fid["ratio"] == pytest.approx(np.mean([e["ratio"] for e in calls]))
            assert fid["residual_norm"] is None  # Top-K keeps no residual
        assert rows[0]["fidelity"] != rows[1]["fidelity"]  # a fold per step
        assert rows[0]["gauges"]["loss"] == 1.25
        assert rows[0]["gauges"]["ring_occupancy"] == 2
        assert rows[0]["gauges"]["peak_rss_kb"] >= 0.0
        # A stage without the loss emits no loss gauge.
        assert set(rows[1]["gauges"]) == {"ring_occupancy", "peak_rss_kb"}

    def test_fidelity_keeps_the_last_residual_norm(self):
        calls = [_ev("fidelity", 0.0, site="b0", rel_l2=r, ratio=4.0,
                     residual_norm=n) for r, n in ((0.1, 1.0), (0.3, 2.0))]
        (r,) = step_rows(_step(0, *calls))
        assert r["fidelity"] == {"b0": {"rel_l2": pytest.approx(0.2),
                                        "ratio": 4.0, "residual_norm": 2.0}}


class TestStepRows:
    def test_interleaved_ranks_fold_per_rank(self):
        # Two ranks' slices interleaved event by event, as a merged stream
        # can arrive: each rank's begin/end, waits and faults stay its own.
        rank0 = _step(0, _span("mp.wait", "recv", 2.0, rank=0),
                      *_faults(rank=0, kill=1), wall_s=0.010, rank=0, t0=1.0)
        rank1 = _step(0, _span("mp.wait", "recv", 7.0, rank=1),
                      *_faults(rank=1, delay=1), wall_s=0.030, rank=1, t0=1.002)
        merged = [e for pair in zip(rank0, rank1) for e in pair]
        r0, r1 = step_rows(merged)
        assert (r0["rank"], r1["rank"]) == (0, 1)
        assert r0["wall_ms"] == pytest.approx(10.0)
        assert r1["wall_ms"] == pytest.approx(30.0)
        assert r0["comm_wait_ms"] == pytest.approx(2.0)
        assert r1["comm_wait_ms"] == pytest.approx(7.0)
        assert (r0["delays"], r1["delays"]) == (0, 1)
        assert r0["t_start_ms"] == r1["t_start_ms"] == 0.0  # own first event

    def test_events_outside_a_step_are_ignored(self):
        events = [_ev("meta", 0.5, world=2), *_faults(delay=3),
                  *_step(0), _span("mp.wait", "late", 9.0)]
        (r,) = step_rows(events)
        assert r["delays"] == 0 and r["comm_wait_ms"] == 0.0
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
        rows = [row(rank, step, wall_ms=float(step), comm_wait_ms=0.0,
                    busy_ms=float(step))
                for step in range(WINDOW + 6) for rank in (-1, 0, 1)]
        recent = window(rows)
        assert len(recent) == 3 * WINDOW
        assert {r["step"] for r in recent} == set(range(6, WINDOW + 6))
        wall = summarize(events_of(rows))["per_rank"][0]["wall_ms"]
        assert (wall["count"], wall["window"]) == (WINDOW + 6, WINDOW)
        assert wall["min"] == 6.0


def straggler_run(steps=5):
    """Four ranks, rank 1 busy 6x its peers, and the parent's flat loss."""
    busy = {0: 10.0, 1: 60.0, 2: 10.0, 3: 10.0}
    rows = steps_of({rank: {"busy_ms": b} for rank, b in busy.items()}, steps)
    rows += [row(-1, step, gauges={"loss": 1.0}) for step in range(steps)]
    return sorted(rows, key=lambda r: r["step"])


def long_run(steps=200):
    """Four ranks over more than three windows: rank 2 stops reporting
    after step 80 (its last rows stay in every later window), rank 1
    straggles over steps 100-149, and the parent's loss reads 0.5 at
    step 10, 9.0 at step 170 and 1.2 elsewhere (the divergence rule fires
    while step 10 is in the window, clears, and fires again)."""
    rows = []
    for step in range(steps):
        for rank in range(4):
            if rank != 2 or step <= 80:
                rows.append(row(rank, step, busy_ms=60.0 if rank == 1 and 100 <= step < 150
                                else 10.0))
        loss = {10: 0.5, 170: 9.0}.get(step, 1.2)
        rows.append(row(-1, step, gauges={"loss": loss}))
    return rows


class TestSnapshot:
    """``summarize``'s windows, per-site fold and replayed alerts."""

    def test_rows_feed_per_rank_and_pooled_windows(self):
        snap = summarize(events_of([row(0, 0, wall_ms=10.0, busy_ms=6.0),
                                    row(1, 0, wall_ms=30.0, busy_ms=26.0)]))
        assert snap["per_rank"][0]["wall_ms"]["last"] == pytest.approx(10.0)
        assert snap["pooled"]["wall_ms"]["window"] == 2
        assert snap["pooled"]["wall_ms"]["mean"] == pytest.approx(20.0)
        assert snap["last_step"] == {0: 0, 1: 0}

    def test_fidelity_pools_per_site(self):
        snap = summarize(events_of([row(0, 0, fidelity={
            "boundary0": {"rel_l2": 0.1, "ratio": 4.0, "residual_norm": None}})]))
        assert list(snap["fidelity"]) == ["boundary0"]
        assert snap["fidelity"]["boundary0"]["rel_l2_mean"] == 0.1
        # A None residual stays None.
        assert snap["fidelity"]["boundary0"]["residual_norm_last"] is None

    def test_snapshot_shape(self):
        fidelity = {"boundary0": {"rel_l2": 0.1, "ratio": 4.0,
                                  "residual_norm": 2.0}}
        rows = [row(-1, 3, gauges={"loss": 1.5}),
                row(0, 3, gauges={"loss": 1.0}, fidelity=fidelity),
                row(1, 3, gauges={"loss": 2.0})]
        snap = summarize(events_of(rows, run_id="shape"))
        assert snap["run_id"] == "shape" and snap["ranks"] == [0, 1]
        assert snap["last_step"] == {0: 3, 1: 3}
        assert snap["per_rank"][0]["wall_ms"]["window"] == 1
        assert snap["per_rank"][1]["loss"]["last"] == 2.0
        # The parent's loss is the run's: one value per step, not per rank.
        assert snap["pooled"]["loss"]["count"] == 1
        assert snap["pooled"]["loss"]["last"] == 1.5
        assert snap["gauges"] == {"loss": {"last": 1.5, "mean": 1.5,
                                           "min": 1.5, "max": 1.5}}
        assert snap["steps"] == 1
        assert snap["fidelity"]["boundary0"]["rel_l2_mean"] == 0.1

    def test_alerts_replay_the_live_checks(self):
        """A straggler that stays tripped, as ``top`` once checked it live
        after every step, is one alert; ``summarize`` replays exactly that."""
        busy = {0: 10.0, 1: 60.0, 2: 10.0, 3: 10.0}
        rows = steps_of({rank: {"busy_ms": b} for rank, b in busy.items()}, 5)
        rows += [row(-1, step, gauges={"loss": 1.0}) for step in range(5)]
        rows.sort(key=lambda r: r["step"])
        stream = events_of(rows, run_id="straggler")
        folded = step_rows(stream)
        live = HealthMonitor()
        for step in range(5):
            live.check([r for r in folded if r["step"] <= step], step)
        replayed = summarize(stream)["health"]
        assert replayed == live.summary()
        (alert,) = replayed["alerts"]
        assert (alert["rule"], alert["rank"], alert["step"]) == ("straggler", 1, 1)

    @pytest.mark.parametrize("rows", [straggler_run(), long_run()], ids=["straggler", "long"])
    def test_replay_reads_only_the_window_and_matches_the_full_replay(self, rows):
        """Each replayed check sees each rank's last ``WINDOW`` rows, not the
        whole run so far; the alerts are those of checking every row up to
        each step, as the rules read only the window either way."""
        stream = events_of(rows, run_id="replay")
        folded = step_rows(stream)
        full = HealthMonitor()
        for i, r in enumerate(folded):
            if i + 1 == len(folded) or folded[i + 1]["step"] != r["step"]:
                full.check(folded[:i + 1], r["step"])
        replayed = summarize(stream)["health"]
        assert replayed == full.summary()
        assert replayed["alerts"]
