"""RunRecorder: step lifecycle, instruments, sinks, and the no-op default."""

import csv
import json
import signal

import pytest

from repro.obs.metrics import NULL_RECORDER, NullRecorder, RunRecorder, step_records
from repro.parallel.backend import load_events


def recorder(**kw):
    return RunRecorder(run_id="test", **kw)


def kinds(events):
    return [e["kind"] for e in events]


class TestStepLifecycle:
    def test_step_records_wall_time(self):
        rec = recorder()
        with rec.step():
            pass
        (r,) = rec.records
        assert r["step"] == 0
        assert r["wall_ms"] > 0

    def test_steps_autonumber_and_accept_explicit_index(self):
        rec = recorder()
        with rec.step():
            pass
        with rec.step(10):
            pass
        with rec.step():
            pass
        assert [r["step"] for r in rec.records] == [0, 10, 11]

    def test_start_step_closes_unfinished_step(self):
        rec = recorder()
        rec.start_step()
        rec.start_step()
        rec.end_step()
        assert len(rec.records) == 2
        assert all(r["wall_ms"] is not None for r in rec.records)

    def test_end_without_start_raises(self):
        with pytest.raises(RuntimeError):
            recorder().end_step()

    def test_instrument_outside_step_opens_one(self):
        rec = recorder()
        rec.gauge("loss", 1.0)
        rec.end_step()
        assert rec.records[0]["gauges"] == {"loss": 1.0}


class TestInstruments:
    def test_gauge_last_write_wins(self):
        rec = recorder()
        with rec.step():
            rec.gauge("loss", 2.0)
            rec.gauge("loss", 1.0)
        assert rec.records[0]["gauges"]["loss"] == 1.0

    def test_counter_accumulates(self):
        rec = recorder()
        with rec.step():
            rec.count("samples", 32)
            rec.count("samples", 32)
        assert rec.records[0]["counters"]["samples"] == 64

    def test_timer_accumulates_across_blocks(self):
        rec = recorder()
        with rec.step():
            with rec.timer("forward"):
                pass
            with rec.timer("forward"):
                pass
        # One ``phase`` span per block; the timer is their sum.
        spans = [e for e in rec.events if e["kind"] == "span"]
        assert [(e["name"], e["cat"]) for e in spans] == [("forward", "phase")] * 2
        assert rec.records[0]["timers_ms"]["forward"] == pytest.approx(
            sum(e["dur"] for e in spans) * 1e3)


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        rec = recorder(meta={"scheme": "T2"}, stream_path=str(tmp_path / "run.jsonl"))
        with rec.step():
            rec.gauge("loss", 0.5)
            rec.count("samples", 8)
            with rec.timer("forward"):
                pass
        events = load_events(rec.stream_path)
        meta = events[0]
        assert meta["run_id"] == "test" and meta["scheme"] == "T2"
        (r,) = step_records(events)
        assert r["gauges"]["loss"] == 0.5
        assert r["counters"]["samples"] == 8
        assert r["timers_ms"]["forward"] > 0

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        rec = recorder(stream_path=str(tmp_path / "run.jsonl"))
        with rec.step():
            rec.gauge("loss", 1.0)
        with open(rec.stream_path) as fh:
            lines = [json.loads(line) for line in fh]
        assert kinds(lines) == ["meta", "step_begin", "gauge", "step_end"]
        assert {e["rank"] for e in lines} == {-1}  # the parent's rank
        assert [e["idx"] for e in lines] == [0, 1, 2, 3]
        assert lines == rec.events

    def test_csv_columns_are_union_over_steps(self, tmp_path):
        rec = recorder()
        with rec.step():
            rec.gauge("loss", 1.0)
        with rec.step():
            rec.gauge("lr", 0.1)
            rec.count("samples", 4)
        path = rec.to_csv(str(tmp_path / "run.csv"))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {"step", "wall_ms", "gauge.loss", "gauge.lr", "counter.samples"} \
            <= set(rows[0])
        assert rows[0]["gauge.loss"] == "1.0"
        assert rows[1]["gauge.lr"] == "0.1"

    def test_step_fold_tolerates_missing_meta(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text(
            '{"kind": "step_begin", "rank": -1, "idx": 0, "t": 1.0, "step": 0}\n'
            '{"kind": "step_end", "rank": -1, "idx": 1, "t": 1.5, "step": 0}\n')
        (record,) = step_records(load_events(path))
        assert record["t_start_ms"] == 0.0 and record["wall_ms"] == 500.0


class TestSummary:
    def test_aggregates(self):
        rec = recorder()
        for loss in (3.0, 2.0, 1.0):
            with rec.step():
                rec.gauge("loss", loss)
                rec.count("samples", 8)
                with rec.timer("forward"):
                    pass
        s = rec.summary()
        assert s["steps"] == 3
        assert s["gauges"]["loss"] == {"last": 1.0, "mean": 2.0, "min": 1.0, "max": 3.0}
        assert s["counters"]["samples"] == 24
        assert s["timers_ms"]["forward"] == pytest.approx(
            sum(r["timers_ms"]["forward"] for r in rec.records))
        assert s["wall_ms"] > 0


class TestNullRecorder:
    def test_is_disabled_and_records_nothing(self):
        rec = NullRecorder()
        assert not rec.enabled
        with rec.step():
            rec.gauge("loss", 1.0)
            rec.count("samples", 1)
            with rec.timer("forward"):
                pass
        assert rec.records == [] and kinds(rec.events) == ["meta"]

    def test_shared_singleton(self):
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert not NULL_RECORDER.enabled

    def test_default_recorder_is_enabled(self):
        assert RunRecorder().enabled


class TestStreamSink:
    def test_streams_each_step_as_a_complete_line(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        rec = RunRecorder(run_id="live", meta={"scheme": "T2"}, stream_path=path)
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["kind"] == "meta" and header["run_id"] == "live"
        for loss in (2.0, 1.0):
            with rec.step():
                rec.gauge("loss", loss)
            # Every completed step is already on disk, no close() needed.
            assert load_events(path) == rec.events
        assert step_records(load_events(path))[1]["gauges"]["loss"] == 1.0

    def test_a_new_recorder_starts_a_new_file(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        for run_id in ("first", "second"):
            with RunRecorder(run_id=run_id, stream_path=path).step():
                pass
        events = load_events(path)
        assert kinds(events) == ["meta", "step_begin", "step_end"]
        assert events[0]["run_id"] == "second"

    def test_sigkill_mid_run_leaves_no_truncated_line(self, tmp_path):
        """The satellite regression test: a child process streams steps and
        SIGKILLs itself with a step in flight; the file must contain the
        meta header plus exactly the completed steps, every line valid
        JSON."""
        import os
        import subprocess
        import sys

        import repro

        # The child must resolve `repro` the same way this process did,
        # regardless of how pytest was launched.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)

        path = str(tmp_path / "killed.jsonl")
        script = """
import os, signal
from repro.obs.metrics import RunRecorder

rec = RunRecorder(run_id="doomed", meta={"plan": "kill"}, stream_path=%r)
for step in range(3):
    with rec.step():
        rec.gauge("loss", 2.0 - 0.5 * step)
rec.start_step()          # a fourth step is in flight...
rec.gauge("loss", 0.0)
os.kill(os.getpid(), signal.SIGKILL)   # ...when the process dies
""" % path
        proc = subprocess.run([sys.executable, "-c", script], timeout=60,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == -signal.SIGKILL

        with open(path) as fh:
            raw = fh.readlines()
        objs = [json.loads(line) for line in raw]  # no truncated JSON line
        assert all(line.endswith("\n") for line in raw)
        assert kinds(objs) == ["meta"] + ["step_begin", "gauge", "step_end"] * 3
        events = load_events(path)
        assert events[0]["run_id"] == "doomed"
        assert [r["step"] for r in step_records(events)] == [0, 1, 2]
