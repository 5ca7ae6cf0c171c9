"""python -m repro.obs: report, smoke and sim-trace subcommands."""

import json
import re

from repro.lint.race_check import run_race_check_on_path
from repro.obs.cli import main
from repro.obs.metrics import RunRecorder
from repro.obs.trace import worker_timelines_trace
from repro.parallel.backend import load_events, span_view


def make_jsonl(tmp_path):
    rec = RunRecorder(run_id="cli-test", meta={"scheme": "T2"})
    for loss in (2.0, 1.0):
        with rec.step():
            rec.gauge("loss", loss)
            with rec.timer("forward"):
                pass
    return rec.to_jsonl(str(tmp_path / "run.jsonl"))


class TestReport:
    def test_prints_summary(self, tmp_path, capsys):
        assert main(["report", make_jsonl(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "loss" in out and "forward" in out

    def test_trace_export_flag(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.trace.json")
        assert main(["report", make_jsonl(tmp_path), "--trace", trace_path]) == 0
        with open(trace_path) as fh:
            trace = json.load(fh)
        assert trace["traceEvents"]

    def test_missing_file_fails_gracefully(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["report", missing]) == 1
        err = capsys.readouterr().err
        assert "not found" in err and "nope.jsonl" in err

    def test_empty_jsonl_fails_gracefully(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "no step records" in err

    def test_meta_only_jsonl_fails_gracefully(self, tmp_path, capsys):
        # A header line but zero step records — e.g. a crashed run.
        header_only = tmp_path / "header.jsonl"
        header_only.write_text('{"type": "meta", "run_id": "crashed"}\n')
        assert main(["report", str(header_only)]) == 1
        assert "no step records" in capsys.readouterr().err

    def test_unparseable_file_fails_gracefully(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("this is not json\n")
        assert main(["report", str(garbage)]) == 1
        assert "error" in capsys.readouterr().err

    def test_reports_fidelity_sidecar(self, tmp_path, capsys):
        run = make_jsonl(tmp_path)
        sidecar = str(tmp_path / "run.fidelity.json")
        with open(sidecar, "w") as fh:
            json.dump({"records": 2, "per_site": {
                "layer2.mlp.rank0": {"scheme": "topk", "group": "tp", "count": 2,
                                     "rel_l2_error_mean": 0.5, "rel_l2_error_max": 0.6,
                                     "ratio_mean": 8.0, "residual_norm_last": None},
            }}, fh)
        assert main(["report", run]) == 0
        out = capsys.readouterr().out
        assert "layer2.mlp.rank0" in out


class TestSimTrace:
    def test_writes_valid_trace(self, tmp_path, capsys):
        out_path = str(tmp_path / "sim.json")
        assert main(["sim-trace", "--out", out_path, "--scheme", "T2"]) == 0
        with open(out_path) as fh:
            trace = json.load(fh)
        assert trace["displayTimeUnit"] == "ms"
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])


class TestSmoke:
    def test_single_scheme_smoke_produces_artifacts(self, tmp_path, capsys):
        assert main(["smoke", "--outdir", str(tmp_path), "--schemes", "T2",
                     "--epochs", "1", "--batch-size", "64"]) == 0
        jsonl = tmp_path / "smoke-T2.jsonl"
        csv_path = tmp_path / "smoke-T2.csv"
        trace = tmp_path / "smoke-T2.trace.json"
        fidelity = tmp_path / "smoke-T2.fidelity.json"
        for path in (jsonl, csv_path, trace, fidelity):
            assert path.exists(), path
        with open(fidelity) as fh:
            fid = json.load(fh)
        assert fid["per_site"], "smoke run must yield per-site fidelity metrics"
        # The run report works on what smoke wrote (incl. the sidecar).
        assert main(["report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "Compression fidelity" in out


class TestMpTrace:
    """One record, two views: the trace ``mp-trace`` writes live from
    ``StepResult.timelines`` and the one rebuilt offline from the JSONL
    sink alone are the same trace, and DYN003 replays the same files."""

    @staticmethod
    def record(tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        out, logs = str(tmp_path / "mp-1f1b.trace.json"), str(tmp_path / "logs")
        assert main(["mp-trace", "--out", out, "--schedule", "1f1b",
                     "--microbatches", "4", "--conc-log", logs]) == 0
        with open(out) as fh:
            live = json.load(fh)
        recorded = load_events(logs)
        rebuilt = worker_timelines_trace(span_view(recorded), live["otherData"])
        # Same per-rank span names, categories and durations: the very
        # same trace events, floats and all.
        assert rebuilt["traceEvents"] == live["traceEvents"]
        assert run_race_check_on_path(logs) == []
        return live["traceEvents"], recorded

    def test_1f1b_step_exports_in_flight_comm_spans(self, tmp_path, capsys,
                                                    monkeypatch):
        """A real 2x2 1F1B gang step: the worker timelines must carry at
        least one in-flight window (Chrome async ``b``), all of them
        ``mp.async``.  None would mean the overlap machinery silently fell
        back to blocking transfers."""
        events, recorded = self.record(tmp_path, monkeypatch)
        assert "4 ranks" in capsys.readouterr().out
        begins = [e for e in events if e.get("ph") == "b"]
        assert begins and all(e["cat"] == "mp.async" for e in begins)
        assert len([e for e in events if e.get("ph") == "e"]) == len(begins)
        assert not [e for e in recorded if e["kind"] == "fault"]

    def test_faulted_step_shows_each_fault_as_event_and_span(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "mixed")
        events, recorded = self.record(tmp_path, monkeypatch)
        spans = sorted(e["name"] for e in events if e.get("cat") == "mp.fault")
        assert spans == ["fault:corrupt 2->0 seq 1", "fault:drop 0->2 seq 1",
                         "fault:drop 0->2 seq 1"]
        channel = sorted((e["fault"], e["src"], e["dst"], e["seq"])
                         for e in recorded
                         if e["kind"] == "fault" and "src" in e)
        assert channel == sorted(
            (kind, int(src), int(dst), int(seq)) for kind, src, dst, seq in
            (re.fullmatch(r"fault:(\w+) (\d+)->(\d+) seq (\d+)", name).groups()
             for name in spans))
        # The straggler delay is a rank fault: an event, no channel span.
        (delay,) = [e for e in recorded
                    if e["kind"] == "fault" and "src" not in e]
        assert (delay["rank"], delay["fault"], delay["step"]) == (1, "delay", 0)


class TestTelemetryVerbs:
    """The mp-only guards and the registry-backed diff/html verbs."""

    def test_mp_trace_refuses_inproc_backend_flag(self, capsys):
        assert main(["mp-trace", "--backend", "inproc"]) == 1
        err = capsys.readouterr().err
        assert "inproc" in err and "--backend mp" in err

    def test_top_refuses_inproc_backend_flag(self, capsys):
        assert main(["top", "--backend", "inproc"]) == 1
        assert "repro.obs top" in capsys.readouterr().err

    def test_top_refuses_repro_backend_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inproc")
        assert main(["top"]) == 1
        assert "REPRO_BACKEND" in capsys.readouterr().err

    def test_backend_flag_overrides_env(self, capsys, monkeypatch):
        # --backend mp beats REPRO_BACKEND=inproc; the guard passes and the
        # run proceeds (not exercised here — just assert the guard alone).
        from repro.obs.cli import _require_mp_backend
        import argparse

        monkeypatch.setenv("REPRO_BACKEND", "inproc")
        args = argparse.Namespace(backend="mp")
        assert _require_mp_backend(args, "top") == "mp"

    def test_diff_renders_registry_runs(self, tmp_path, capsys):
        from repro.obs.telemetry import (
            Collector, HealthMonitor, build_summary, save_run,
        )

        registry = str(tmp_path / "runs")
        for run_id, wall in (("run-a", 10.0), ("run-b", 20.0)):
            coll = Collector()
            coll.ingest({"kind": "meta", "rank": 0, "t": 0.0, "world": 1})
            coll.ingest({"kind": "step", "rank": 0, "t": 0.0, "step": 0,
                         "wall_ms": wall, "comm_wait_ms": 1.0,
                         "busy_ms": wall - 1.0, "fault_ms": 0.0,
                         "ring_occupancy": 0, "retries": 0, "drops": 0,
                         "delays": 0, "peak_rss_kb": 100.0})
            save_run(registry, build_summary(run_id, coll, HealthMonitor(coll)))
        assert main(["diff", "run-a", "run-b", "--registry", registry]) == 0
        out = capsys.readouterr().out
        assert "run-a vs run-b" in out and "pooled/wall_ms/p50" in out

    def test_diff_missing_run_exits_1(self, tmp_path, capsys):
        assert main(["diff", "a", "b", "--registry", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_html_missing_run_exits_1(self, tmp_path, capsys):
        assert main(["html", "nope", "--registry", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err
