"""python -m repro.obs: report, smoke and sim-trace subcommands."""

import json
import re

import numpy as np

from repro.experiments.report import format_value
from repro.lint.race_check import run_race_check_on_path
from repro.nn.transformer import TransformerConfig
from repro.obs.cli import main
from repro.obs.metrics import RunRecorder, summarize
from repro.obs.profile import OpProfiler
from repro.obs.trace import chrome_trace
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.backend import create_backend, load_events
from repro.parallel.backend.events import ENV_VAR as CONC_ENV


def make_jsonl(tmp_path):
    path = str(tmp_path / "run.jsonl")
    rec = RunRecorder(run_id="cli-test", meta={"scheme": "T2"}, stream_path=path)
    for loss in (2.0, 1.0):
        with rec.step():
            rec.gauge("loss", loss)
            with rec.timer("forward"):
                pass
    return path


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
        header_only.write_text('{"kind": "meta", "rank": -1, "idx": 0, "t": 0.0, '
                               '"world": 1, "run_id": "crashed"}\n')
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


class TestOneFold:
    def test_every_producer_renders_and_report_reads_the_summary_fold(
            self, tmp_path, capsys, monkeypatch):
        # A RunRecorder file, an OpProfiler session and a 2-rank mp step's
        # conc-rank*.jsonl files: one schema, one loader, one trace fold.
        rec = RunRecorder(run_id="fold", stream_path=str(tmp_path / "run.jsonl"))
        for loss in (2.0, 1.0):
            with rec.step():
                rec.gauge("loss", loss)
                rec.count("samples", 4)
                with rec.timer("train_step"):
                    np.ones(1000).sum()
        model = ModelParallelBertClassifier(ModelParallelConfig(
            TransformerConfig(vocab_size=64, hidden=32, num_layers=2, num_heads=4,
                              max_seq_len=16, dropout=0.0, num_classes=2),
            tp=2, scheme="T2", seed=0))
        ids = np.random.default_rng(0).integers(0, 64, size=(4, 16))
        labels = np.array([0, 1, 0, 1])
        prof = OpProfiler()
        with prof, prof.span("step", rank=0):
            model.loss(ids, labels).backward()
        prof_file = tmp_path / "profile.jsonl"
        prof_file.write_text("".join(json.dumps(e) + "\n" for e in prof.record.events))
        logs = tmp_path / "logs"
        monkeypatch.setenv(CONC_ENV, str(logs))  # the workers inherit it
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        with create_backend("mp", model) as backend:
            backend.train_step(ids, labels)

        tracks = {}
        for path in (rec.stream_path, prof_file, logs):
            trace = json.loads(json.dumps(chrome_trace(load_events(path), {"tp": 2})))
            tracks[path] = sorted(e["args"]["name"] for e in trace["traceEvents"]
                                  if e["name"] == "thread_name")
            assert any(e["ph"] == "X" for e in trace["traceEvents"]), path
            if path != rec.stream_path:
                assert any(e["ph"] == "i" and e["cat"] == "comm"
                           for e in trace["traceEvents"]), path
        assert tracks == {rec.stream_path: ["parent"],
                          prof_file: ["rank 0 · tp0/pp0"],
                          logs: ["rank 0 · tp0/pp0", "rank 1 · tp1/pp0"]}

        # `report` prints the numbers RunRecorder.summary() folds.
        summary = rec.summary()
        assert summary == summarize(load_events(rec.stream_path))
        assert main(["report", rec.stream_path]) == 0
        rows = {line.split()[0]: line.split()[1:]
                for line in capsys.readouterr().out.splitlines() if line.strip()}
        for name, agg in summary["gauges"].items():
            assert rows[name] == [format_value(agg[k])
                                  for k in ("last", "mean", "min", "max")]
        for name, total in summary["timers_ms"].items():
            assert rows[name][0] == format_value(total)

        # A file in the retired `{"type": "step"}` format is refused.
        old = tmp_path / "old.jsonl"
        old.write_text('{"type": "meta", "run_id": "old"}\n'
                       '{"type": "step", "step": 0, "t_start_ms": 0.0, "wall_ms": 1.0, '
                       '"gauges": {}, "counters": {}, "timers_ms": {}}\n')
        assert main(["report", str(old)]) == 1
        err = capsys.readouterr().err
        assert "not a rank-event file" in err and "`type` lines" in err


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
    """One record, one fold: the trace ``mp-trace`` writes live from
    ``StepResult.record`` and ``chrome_trace`` over the JSONL sink alone
    are the same trace, and DYN003 replays the same files."""

    @staticmethod
    def record(tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        out, logs = str(tmp_path / "mp-1f1b.trace.json"), str(tmp_path / "logs")
        assert main(["mp-trace", "--out", out, "--schedule", "1f1b",
                     "--microbatches", "4", "--conc-log", logs]) == 0
        with open(out) as fh:
            live = json.load(fh)
        recorded = load_events(logs)
        rebuilt = chrome_trace(recorded, live["otherData"])
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

    def test_top_refuses_run_id_outside_registry(self, capsys, monkeypatch):
        """The id is checked before a gang spawns, not when the run is saved."""
        import repro.parallel.backend as backend

        def no_spawn(*args, **kwargs):
            raise AssertionError("a gang was spawned")

        monkeypatch.setattr(backend, "create_backend", no_spawn)
        assert main(["top", "--backend", "mp", "--run-id", "../x"]) == 1
        assert "invalid run_id '../x'" in capsys.readouterr().err

    def test_backend_flag_overrides_env(self, capsys, monkeypatch):
        # --backend mp beats REPRO_BACKEND=inproc; the guard passes and the
        # run proceeds (not exercised here — just assert the guard alone).
        from repro.obs.cli import _require_mp_backend
        import argparse

        monkeypatch.setenv("REPRO_BACKEND", "inproc")
        args = argparse.Namespace(backend="mp")
        assert _require_mp_backend(args, "top") == "mp"

    def test_diff_renders_registry_runs(self, tmp_path, capsys):
        from repro.obs.telemetry import HealthMonitor, build_summary, save_run
        from tests.obs.helpers import row

        registry = str(tmp_path / "runs")
        for run_id, wall in (("run-a", 10.0), ("run-b", 20.0)):
            rows = [row(0, 0, wall_ms=wall, comm_wait_ms=1.0,
                        busy_ms=wall - 1.0,
                        gauges={"ring_occupancy": 0, "peak_rss_kb": 100.0})]
            save_run(registry, build_summary(run_id, rows, HealthMonitor()))
        assert main(["diff", "run-a", "run-b", "--registry", registry]) == 0
        out = capsys.readouterr().out
        assert "run-a vs run-b" in out and "pooled/wall_ms/p50" in out

    def test_diff_missing_run_exits_1(self, tmp_path, capsys):
        assert main(["diff", "a", "b", "--registry", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_html_missing_run_exits_1(self, tmp_path, capsys):
        assert main(["html", "nope", "--registry", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err
