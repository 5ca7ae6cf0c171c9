"""run_suite end-to-end, the committed pin, report rendering and the CLI."""

import copy
import json
import os

import pytest

from repro.bench.cli import main
from repro.bench.compare import compare_docs, load_doc
from repro.bench.report import render_csv, render_markdown
from repro.bench.run import bench_filename, git_sha, run_suite
from repro.bench.schema import validate_bench
from repro.bench.suite import LAYOUTS, SCHEMES, BenchCase

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "baseline.json")


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """One full suite run, shared by every test in this module."""
    out_dir = tmp_path_factory.mktemp("bench")
    doc, bench_path = run_suite(out_dir=str(out_dir))
    return doc, bench_path, out_dir


class TestRunSuite:
    def test_document_is_schema_valid(self, suite_run):
        doc, _, _ = suite_run
        assert validate_bench(doc) is doc

    def test_matches_committed_baseline(self, suite_run):
        """The pin itself: this tree reproduces benchmarks/baseline.json.

        Any deterministic drift (FLOPs, op/alloc counts, comm bytes, the
        simulator breakdown) fails tier-1, not only CI's bench-smoke; a
        deliberate change refreshes the baseline (EXPERIMENTS.md).
        """
        doc, _, _ = suite_run
        result = compare_docs(doc, validate_bench(load_doc(BASELINE)))
        assert result.ok, [(c.case_id, c.metric, c.baseline, c.candidate)
                           for c in result.regressions]
        assert not [c for c in result.checks if c.status == "new"]

    def test_covers_all_schemes_and_layouts(self, suite_run):
        """Acceptance: the run covers all 5 schemes x 3 layouts."""
        doc, _, _ = suite_run
        for kind in ("backend_step", "sim"):
            cells = {(c["params"]["scheme"], c["params"]["tp"], c["params"]["pp"])
                     for c in doc["cases"]
                     if c["kind"] == kind and c["params"]["backend"] == "inproc"
                     and c["params"]["dp"] == c["params"]["sp"] == 1}
            assert cells == {(s, tp, pp) for s in SCHEMES for tp, pp in LAYOUTS}

    def test_written_file_round_trips(self, suite_run):
        doc, bench_path, _ = suite_run
        with open(bench_path) as fh:
            loaded = json.load(fh)
        assert validate_bench(loaded)["git_sha"] == doc["git_sha"]

    def test_mp_step_cases_carry_profiler_rollups(self, suite_run):
        """Model-parallel steps run in this process carry op-level rollups;
        the mp gang's ops run in the workers, so its cases carry none."""
        doc, _, _ = suite_run
        for case in doc["cases"]:
            if case["kind"] != "backend_step":
                continue
            det = case["deterministic"]
            if case["params"]["backend"] != "inproc":
                assert set(det) == {"comm_events", "comm_bytes"}
                continue
            assert det["flops"] > 0 and det["op_calls"] > 0
            assert det["peak_alloc_bytes"] > 0
            if case["params"]["tp"] > 1 or case["params"]["pp"] > 1:
                assert det["comm_events"] > 0
                assert sum(det["comm_bytes"].values()) > 0

    def test_compressed_schemes_move_fewer_tp_forward_bytes(self, suite_run):
        doc, _, _ = suite_run
        by_id = {c["id"]: c for c in doc["cases"]}
        dense = by_id["backend_step/inproc/tp2pp1/wo"]["deterministic"]["comm_bytes"]
        topk = by_id["backend_step/inproc/tp2pp1/T2"]["deterministic"]["comm_bytes"]
        dense_fwd = sum(v for k, v in dense.items() if "/forward/" in k)
        topk_fwd = sum(v for k, v in topk.items() if "/forward/" in k)
        assert topk_fwd < dense_fwd

    def test_deterministic_metrics_stable_across_runs(self, tmp_path):
        suite = [BenchCase(id="backend_step/inproc/tp2pp1/T2",
                           kind="backend_step", scheme="T2", tp=2, pp=1)]
        docs = [run_suite(suite=suite, out_dir=str(tmp_path / d))[0]
                for d in ("a", "b")]
        det0 = docs[0]["cases"][0]["deterministic"]
        det1 = docs[1]["cases"][0]["deterministic"]
        assert det0 == det1

    def test_git_sha_and_filename(self):
        sha = git_sha()
        assert sha and "\n" not in sha
        assert bench_filename("abc") == "BENCH_abc.json"


class TestReportRendering:
    def test_markdown_has_header_and_rows(self, suite_run):
        doc, _, _ = suite_run
        md = render_markdown(doc)
        assert f"`{doc['git_sha']}`" in md
        assert "backend_step/inproc/tp2pp2/A2" in md

    def test_csv_rows_match_cases(self, suite_run):
        doc, _, _ = suite_run
        lines = [l for l in render_csv(doc).splitlines() if l]
        assert len(lines) == 1 + len(doc["cases"])


class TestCli:
    def test_compare_self_passes(self, suite_run, capsys):
        _, bench_path, _ = suite_run
        assert main(["compare", bench_path, "--baseline", bench_path]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_injected_regression_fails(self, suite_run, tmp_path, capsys):
        """Acceptance: injected flops / comm_bytes drift exits nonzero."""
        doc, bench_path, _ = suite_run
        cid = "backend_step/inproc/tp2pp2/A2"
        comm_key = "tp/forward/autoencoder"

        def drift_flops(det):
            det["flops"] += 2.0

        def drift_comm(det):
            det["comm_bytes"][comm_key] += 1

        for drift, metric in ((drift_flops, "flops"),
                              (drift_comm, f"comm_bytes.{comm_key}")):
            drifted = copy.deepcopy(doc)
            (case,) = [c for c in drifted["cases"] if c["id"] == cid]
            drift(case["deterministic"])
            drift_path = str(tmp_path / "BENCH_drift.json")
            with open(drift_path, "w") as fh:
                json.dump(drifted, fh)
            assert main(["compare", drift_path, "--baseline", bench_path]) == 1
            err = capsys.readouterr().err
            assert "FAIL: 1 regression(s)" in err
            # The verdict names every offender with both values: the summary
            # table is filtered, so the FAIL message itself must be actionable.
            assert f"{cid} :: {metric}:" in err
            assert "baseline=" in err and "candidate=" in err

    def test_run_only_glob(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path), "--only", "sim/tp2pp1/*"]) == 0
        assert "(5 cases" in capsys.readouterr().out
        assert main(["run", "--out", str(tmp_path), "--only", "nope/*"]) == 2

    def test_compare_missing_candidate_exits_2(self, tmp_path, capsys):
        assert main(["compare", "--dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_compare_invalid_doc_exits_2(self, suite_run, tmp_path, capsys):
        _, bench_path, _ = suite_run
        bad = str(tmp_path / "BENCH_bad.json")
        with open(bad, "w") as fh:
            json.dump({"schema_version": 2}, fh)
        assert main(["compare", bad, "--baseline", bench_path]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_defaults_to_newest_in_dir(self, suite_run, capsys):
        doc, _, out_dir = suite_run
        assert main(["report", "--dir", str(out_dir)]) == 0
        assert doc["git_sha"] in capsys.readouterr().out

    def test_report_csv_to_file(self, suite_run, tmp_path, capsys):
        _, bench_path, _ = suite_run
        out = str(tmp_path / "bench.csv")
        assert main(["report", bench_path, "--format", "csv", "--out", out]) == 0
        with open(out) as fh:
            assert fh.readline().startswith("case,")
