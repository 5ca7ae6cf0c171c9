"""run_suite end-to-end, the committed pin, and ``python -m repro.bench``."""

import json
import os

import pytest

import repro.bench.__main__ as bench_main
import repro.bench.run as bench_run
from repro.bench.__main__ import main
from repro.bench.compare import drift
from repro.bench.run import run_suite
from repro.bench.suite import BenchCase

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "baseline.json")


@pytest.fixture(scope="module")
def suite_run():
    """One full suite run, shared by every test in this module."""
    return run_suite()


class TestRunSuite:
    def test_matches_committed_baseline(self, suite_run):
        """The pin itself: this tree reproduces benchmarks/baseline.json.

        Any deterministic drift (FLOPs, op/alloc counts, comm bytes, the
        simulator breakdown), and any new or dropped case or metric, fails
        tier-1; a deliberate change refreshes the baseline (EXPERIMENTS.md).
        """
        with open(BASELINE, encoding="utf-8") as fh:
            assert drift(suite_run, json.load(fh)) == []

    def test_mp_step_cases_carry_profiler_rollups(self, suite_run):
        """Model-parallel steps run in this process carry op-level rollups;
        the mp gang's ops run in the workers, so its cases carry none."""
        for case in suite_run["cases"]:
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
        by_id = {c["id"]: c for c in suite_run["cases"]}
        dense = by_id["backend_step/inproc/tp2pp1/wo"]["deterministic"]["comm_bytes"]
        topk = by_id["backend_step/inproc/tp2pp1/T2"]["deterministic"]["comm_bytes"]
        dense_fwd = sum(v for k, v in dense.items() if "/forward/" in k)
        topk_fwd = sum(v for k, v in topk.items() if "/forward/" in k)
        assert topk_fwd < dense_fwd

    def test_deterministic_metrics_stable_across_runs(self):
        suite = [BenchCase(id="backend_step/inproc/tp2pp1/T2",
                           kind="backend_step", scheme="T2", tp=2, pp=1)]
        det0, det1 = (run_suite(suite=suite)["cases"][0]["deterministic"]
                      for _ in range(2))
        assert det0 == det1


SIM_CASE = BenchCase(id="sim/tp2pp1/T2", kind="sim", scheme="T2", tp=2, pp=1)


@pytest.fixture
def one_case_baseline(monkeypatch, tmp_path):
    """The command over a one-case suite, gated against a baseline of it."""
    monkeypatch.setattr(bench_run, "default_suite", lambda: [SIM_CASE])
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(run_suite(suite=[SIM_CASE])))
    monkeypatch.setattr(bench_main, "BASELINE", str(path))
    return path


def drift_total_ms(path):
    doc = json.loads(path.read_text())
    doc["cases"][0]["deterministic"]["total_ms"] += 1.0
    path.write_text(json.dumps(doc))


class TestCli:
    def test_compare_self_passes(self, one_case_baseline, capsys):
        assert main([]) == 0
        assert "1 cases, 0 difference(s)" in capsys.readouterr().out

    def test_compare_injected_regression_fails(self, one_case_baseline, capsys):
        """The exit-1 verdict names the offender and both values."""
        drift_total_ms(one_case_baseline)
        assert main([]) == 1
        out = capsys.readouterr().out
        assert "sim/tp2pp1/T2 :: total_ms: baseline=" in out
        assert "candidate=" in out and "1 difference(s)" in out

    def test_written_file_round_trips(self, one_case_baseline, capsys):
        """A refresh over a drifted baseline logs the drift, then gates clean."""
        drift_total_ms(one_case_baseline)
        assert main(["--write", str(one_case_baseline)]) == 1
        assert "sim/tp2pp1/T2 :: total_ms:" in capsys.readouterr().out
        assert json.loads(one_case_baseline.read_text()) \
            == run_suite(suite=[SIM_CASE])
        assert main([]) == 0
