"""The driver: declared names, hermetic env, orphan sweep, smoke runs."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import run as driver

SPEC = driver.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_exact_metrics_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(driver.EXACT) <= declared


def test_env_is_hermetic(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "mp")
    monkeypatch.setenv("REPRO_FAULT_PLAN", "mixed")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    env = driver.hermetic_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert all(env[pin] == "1" for pin in driver.BLAS_PINS)
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(driver.ROOT / "src")


def test_sweep_kills_a_leaked_sleeper(tmp_path):
    pid_file = tmp_path / "pid"
    leak = ("import subprocess, sys; p = subprocess.Popen(['sleep', '60']); "
            f"open({str(pid_file)!r}, 'w').write(str(p.pid))")
    t0 = time.monotonic()
    info = driver.run_child([sys.executable, "-c", leak], dict(os.environ), 30.0)
    sleeper = int(pid_file.read_text())
    assert info["returncode"] == 0
    assert info["stragglers"] == [sleeper]
    # Not even a zombie: the driver adopted the orphan and reaped it.
    assert not os.path.exists(f"/proc/{sleeper}")
    assert time.monotonic() - t0 < driver.SWEEP_GRACE_S + 5.0


def test_clean_child_leaves_nothing():
    info = driver.run_child([sys.executable, "-c", "pass"], dict(os.environ),
                            30.0)
    assert info == {"returncode": 0, "t_spawn": info["t_spawn"],
                    "stragglers": [], "leaked_segments": []}


def test_new_shm_segment_is_unlinked_and_old_one_kept():
    old = "/dev/shm/repro-rt-e2etest-old"
    new = "/dev/shm/repro-rt-e2etest-new"
    open(old, "w").close()
    try:
        info = driver.run_child(
            [sys.executable, "-c", f"open({new!r}, 'w').close()"],
            dict(os.environ), 30.0)
        assert info["leaked_segments"] == [new]
        assert not os.path.exists(new)
        assert os.path.exists(old)
    finally:
        os.unlink(old)


def test_hung_child_is_killed_with_its_session():
    info = driver.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                            dict(os.environ), 0.5)
    assert info["returncode"] is None
    assert len(info["stragglers"]) == 1


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(driver.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(driver.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_aa_with_a_workload_compares_only_that_workload(monkeypatch, capsys):
    calls = []

    def fake_run_workload(spec, workload, seed, seconds, trace, steps):
        calls.append((workload, trace))
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in spec["per_layer" if trace else "end_to_end"]}
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics, "problems": [], "info": {}}

    monkeypatch.setattr(driver, "run_workload", fake_run_workload)
    monkeypatch.setattr(driver.signal, "signal", lambda *_: None)  # keep pytest's
    assert driver.main(["--aa", "--workload", WORKLOADS[1]]) == 0
    assert calls == [(WORKLOADS[1], False), (WORKLOADS[1], True)] * 2
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["aa_failures"] == []


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(driver.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--steps", "5"],
        cwd=driver.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_name(workload):
    before = set(os.listdir("/dev/shm"))
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if trace == 0:
            assert all(m["value"] != 0 for m in result["metrics"].values())
    assert set(os.listdir("/dev/shm")) == before
    trace_file = driver.OUT / f"{workload}.trace.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert {"step", "data.next_batch", "optim.step"} <= {e["name"] for e in events}


def test_layers_separate_as_stated():
    inproc = _run("inproc_tp2pp2_a2", 1)["metrics"]
    backend_spans = [k for k in inproc if k.startswith("backend.")
                     and k.endswith("_ms")]
    assert backend_spans and all(inproc[k]["value"] == 0 for k in backend_spans)
    assert inproc["nn.forward_ms"]["value"] > 0
    wide = _run("mp_dp2_t2_wide", 1)["metrics"]
    assert wide["nn.forward_ms"]["value"] == 0
    assert wide["collectives.dp_wire_bytes"]["value"] > 0
    assert wide["backend.control_share"]["value"] > 0.2
