"""Driver of the e2e benchmark: the wall-clock benchmark of record.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py            # every workload, untraced + traced
    python3 benchmarks/e2e/run.py --aa       # the above twice; must agree
    python3 benchmarks/e2e/run.py --aa --workload NAME   # ... for one workload

Each workload runs in a child process (``workload.py``) that this driver
starts in a session of its own with a hermetic environment.  After the
child exits the driver waits until the session is empty — that includes
the multiprocessing resource tracker — kills and reports stragglers, and
diffs ``/dev/shm/repro-rt-*``; a leftover process or segment fails the
run.  The driver imports neither ``multiprocessing`` nor ``repro``.

Metric names, units and bounds are read from ``BENCHMARK.json`` at the
repository root; the last line of standard output is the result as one
JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOAD_PY = HERE / "workload.py"
SHM_GLOB = "/dev/shm/repro-rt-*"

#: One invocation (all its children) must return well inside 180 s.
RUN_DEADLINE_S = 165.0
#: How long the session may take to empty after the child has exited.
SWEEP_GRACE_S = 5.0

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metrics that must repeat bit-for-bit for one seed.
EXACT = (
    "collectives.events_per_step", "collectives.wire_bytes_per_step",
    "collectives.dense_bytes_per_step", "collectives.tp_wire_bytes",
    "collectives.pp_wire_bytes", "collectives.dp_wire_bytes",
    "backend.weights_payload_bytes", "backend.grads_payload_bytes",
    "tensor.op_calls_per_step", "tensor.alloc_bytes_per_step",
    "nn.param_count", "training.loss_final", "compression.ratio",
    "pipeline.bubble_share_model",
)
#: End-to-end metrics that must do the same: the regression bound of
#: ``eval_score`` has to cover its spread across seeds, but for one seed
#: the score is exact, and ``--aa`` holds it to that.
EXACT_E2E = ("eval_score", "step_ok_share")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def hermetic_env() -> dict[str, str]:
    """The child's environment: no ``REPRO_*`` knob, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for pin in BLAS_PINS:
        env[pin] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Child processes: start, wait, sweep
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the reaper of its descendants' orphans.

    A child that exits without waiting for its own children (the
    multiprocessing resource tracker is one) leaves them to init, and
    where init reaps lazily they linger as zombies after this driver has
    returned.  As a subreaper the driver inherits them and reaps them.
    """
    pr_set_child_subreaper = 36  # <linux/prctl.h>
    ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def session_pids(sid: int) -> dict[int, str]:
    """pid -> process state of every process whose session id is ``sid``."""
    found = {}
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path, encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we were looking
        if int(fields[3]) == sid:
            found[int(path.split("/")[2])] = fields[0]
    return found


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) pids of session ``sid``."""
    return [pid for pid, state in session_pids(sid).items() if state != "Z"]


def reap_session(sid: int) -> None:
    """Reap the zombies of session ``sid`` that this process inherited."""
    for pid, state in session_pids(sid).items():
        if state == "Z":
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not ours (no subreaper set): init reaps it


def sweep_session(sid: int, grace_s: float = SWEEP_GRACE_S) -> list[int]:
    """Wait until session ``sid`` is empty; SIGKILL and return stragglers."""
    deadline = time.monotonic() + grace_s
    while True:
        members = session_members(sid)
        if not members or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    for pid in members:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    kill_deadline = time.monotonic() + grace_s
    while members and session_members(sid) and time.monotonic() < kill_deadline:
        time.sleep(0.02)
    return members


def run_child(cmd: list[str], env: dict[str, str], timeout_s: float) -> dict:
    """Run ``cmd`` in its own session; leave no process or segment behind.

    Returns the exit code, the monotonic time the child was started, the
    pids that had to be killed and the shm segments that had to be
    unlinked.  Segments that existed before the child started are not
    ours and are left alone.
    """
    adopt_orphans()
    shm_before = set(glob.glob(SHM_GLOB))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdin=subprocess.DEVNULL)
    try:
        returncode = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        returncode = None
    finally:
        stragglers = sweep_session(proc.pid, 0.0 if proc.poll() is None
                                   else SWEEP_GRACE_S)
        proc.wait()
        reap_session(proc.pid)
    leaked = sorted(set(glob.glob(SHM_GLOB)) - shm_before)
    for path in leaked:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    return {"returncode": returncode, "t_spawn": t_spawn,
            "stragglers": stragglers, "leaked_segments": leaked}


def run_mode(workload: str, mode: str, seed: int, seconds: float,
             steps: int | None, env: dict[str, str], deadline: float) -> dict:
    """One ``workload.py`` child; returns its result document."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{os.getpid()}-{workload}-{mode}.json"
    cmd = [sys.executable, str(WORKLOAD_PY), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
           "--result", str(result_path)]
    if steps is not None:
        cmd += ["--steps", str(steps)]
    if mode == "traced":
        cmd += ["--trace-out", str(OUT / f"{workload}.trace.json")]
    result_path.unlink(missing_ok=True)
    exit_info = run_child(cmd, env, max(1.0, deadline - time.monotonic()))
    try:
        with open(result_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        result_path.unlink()
    except (OSError, ValueError):
        doc = {"attempted": 1, "failed": 1, "correct": False, "metrics": {},
               "problems": [f"child wrote no result "
                            f"(exit code {exit_info['returncode']})"]}
    if exit_info["returncode"] != 0 and doc["correct"]:
        doc["problems"].append(f"child exit code {exit_info['returncode']}")
    if exit_info["stragglers"]:
        doc["problems"].append(
            f"processes left running (killed): {exit_info['stragglers']}")
    if exit_info["leaked_segments"]:
        doc["problems"].append(
            f"shm segments left behind (unlinked): "
            f"{exit_info['leaked_segments']}")
    if "t_ready" in doc:
        # Both clocks are CLOCK_MONOTONIC, which all processes share.
        doc["metrics"]["setup_s"] = doc["t_ready"] - exit_info["t_spawn"]
    return doc


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, steps: int | None) -> dict:
    """One run as the contract defines it; returns the result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    doc = run_mode(workload, "traced" if trace else "timed", seed, seconds,
                   steps, hermetic_env(), deadline)
    problems = doc["problems"]
    missing = [m["name"] for m in declared
               if m["name"] not in doc["metrics"] and m["name"] != "step_ok_share"]
    if missing and not problems:
        problems.append(f"metrics not emitted: {missing}")
    # A failed check, a leftover process or segment fails every step.
    attempted = max(int(doc["attempted"]), 1)
    failed = attempted if problems else 0
    doc["metrics"]["step_ok_share"] = 1.0 - failed / attempted
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": doc["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in declared if m["name"] in doc["metrics"]},
        "problems": problems,
        "info": {k: doc[k] for k in ("numpy", "blas", "step_ms_p95",
                                     "samples_beyond_p95")
                 if k in doc},
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_header(seed: int, seconds: float) -> None:
    load = os.getloadavg()
    print(f"# e2e benchmark  git={git_sha()}  python={platform.python_version()}"
          f"  nproc={os.cpu_count()}  loadavg={load[0]:.2f},{load[1]:.2f},"
          f"{load[2]:.2f}  seed={seed}  seconds={seconds:g}")
    print("# env: " + " ".join(f"{p}=1" for p in BLAS_PINS)
          + " PYTHONHASHSEED=0, REPRO_* stripped")


def print_result(workload: str, trace: bool, result: dict) -> None:
    info = result["info"]
    kind = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(f"## {workload}  {kind}  numpy={info.get('numpy', '?')}"
          f"  blas={info.get('blas', '?')}")
    if not trace:
        print(f"#  timed steps={result['attempted']}  failed={result['failed']}"
              f"  step_ms_p95={info.get('step_ms_p95', 0.0):.2f} ms (not gated;"
              f" {info.get('samples_beyond_p95', 0)} samples beyond it)")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")


def contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def run_all(spec: dict, workloads: list[str], args) -> dict[str, dict]:
    """Each of ``workloads`` untraced, then each of them traced."""
    results: dict[str, dict] = {}
    for trace in (False, True):
        for name in workloads:
            result = run_workload(spec, name, args.seed, args.seconds, trace,
                                  args.steps)
            print_result(name, trace, result)
            results[f"{name}/{'traced' if trace else 'untraced'}"] = result
    return results


def compare_aa(spec: dict, first: dict, second: dict) -> list[str]:
    """Disagreements between two runs of the same code."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = []
    print("## A/A: relative difference of the second run to the first")
    for key in first:
        a, b = first[key]["metrics"], second[key]["metrics"]
        if key.endswith("/untraced"):
            for name, bound in bounds.items():
                if name not in a or name not in b:
                    failures.append(f"{key} {name}: missing")
                    continue
                if name in EXACT_E2E:
                    bound = 0.0
                rel = abs(b[name]["value"] - a[name]["value"]) / abs(a[name]["value"])
                verdict = "ok" if rel <= bound else "FAIL"
                print(f"{key:40s} {name:18s} {a[name]['value']:>12.5g} "
                      f"{b[name]['value']:>12.5g} {rel:8.2%} "
                      f"(bound {bound:.0%}) {verdict}")
                if rel > bound:
                    failures.append(f"{key} {name}: {rel:.2%} > {bound:.0%}")
        else:
            for name in EXACT:
                if a.get(name) != b.get(name):
                    failures.append(f"{key} {name}: {a.get(name)} != "
                                    f"{b.get(name)}")
    return failures


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="data and shuffle seed")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="sizes the fixed step count of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and its per-layer metrics")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed step count, overriding --seconds (smoke)")
    parser.add_argument("--aa", action="store_true",
                        help="run everything (or --workload) twice, untraced "
                             "and traced; fail on disagreement")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "measures the repository it is checked out in", file=sys.stderr)
        return 2

    # A terminated driver must still sweep its child's session: turn the
    # signal into an exception so run_child's ``finally`` runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print_header(args.seed, args.seconds)
    if args.workload is not None and not args.aa:
        result = run_workload(spec, args.workload, args.seed, args.seconds,
                              bool(args.trace), args.steps)
        print_result(args.workload, bool(args.trace), result)
        print(contract_line(result))
        return 0 if result["correct"] else 1

    selected = [args.workload] if args.workload is not None else names
    first = run_all(spec, selected, args)
    ok = all(r["correct"] for r in first.values())
    summary = {"results": {k: json.loads(contract_line(r))
                           for k, r in first.items()}}
    if args.aa:
        second = run_all(spec, selected, args)
        failures = compare_aa(spec, first, second)
        for failure in failures:
            print(f"A/A FAIL: {failure}")
        ok = ok and not failures and all(r["correct"] for r in second.values())
        summary["aa_failures"] = failures
    summary["correct"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
