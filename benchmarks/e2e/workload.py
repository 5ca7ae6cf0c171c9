"""One workload of the e2e benchmark, run as a child of ``run.py``.

``python workload.py --workload NAME --mode timed|traced ...`` builds the
workload from ``--seed``, checks it against the in-process oracle, warms
up, then

- ``timed``  runs the fixed step count with tracing off and reports the
  end-to-end metrics,
- ``traced`` runs a short untraced reference, the same loop with spans and
  rank timelines on, and the layer probes, and reports the per-layer
  metrics.

The result is one JSON document written to ``--result``.  Everything the
child starts is closed in ``finally``; the driver still sweeps the
session afterwards.

The entry point sits under ``if __name__ == "__main__"`` because the mp
backend uses the spawn context, which re-imports ``__main__`` in every
worker.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import multiprocessing
import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import spans as sp
from repro.data import batch_iter, make_task
from repro.nn.transformer import TransformerConfig
from repro.obs.profile import OpProfiler
from repro.optim import Adam
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.backend import create_backend
from repro.parallel.collectives import dense_bytes
from repro.parallel.pipeline import iteration_slots
from repro.training.trainer import evaluate_task

TASK = "SST-2"
MAX_GRAD_NORM = 1.0
CHECK_STEPS = 3
WARMUP_STEPS = 10
#: The learning check needs the loss to have left its plateau.
LEARN_CHECK_MIN_STEPS = 100
#: Share of a traced run's step budget spent untraced / traced; the rest
#: of the time goes to the probes.
REF_SHARE, TRACED_SHARE = 0.2, 0.3
#: The calls one step makes into the layers, in order; each is one span.
STEP_SPANS = ("data.next_batch", "optim.zero_grad", "nn.forward",
              "tensor.backward", "backend.train_step", "backend.apply_grads",
              "optim.clip_grad_norm", "optim.step", "backend.sync_weights")


@dataclass(frozen=True)
class Workload:
    layers: int
    hidden: int
    init_std: float
    lr: float
    batch: int
    seq: int
    tp: int
    pp: int
    dp: int
    scheme: str
    backend: str | None  # None = the default user path, no backend object
    schedule: str
    microbatches: int
    #: Timed steps per second of ``--seconds`` on the commit that defined
    #: the benchmark, in the reference box's slow state.  The step count is
    #: ``round(rate * seconds)``: fixed work, the same on every commit, so a
    #: faster program finishes early instead of taking more steps (and
    #: training further) than its parent.
    steps_per_second: float


#: Why each row exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    "inproc_tp2pp2_a2": Workload(4, 64, 0.08, 1e-3, 32, 32, 2, 2, 1, "A2",
                                 None, "gpipe", 1, 7.3),
    "mp_tp2_q2_act": Workload(4, 64, 0.08, 1e-3, 32, 32, 2, 1, 1, "Q2", "mp",
                              "gpipe", 1, 9.3),
    # The deep, wide model diverges on some seeds at lr 1e-3 and
    # init_std 0.08 (with or without the gradient codec); these train on
    # every seed tried.
    "mp_dp2_t2_wide": Workload(8, 128, 0.02, 3e-4, 8, 16, 1, 1, 2, "T2", "mp",
                               "gpipe", 1, 9.1),
    "mp_pp2_1f1b_wo": Workload(4, 64, 0.08, 1e-3, 32, 32, 1, 2, 1, "w/o",
                               "mp", "1f1b", 4, 9.65),
}


def mp_config(wl: Workload, backend: str) -> ModelParallelConfig:
    model = TransformerConfig(
        vocab_size=128, max_seq_len=32, hidden=wl.hidden,
        num_layers=wl.layers, num_heads=4, dropout=0.0, num_classes=2,
        seed=0, init_std=wl.init_std)
    return ModelParallelConfig(
        model, tp=wl.tp, pp=wl.pp, dp=wl.dp, sp=1, scheme=wl.scheme, seed=0,
        backend=backend, pipeline_schedule=wl.schedule,
        num_microbatches=wl.microbatches)


def batch_stream(dataset, batch_size: int, seed: int):
    """Shuffled full batches, cycling epochs; the order is set by ``seed``."""
    rng = np.random.default_rng(seed)
    while True:
        yield from batch_iter(dataset, batch_size, rng=rng, drop_last=True)


@dataclass
class StepOutcome:
    loss: float
    events: list
    timelines: dict  # rank -> spans; filled only while tracing an mp row
    grads: dict  # what the workers returned; empty on the inproc path


@dataclass
class Loop:
    """What a run of steps leaves behind (per step, except ``last``)."""

    walls_ms: list
    losses: list
    event_counts: list
    timelines: list
    last: StepOutcome | None = None

    def __add__(self, other: "Loop") -> "Loop":
        return Loop(self.walls_ms + other.walls_ms,
                    self.losses + other.losses,
                    self.event_counts + other.event_counts,
                    self.timelines + other.timelines,
                    other.last or self.last)


class Session:
    """Model, optimizer and (optional) backend of one training run."""

    def __init__(self, wl: Workload, backend_name: str | None):
        self.config = mp_config(wl, backend_name or "inproc")
        self.model = ModelParallelBertClassifier(self.config)
        self.optimizer = Adam(self.model.parameters(), lr=wl.lr)
        self.backend = None
        if backend_name is not None:
            self.backend = create_backend(backend_name, self.model)

    def step(self, batch, tracer=sp.NULL_TRACER) -> StepOutcome:
        """The trainer's step protocol, one span per call into a layer."""
        model, opt, backend = self.model, self.optimizer, self.backend
        with tracer.span("optim.zero_grad"):
            opt.zero_grad()
        if backend is None:
            mark = len(model.tracker.events)
            with tracer.span("nn.forward"):
                loss = model.loss(batch.input_ids, batch.labels,
                                  batch.attention_mask)
            with tracer.span("tensor.backward"):
                loss.backward()
            out = StepOutcome(float(loss.item()),
                              model.tracker.events[mark:], {}, {})
        else:
            with tracer.span("backend.train_step"):
                result = backend.train_step(batch.input_ids, batch.labels,
                                            batch.attention_mask)
            with tracer.span("backend.apply_grads"):
                backend.apply_grads(model, result)
            out = StepOutcome(float(result.loss), result.events,
                              result.timelines, result.grads)
        with tracer.span("optim.clip_grad_norm"):
            opt.clip_grad_norm(MAX_GRAD_NORM)
        with tracer.span("optim.step"):
            opt.step()
        if backend is not None:
            with tracer.span("backend.sync_weights"):
                backend.sync_weights(model)
        return out

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def _cpu_seconds(pid: int) -> float:
    """user+sys CPU of ``pid`` so far, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_against_oracle(wl: Workload, session: Session, batches) -> list[str]:
    """Run ``batches`` on the session and on an inproc twin; compare.

    The mp backend must give the oracle's losses exactly and the same
    multiset of CommEvents at every step.
    """
    problems = []
    twin = Session(wl, "inproc")
    try:
        for k, batch in enumerate(batches):
            got = session.step(batch)
            want = twin.step(batch)
            if got.loss != want.loss:
                problems.append(f"check step {k}: loss {got.loss!r} != "
                                f"oracle {want.loss!r}")
            if (collections.Counter(got.events)
                    != collections.Counter(want.events)):
                problems.append(f"check step {k}: CommEvent multiset "
                                "differs from the oracle's")
    finally:
        twin.close()
    return problems


def check_run(wl_name: str, first_loss: float, losses: list[float],
              event_counts: list[int]) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss")
    if len(set(event_counts)) > 1:
        problems.append(f"events per step not constant: "
                        f"{sorted(set(event_counts))}")
    if len(losses) >= LEARN_CHECK_MIN_STEPS:
        tail = float(np.mean(losses[-10:]))
        if not tail < first_loss:
            problems.append(f"{wl_name} did not learn: mean of last 10 "
                            f"losses {tail:.4f} >= first loss {first_loss:.4f}")
    return problems


# ----------------------------------------------------------------------
# Loops
# ----------------------------------------------------------------------
def run_steps(session: Session, stream, n: int, tracer=sp.NULL_TRACER,
              first_step: int = 0) -> Loop:
    """``n`` closed-loop steps: the next starts when the previous returns."""
    loop = Loop([], [], [], [])
    for k in range(n):
        t0 = time.perf_counter()
        with tracer.span("step", first_step + k):
            with tracer.span("data.next_batch"):
                batch = next(stream)
            outcome = session.step(batch, tracer)
        loop.walls_ms.append((time.perf_counter() - t0) * 1e3)
        loop.losses.append(outcome.loss)
        loop.event_counts.append(len(outcome.events))
        if outcome.timelines:
            loop.timelines.append(outcome.timelines)
        loop.last = outcome
    return loop


def comm_counts(events: list) -> dict[str, float]:
    by_group = collections.Counter()
    for e in events:
        by_group[e.group] += e.wire_bytes
    return {
        "collectives.events_per_step": len(events),
        "collectives.wire_bytes_per_step": sum(e.wire_bytes for e in events),
        "collectives.dense_bytes_per_step":
            sum(dense_bytes(e.shape) for e in events),
        "collectives.tp_wire_bytes": by_group["tp"],
        "collectives.pp_wire_bytes": by_group["pp"],
        "collectives.dp_wire_bytes": by_group["dp"],
    }


def timeline_metrics(wl: Workload, train_step_ms: list[float],
                     timelines: list[dict], medians: dict) -> dict[str, float]:
    """Per-rank compute/wait and the control-plane share, medians over steps.

    A rank's extent runs from its step start to its last span's end; its
    wait is the sum of its ``mp.wait`` spans (barrier, recv, blocked
    send, exchange wait), its compute the rest.  What ``train_step`` takes
    beyond the longest rank extent is the parent's own overhead: pickling
    and fanning out the batch, collecting and merging replies, and on dp
    rows the parent-side gradient all-reduce.
    """
    names = ("backend.parent_overhead_ms", "backend.rank_compute_ms.max",
             "backend.rank_compute_ms.min", "backend.rank_wait_ms.max",
             "backend.rank_wait_share", "pipeline.idle_share")
    per_step = {name: [] for name in names}
    for step_ms, ranks in zip(train_step_ms, timelines):
        extent, wait = {}, {}
        for rank, spans in ranks.items():
            extent[rank] = max((s["ts_ms"] + s["dur_ms"] for s in spans),
                               default=0.0)
            wait[rank] = sum(s["dur_ms"] for s in spans
                             if s["cat"] == "mp.wait")
        compute = [extent[r] - wait[r] for r in extent]
        per_step["backend.parent_overhead_ms"].append(
            step_ms - max(extent.values()))
        per_step["backend.rank_compute_ms.max"].append(max(compute))
        per_step["backend.rank_compute_ms.min"].append(min(compute))
        per_step["backend.rank_wait_ms.max"].append(max(wait.values()))
        per_step["backend.rank_wait_share"].append(
            sum(wait.values()) / sum(extent.values()))
        # With sp=1 and one gang, rank r is a stage's worker; a stage is
        # idle while it waits on its neighbours.
        per_step["pipeline.idle_share"].append(
            float(np.mean([wait[r] / extent[r] for r in extent]))
            if wl.pp > 1 else 0.0)
    out = {name: float(np.median(vals)) if vals else 0.0
           for name, vals in per_step.items()}
    step_ms = medians.get("step", 0.0)
    control = (out["backend.parent_overhead_ms"]
               + medians.get("backend.apply_grads", 0.0)
               + medians.get("backend.sync_weights", 0.0))
    out["backend.control_share"] = (control / step_ms
                                    if timelines and step_ms else 0.0)
    return out


def rank_track_spans(tracer_spans: list[dict], timelines: list[dict]) -> list[dict]:
    """Rank timelines as child spans of their ``backend.train_step``.

    Workers stamp spans relative to their own step start, which the
    parent cannot see; the tracks are aligned to the start of the
    ``train_step`` call, so they sit early by the batch fan-out time.
    """
    parents = [i for i, s in enumerate(tracer_spans)
               if s["name"] == "backend.train_step"]
    extra = []
    for index, ranks in zip(parents, timelines):
        origin = tracer_spans[index]["start"]
        for rank, spans in ranks.items():
            for s in spans:
                start = origin + s["ts_ms"] / 1e3
                extra.append({"name": s["name"], "start": start,
                              "end": start + s["dur_ms"] / 1e3,
                              "parent": index,
                              "step": tracer_spans[index]["step"],
                              "track": f"rank {rank} ({s['cat']})"})
    return extra


def oracle_op_counts(wl: Workload, batch) -> dict[str, float]:
    """Tensor op calls and allocated bytes of one serial-oracle step."""
    twin = Session(wl, "inproc")
    prof = OpProfiler(record_events=False)
    with prof:
        twin.backend.train_step(batch.input_ids, batch.labels,
                                batch.attention_mask)
    return {"tensor.op_calls_per_step": sum(s.calls for s in prof.ops.values()),
            "tensor.alloc_bytes_per_step": prof.alloc_bytes}


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


# ----------------------------------------------------------------------
def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    budget_steps = (args.steps if args.steps is not None
                    else max(1, round(wl.steps_per_second * args.seconds)))
    doc = {"workload": args.workload, "mode": args.mode, "seed": args.seed,
           "numpy": np.__version__, "blas": blas_info(),
           "attempted": 0, "failed": 0, "problems": [], "metrics": {}}
    problems = doc["problems"]
    metrics = doc["metrics"]

    train, evals = make_task(TASK, seq_len=wl.seq, seed=args.seed)
    stream = batch_stream(train, wl.batch, args.seed)
    t0 = time.perf_counter()
    session = Session(wl, wl.backend)
    metrics["backend.spawn_s"] = (time.perf_counter() - t0
                                  if wl.backend else 0.0)
    tracer = sp.Tracer()
    try:
        check_batches = [next(stream) for _ in range(CHECK_STEPS)]
        if wl.backend is not None:
            problems += check_against_oracle(wl, session, check_batches)
        else:
            for batch in check_batches:
                session.step(batch)
        first_loss = run_steps(session, stream, WARMUP_STEPS).losses[0]
        doc["t_ready"] = time.monotonic()
        if problems:
            return doc

        workers = _worker_pids()
        cpu0 = time.process_time() + sum(_cpu_seconds(p) for p in workers)
        if args.mode == "timed":
            n_untraced, n_traced = budget_steps, 0
        else:
            n_untraced = max(1, round(REF_SHARE * budget_steps))
            n_traced = max(1, round(TRACED_SHARE * budget_steps))
        doc["attempted"] = n_untraced + n_traced
        try:
            untraced = run_steps(session, stream, n_untraced)
            if session.backend is not None:
                session.backend.collect_timelines = n_traced > 0
            traced = run_steps(session, stream, n_traced, tracer, n_untraced)
        except Exception:
            # The backend tears its gang down before it raises: there is
            # nothing left to measure.
            problems.append("step raised:\n" + traceback.format_exc())
            return doc
        cpu1 = time.process_time() + sum(_cpu_seconds(p) for p in workers)
        worker_rss = [_peak_rss_mb(p) for p in workers]
        parent_rss = _peak_rss_mb(os.getpid())
    finally:
        t0 = time.perf_counter()
        session.close()
        metrics["backend.close_ms"] = ((time.perf_counter() - t0) * 1e3
                                       if wl.backend else 0.0)

    loop = untraced + traced
    problems += check_run(args.workload, first_loss, loop.losses,
                          loop.event_counts)
    t0 = time.perf_counter()
    eval_score = evaluate_task(session.model, evals["eval"])
    eval_s = time.perf_counter() - t0

    if args.mode == "timed":
        walls = loop.walls_ms
        metrics.update({
            "step_ms_p50": float(np.percentile(walls, 50.0)),
            "samples_per_s": wl.batch * len(walls) / (sum(walls) / 1e3),
            "cpu_ms_per_step": (cpu1 - cpu0) * 1e3 / len(walls),
            "peak_rss_mb": parent_rss + sum(worker_rss),
            "eval_score": eval_score,
        })
        # Printed, not gated: between identical runs on the reference box
        # it spreads as far as the widest bound allowed (see the README).
        doc["step_ms_p95"] = float(np.percentile(walls, 95.0))
        doc["samples_beyond_p95"] = sp.samples_beyond(len(walls), 95.0)
        doc["loss_final"] = loop.losses[-1]
        return doc

    medians = sp.median_ms_by_name(tracer.spans)
    for name in STEP_SPANS:
        metrics[f"{name}_ms"] = medians.get(name, 0.0)
    train_step_ms = [(s["end"] - s["start"]) * 1e3 for s in tracer.spans
                     if s["name"] == "backend.train_step"]
    metrics.update(timeline_metrics(wl, train_step_ms, traced.timelines,
                                    medians))
    slots = iteration_slots(wl.schedule, wl.microbatches, wl.pp)
    param_shapes = {name: p.data.shape
                    for name, p in session.model.named_parameters()}
    metrics.update({
        "pipeline.bubble_share_model": (slots - wl.microbatches) / slots,
        "backend.worker_rss_mb.max": max(worker_rss, default=0.0),
        "backend.parent_rss_mb": parent_rss,
        "training.eval_s": eval_s,
        "training.loss_final": loop.losses[-1],
        "nn.param_count": sum(int(np.prod(shape))
                              for shape in param_shapes.values()),
        "trace.step_ms_p50": medians["step"],
        "trace.span_coverage":
            sum(medians.get(name, 0.0) for name in STEP_SPANS)
            / medians["step"],
        "trace.overhead_share":
            medians["step"] / float(np.median(untraced.walls_ms)) - 1.0,
    })
    metrics.update(comm_counts(loop.last.events))
    # What the star control plane carries per step, as pickle frames it:
    # the weights broadcast, and one gradient dict per dp gang.
    protocol = pickle.HIGHEST_PROTOCOL
    metrics["backend.weights_payload_bytes"] = (
        len(pickle.dumps(("weights", session.model.state_dict()), protocol))
        if wl.backend else 0)
    metrics["backend.grads_payload_bytes"] = (
        wl.dp * len(pickle.dumps(loop.last.grads, protocol))
        if wl.backend else 0)
    metrics.update(oracle_op_counts(wl, check_batches[0]))

    # Imported here: the probes pull in layers the timed run never loads.
    import probes

    metrics.update(probes.tensor_probes(session.config.model, wl.batch,
                                        wl.seq))
    metrics.update(probes.compression_probes(
        session.config, wl.batch, wl.seq, metrics["nn.param_count"]))
    metrics.update(probes.collective_probes(session.config, wl.batch, wl.seq,
                                            param_shapes))
    metrics.update(probes.optimizer_probe(param_shapes))
    metrics.update(probes.transport_probes(wl.batch, wl.seq, wl.hidden))

    if args.trace_out:
        sp.write_chrome_trace(
            args.trace_out,
            tracer.spans + rank_track_spans(tracer.spans, traced.timelines),
            {"workload": args.workload, "seed": args.seed})
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--steps", type=int, default=None,
                        help="timed step count, overriding --seconds")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    doc = run(args)
    if doc["problems"]:
        # A failed check fails every step: no number of this run counts.
        doc["attempted"] = max(doc["attempted"], 1)
        doc["failed"] = doc["attempted"]
    doc["correct"] = not doc["problems"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for problem in doc["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
