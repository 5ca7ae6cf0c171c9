"""``python -m repro.obs`` — report on recorded runs, produce smoke runs.

Usage::

    python -m repro.obs report RUN [--trace out.json]
    python -m repro.obs smoke --outdir runs [--schemes T2 R2 Q2 A2]
                              [--task RTE] [--epochs 1] [--batch-size 32]
    python -m repro.obs sim-trace --out sim.json [--scheme A2]
                                  [--tp 2] [--pp 2] [--microbatches 4]
                                  [--schedule 1f1b]
    python -m repro.obs mp-trace --out mp.json [--scheme A2]
                                 [--tp 2] [--pp 2] [--schedule 1f1b]
                                 [--microbatches 4] [--conc-log runs/conc]
    python -m repro.obs top --steps 8 [--scheme A2] [--tp 2] [--pp 2]
                            [--registry runs] [--html dash.html]
    python -m repro.obs diff RUN_A RUN_B [--registry runs]
    python -m repro.obs html RUN --out dash.html [--registry runs]

A run is a rank-event JSONL file, the one a
:class:`~repro.obs.metrics.RunRecorder` streams (``stream_path``), and
``RUN`` names one: an id in the registry directory (``--registry``,
default ``runs``, which ``report`` always reads: ``runs/<id>.jsonl``) or
a path.  ``report``, ``diff`` and ``html`` load every run through one
loader (:func:`~repro.obs.telemetry.registry.read_run`) and read one
fold of it, :func:`~repro.obs.metrics.summarize` — the numbers
:meth:`RunRecorder.summary` gives.

``report`` prints the run's summary: gauges, phase timers, per-rank
windows, per-site compression fidelity and the health alerts replayed
over its steps.

``smoke`` runs one short recorded fine-tune per scheme and writes, per
scheme, ``smoke-<scheme>.jsonl`` / ``.csv`` / ``.trace.json`` — the
artifact set CI uploads; the run file carries the steps' ``fidelity``
events.

``sim-trace`` exports the simulated GPipe iteration of one Table-4
setting as a Chrome trace (open in Perfetto or ``chrome://tracing``).

``mp-trace`` runs one real training step through the multiprocess
execution backend with per-rank timelines enabled and renders the step's
rank event record (``StepResult.record``) as one Chrome trace — one track
per logical rank, ``mp.wait`` slices showing where ranks block on each
other, ``comm`` instants for what each rank sent.

``top`` drives a short real training loop through the mp backend with
every step observed (``collect_timelines``), streams each step's events —
its own and every rank's slice off the reply — into the run file
``<registry>/<run_id>.jsonl``, and prints the run's summary after every
optimizer step; ``--html`` also writes the last one as a standalone HTML
snapshot.  A killed run keeps every finished step.

``diff`` compares two runs metric-by-metric; ``html`` renders a run as an
HTML dashboard.

``mp-trace`` and ``top`` read the multiprocess backend's rank event
records, so both refuse an inproc run (``--backend`` / the
``REPRO_BACKEND`` environment variable) with a clear error.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs.metrics import RunRecorder, summarize
from repro.obs.trace import chrome_trace, simulated_iteration_trace, write_trace

__all__ = ["main"]

#: One representative scheme per compressor family (topk/randomk/quant/ae).
SMOKE_SCHEMES = ["T2", "R2", "Q2", "A2"]


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import read_run, render_top

    try:
        events, summary = read_run(args.registry, args.run)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    print(render_top(summary))
    if args.trace:
        write_trace(chrome_trace(events, summary["meta"]), args.trace)
        print(f"\ntrace written to {args.trace}")
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    # Imported here: training pulls in the full model stack, which `report`
    # (the common path) should not pay for.
    from repro.training.finetune import finetune_on_task
    from repro.training.trainer import TrainConfig

    os.makedirs(args.outdir, exist_ok=True)
    written: list[str] = []
    for scheme in args.schemes:
        stem = os.path.join(args.outdir, f"smoke-{scheme}")
        recorder = RunRecorder(
            run_id=f"smoke-{scheme}",
            meta={"task": args.task, "scheme": scheme, "tp": 2, "pp": 2},
            stream_path=stem + ".jsonl",
        )
        result = finetune_on_task(
            args.task,
            scheme=scheme,
            tp=2,
            pp=2,
            train_config=TrainConfig(epochs=args.epochs, lr=1e-3, seed=0,
                                     batch_size=args.batch_size),
            seed=0,
            recorder=recorder,
        )
        written.append(recorder.stream_path)
        written.append(recorder.to_csv(stem + ".csv"))
        written.append(write_trace(
            chrome_trace(recorder.events, {"run_id": recorder.run_id, **recorder.meta}),
            stem + ".trace.json",
        ))
        calls = [e for e in recorder.events if e["kind"] == "fidelity"]
        print(f"{scheme}: {len(recorder.records)} steps, "
              f"{len(calls)} fidelity events over "
              f"{len({e['site'] for e in calls})} sites, "
              f"primary={result.primary:.2f}")
    print("wrote:")
    for path in written:
        print(f"  {path}")
    return 0


def cmd_sim_trace(args: argparse.Namespace) -> int:
    from repro.parallel.topology import ClusterTopology
    from repro.simulator.iteration import SimSetting

    setting = SimSetting(
        ClusterTopology.p3_8xlarge(), args.tp, args.pp, args.batch, args.seq,
        num_microbatches=args.microbatches, scheme=args.scheme,
        schedule=args.schedule,
    )
    write_trace(simulated_iteration_trace(setting), args.out)
    print(f"simulated {args.scheme} TP={args.tp} PP={args.pp} "
          f"{args.schedule} trace -> {args.out}")
    return 0


def _require_mp_backend(args: argparse.Namespace, verb: str) -> str | None:
    """Resolve the execution backend for a telemetry verb; ``None`` = refuse.

    Precedence: ``--backend`` flag, then ``REPRO_BACKEND``, then ``mp``.
    The rank event record (per-rank timelines, telemetry summaries) does
    not exist for an inproc run, so anything other than ``mp`` is an error —
    printed to stderr so scripts see a clean exit 1, not a traceback.
    """
    backend = args.backend or os.environ.get("REPRO_BACKEND", "").strip() or "mp"
    if backend != "mp":
        print(
            f"error: `repro.obs {verb}` reads the multiprocess backend's "
            f"rank event records (per-rank timelines, telemetry summaries); "
            f"backend {backend!r} runs in-process and has none. "
            f"Re-run with --backend mp (or unset REPRO_BACKEND).",
            file=sys.stderr,
        )
        return None
    return backend


def cmd_mp_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
    from repro.parallel.backend import create_backend
    from repro.parallel.backend.events import ENV_VAR as CONC_ENV
    from repro.training.finetune import default_accuracy_model

    if _require_mp_backend(args, "mp-trace") is None:
        return 1
    if args.conc_log:
        # Workers are spawned with an inherited environment, so setting
        # the variable here makes every rank write a per-rank event log
        # into the directory — replayable with
        # ``python -m repro.lint --race-log <dir>``.
        os.makedirs(args.conc_log, exist_ok=True)
        os.environ[CONC_ENV] = args.conc_log

    cfg = ModelParallelConfig(
        default_accuracy_model(num_classes=2, seed=0),
        tp=args.tp, pp=args.pp, scheme=args.scheme, seed=0, backend="mp",
        pipeline_schedule=args.schedule, num_microbatches=args.microbatches,
    )
    model = ModelParallelBertClassifier(cfg)
    rng = np.random.default_rng(0)
    input_ids = rng.integers(0, cfg.model.vocab_size, size=(args.batch, args.seq))
    labels = rng.integers(0, 2, size=args.batch)

    backend = create_backend("mp", model, collect_timelines=True)
    try:
        result = backend.train_step(input_ids, labels, None)
    finally:
        backend.close()
    meta = {"run_id": f"mp-step-{args.scheme}-tp{args.tp}pp{args.pp}",
            "scheme": args.scheme, "tp": args.tp, "pp": args.pp,
            "loss": result.loss}
    record = [e for rank in sorted(result.record) for e in result.record[rank]]
    write_trace(chrome_trace(record, meta), args.out)
    spans = sum(e["kind"] == "span" for e in record)
    print(f"mp {args.scheme} TP={args.tp} PP={args.pp}: "
          f"{len(result.record)} ranks, {spans} spans -> {args.out}")
    if args.conc_log:
        print(f"concurrency event logs -> {args.conc_log} "
              f"(replay: python -m repro.lint --race-log {args.conc_log})")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.obs.telemetry import check_run_id, render_top, write_html
    from repro.optim import Adam
    from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
    from repro.parallel.backend import create_backend
    from repro.training.finetune import default_accuracy_model

    if _require_mp_backend(args, "top") is None:
        return 1
    run_id = args.run_id or f"top-{args.scheme}-tp{args.tp}pp{args.pp}"
    try:
        check_run_id(run_id)
    except ValueError as exc:
        return _fail(exc)
    cfg = ModelParallelConfig(
        default_accuracy_model(num_classes=2, seed=0),
        tp=args.tp, pp=args.pp, scheme=args.scheme, seed=0, backend="mp",
        pipeline_schedule=args.schedule, num_microbatches=args.microbatches,
    )
    model = ModelParallelBertClassifier(cfg)
    rng = np.random.default_rng(0)
    recorder = RunRecorder(
        run_id, stream_path=os.path.join(args.registry, f"{run_id}.jsonl"),
        meta={"scheme": args.scheme, "tp": args.tp, "pp": args.pp,
              "schedule": args.schedule, "microbatches": args.microbatches,
              "steps": args.steps, "fault_plan": os.environ.get("REPRO_FAULT_PLAN", "")})
    clear = sys.stdout.isatty()

    backend = create_backend("mp", model, collect_timelines=True)
    try:
        optimizer = Adam(model.parameters(), lr=1e-3)
        for step in range(args.steps):
            input_ids = rng.integers(0, cfg.model.vocab_size,
                                     size=(args.batch, args.seq))
            labels = rng.integers(0, 2, size=args.batch)
            with recorder.step(step):
                result = backend.step(input_ids, labels, None, optimizer)
                recorder.gauge("loss", result.loss)
                # The workers' slices join the step's own: the run file
                # holds every rank's events.
                recorder.record.events += [e for rank in sorted(result.record)
                                           for e in result.record[rank]]
            frame = render_top(summarize(recorder.events))
            print(("\x1b[2J\x1b[H" if clear else "") + frame)
            if not clear:
                print("-" * 72)
    finally:
        backend.close()

    summary = summarize(recorder.events)
    print(f"run file -> {recorder.stream_path}")
    if args.html:
        print(f"html dashboard -> {write_html(args.html, summary)}")
    print(f"{args.steps} steps, {summary['health']['total']} alert(s)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import format_diff, read_run

    try:
        (_, doc_a), (_, doc_b) = (read_run(args.registry, ref)
                                  for ref in (args.run_a, args.run_b))
    except (OSError, ValueError) as exc:
        return _fail(exc)
    print(format_diff(doc_a, doc_b))
    return 0


def cmd_html(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import read_run, write_html

    try:
        _, doc = read_run(args.registry, args.run)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    print(f"html dashboard -> {write_html(args.out, doc)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.obs",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_report = sub.add_parser("report", help="summarize a recorded run")
    p_report.add_argument("run", help="run id in ./runs or path to a rank-event JSONL run file")
    p_report.add_argument("--trace", help="also export a Chrome trace to this path")
    p_report.set_defaults(fn=cmd_report, registry="runs")

    p_smoke = sub.add_parser("smoke", help="run short recorded fine-tunes")
    p_smoke.add_argument("--outdir", default="runs")
    p_smoke.add_argument("--task", default="RTE")
    p_smoke.add_argument("--schemes", nargs="+", default=SMOKE_SCHEMES)
    p_smoke.add_argument("--epochs", type=int, default=1)
    p_smoke.add_argument("--batch-size", type=int, default=32)
    p_smoke.set_defaults(fn=cmd_smoke)

    p_sim = sub.add_parser("sim-trace", help="export a simulated GPipe iteration trace")
    p_sim.add_argument("--out", default="sim-trace.json")
    p_sim.add_argument("--scheme", default="A2")
    p_sim.add_argument("--tp", type=int, default=2)
    p_sim.add_argument("--pp", type=int, default=2)
    p_sim.add_argument("--batch", type=int, default=16)
    p_sim.add_argument("--seq", type=int, default=512)
    p_sim.add_argument("--microbatches", type=int, default=4)
    p_sim.add_argument("--schedule", choices=["gpipe", "1f1b"], default="gpipe")
    p_sim.set_defaults(fn=cmd_sim_trace)

    p_mp = sub.add_parser("mp-trace",
                          help="export per-rank timelines of one real mp-backend step")
    p_mp.add_argument("--out", default="mp-trace.json")
    p_mp.add_argument("--scheme", default="A2")
    p_mp.add_argument("--tp", type=int, default=2)
    p_mp.add_argument("--pp", type=int, default=2)
    p_mp.add_argument("--batch", type=int, default=8)
    p_mp.add_argument("--seq", type=int, default=16)
    p_mp.add_argument("--schedule", choices=["gpipe", "1f1b"], default="gpipe")
    p_mp.add_argument("--microbatches", type=int, default=1)
    p_mp.add_argument("--conc-log", metavar="DIR",
                      help="record per-rank concurrency event logs (DYN003 "
                           "race-detector input) into DIR")
    p_mp.add_argument("--backend", default=None,
                      help="execution backend (default: $REPRO_BACKEND or mp; "
                           "anything but mp is refused)")
    p_mp.set_defaults(fn=cmd_mp_trace)

    p_top = sub.add_parser(
        "top", help="live per-rank telemetry dashboard over a short mp run")
    p_top.add_argument("--steps", type=int, default=8)
    p_top.add_argument("--scheme", default="A2")
    p_top.add_argument("--tp", type=int, default=2)
    p_top.add_argument("--pp", type=int, default=2)
    p_top.add_argument("--batch", type=int, default=8)
    p_top.add_argument("--seq", type=int, default=16)
    p_top.add_argument("--schedule", choices=["gpipe", "1f1b"], default="1f1b")
    p_top.add_argument("--microbatches", type=int, default=2)
    p_top.add_argument("--registry", default="runs",
                       help="run-registry directory for the run file <run-id>.jsonl")
    p_top.add_argument("--run-id", default=None,
                       help="registry id (default: top-<scheme>-tp<T>pp<P>)")
    p_top.add_argument("--html", metavar="PATH",
                       help="also write a standalone HTML dashboard")
    p_top.add_argument("--backend", default=None,
                       help="execution backend (default: $REPRO_BACKEND or mp; "
                            "anything but mp is refused)")
    p_top.set_defaults(fn=cmd_top)

    p_diff = sub.add_parser(
        "diff", help="per-metric regression table between two runs")
    p_diff.add_argument("run_a", help="registry run id or run file path")
    p_diff.add_argument("run_b", help="registry run id or run file path")
    p_diff.add_argument("--registry", default="runs")
    p_diff.set_defaults(fn=cmd_diff)

    p_html = sub.add_parser(
        "html", help="render a run as an HTML dashboard")
    p_html.add_argument("run", help="registry run id or run file path")
    p_html.add_argument("--out", default="dashboard.html")
    p_html.add_argument("--registry", default="runs")
    p_html.set_defaults(fn=cmd_html)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream reader (e.g. ``| head``) closed stdout early; not an
        # error. Swap in devnull so interpreter shutdown doesn't re-raise
        # while flushing the dead pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
