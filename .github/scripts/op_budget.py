"""Per-op wall and page-fault budget of one serial training step.

    PYTHONPATH=src python .github/scripts/op_budget.py --tp 2 --pp 2 --scheme A2

Prints calls/step, ms/step, the share of profiled wall and minor page
faults/step per (phase, op), largest wall first.  Wall is the gap between
``OpProfiler`` events, so a row includes the interpreter time around its
op.  Faults are ``ru_minflt`` deltas between op-hook events of a second,
untimed run of the same steps, so reading them costs the wall column
nothing; the header line has faults and sys time of whole steps (optimizer
included) with no hook installed, and backward over forward wall of the
weight products (``linear``, DESIGN decision 15e) and of attention's
``__matmul__`` (twice the FLOPs, so about 2 when both run at one speed).
Informational for time: it names the
call site to look at, and a speed claim is made with
``benchmarks/e2e/run.py``.  ``--max-faults N`` exits 1 when a warmed step
faults more than N pages (Linux; the count is exact enough to gate, time is
not).
"""

import argparse
import resource
import sys
from collections import Counter

import numpy as np

from repro.nn.transformer import TransformerConfig
from repro.obs.profile import OpProfiler
from repro.optim import Adam
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.backend import create_backend
from repro.tensor import op_hook


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_stime


class FaultMeter:
    """Op hook: minor faults since the previous op event, per (phase, op)."""

    def __init__(self):
        self.by_op = Counter()
        self.last = _usage()[0]

    def __call__(self, op, data, parent_shapes, phase):
        now = _usage()[0]
        self.by_op[phase, op] += now - self.last
        self.last = now


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for axis in ("tp", "pp", "dp", "sp"):
        ap.add_argument(f"--{axis}", type=int, default=1)
    ap.add_argument("--scheme", default="w/o")
    ap.add_argument("--schedule", default="gpipe")
    ap.add_argument("--microbatches", type=int, default=1)
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--seq", type=int, default=32)
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--max-faults", type=int, default=None)
    args = ap.parse_args()

    model_cfg = TransformerConfig(
        vocab_size=128, max_seq_len=args.seq, hidden=args.hidden,
        num_layers=args.layers, num_heads=4, dropout=0.0, num_classes=2)
    model = ModelParallelBertClassifier(ModelParallelConfig(
        model_cfg, tp=args.tp, pp=args.pp, dp=args.dp, sp=args.sp,
        scheme=args.scheme, pipeline_schedule=args.schedule,
        num_microbatches=args.microbatches))
    backend = create_backend("inproc", model)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 128, size=(args.batch, args.seq))
    labels = rng.integers(0, 2, size=args.batch)
    mask = np.ones((args.batch, args.seq), dtype=np.int64)
    mask[:, -args.seq // 4:] = 0  # padded tails, as the tasks' batches have

    def step():
        backend.step(ids, labels, mask, optimizer)

    for _ in range(8):
        step()
    faults0, sys0 = _usage()
    for _ in range(args.steps):
        step()
    faults1, sys1 = _usage()
    faults = (faults1 - faults0) / args.steps
    prof = OpProfiler(record_events=False)
    with prof:
        for _ in range(args.steps):
            with prof.span("step"):  # keeps between-step time off the first op
                step()
    meter = FaultMeter()
    with op_hook(meter):
        for _ in range(args.steps):
            meter.last = _usage()[0]
            step()

    total = prof.total_wall_ms()

    def ratio(op):
        return prof.ops["backward", op].wall_ms / prof.ops["forward", op].wall_ms

    print(f"{total / args.steps:.1f} ms/step profiled over {args.steps} steps; "
          f"unhooked: {faults:.0f} minor faults/step, "
          f"{(sys1 - sys0) * 1e3 / args.steps:.2f} ms sys/step; "
          f"backward/forward linear {ratio('linear'):.2f}, "
          f"attention __matmul__ {ratio('__matmul__'):.2f}")
    print(f"{'phase':<9}{'op':<16}{'calls/step':>11}{'ms/step':>10}{'share':>8}"
          f"{'faults/step':>13}")
    for (phase, op), s in sorted(prof.ops.items(), key=lambda kv: -kv[1].wall_ms):
        print(f"{phase:<9}{op:<16}{s.calls / args.steps:>11.1f}"
              f"{s.wall_ms / args.steps:>10.2f}{s.wall_ms / total:>8.1%}"
              f"{meter.by_op[phase, op] / args.steps:>13.0f}")
    if args.max_faults is not None and faults > args.max_faults:
        print(f"FAIL: {faults:.0f} minor faults/step > {args.max_faults}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
