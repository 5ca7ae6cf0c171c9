"""Per-op wall budget of one serial training step, from ``OpProfiler``.

    PYTHONPATH=src python .github/scripts/op_budget.py --tp 2 --pp 2 --scheme A2

Prints calls/step, ms/step and the share of profiled wall per (phase, op),
largest first.  Wall is the gap between profiler events, so a row includes
the interpreter time around its op.  Informational: it names the call site
to look at; a speed claim is made with ``benchmarks/e2e/run.py``.
"""

import argparse

import numpy as np

from repro.nn.transformer import TransformerConfig
from repro.obs.profile import OpProfiler
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.backend import create_backend


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for axis in ("tp", "pp", "dp", "sp"):
        ap.add_argument(f"--{axis}", type=int, default=1)
    ap.add_argument("--scheme", default="w/o")
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--seq", type=int, default=32)
    ap.add_argument("--steps", type=int, default=20)
    args = ap.parse_args()

    model_cfg = TransformerConfig(
        vocab_size=128, max_seq_len=args.seq, hidden=args.hidden,
        num_layers=args.layers, num_heads=4, dropout=0.0, num_classes=2)
    backend = create_backend("inproc", ModelParallelBertClassifier(ModelParallelConfig(
        model_cfg, tp=args.tp, pp=args.pp, dp=args.dp, sp=args.sp,
        scheme=args.scheme)))
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 128, size=(args.batch, args.seq))
    labels = rng.integers(0, 2, size=args.batch)

    for _ in range(3):
        backend.train_step(ids, labels)
    prof = OpProfiler(record_events=False)
    with prof:
        for _ in range(args.steps):
            with prof.span("step"):  # keeps between-step time off the first op
                backend.train_step(ids, labels)

    total = prof.total_wall_ms()
    print(f"{total / args.steps:.1f} ms/step profiled over {args.steps} steps")
    print(f"{'phase':<9}{'op':<16}{'calls/step':>11}{'ms/step':>10}{'share':>8}")
    for (phase, op), s in sorted(prof.ops.items(), key=lambda kv: -kv[1].wall_ms):
        print(f"{phase:<9}{op:<16}{s.calls / args.steps:>11.1f}"
              f"{s.wall_ms / args.steps:>10.2f}{s.wall_ms / total:>8.1%}")


if __name__ == "__main__":
    main()
