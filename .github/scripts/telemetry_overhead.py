"""Telemetry overhead gate: an observed mp step must cost <2% over an unobserved one.

For each cell of the mp step matrix (TP×PP layouts, 1F1B-m4 on the
pipelined ones, the dp2 and sp2 grid cells; w/o, T2, Q2 each) two gangs
are built from the same seed, differing only in ``collect_timelines``: the
on-gang asks every rank for its step record on every step.  Both gangs stay up and
take turns running the same optimizer step, alternating which side goes
first, so load drift, cache warmth and allocator state hit both sides
alike.  The gate is the ratio of *summed* per-cell medians (on/off):
one cell's median carries more scheduler noise than a 2% signal, but the
noise is zero-mean across the matrix while a real cost (taking the spans,
the per-call fidelity norms, the step-end gauges, a heavier reply) taxes every
cell in the same direction.  Method and history: EXPERIMENTS.md "Telemetry overhead".

    PYTHONPATH=src python .github/scripts/telemetry_overhead.py
"""

import statistics
import sys
import time

import numpy as np

from repro.obs.metrics import step_rows
from repro.optim import Adam
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.backend import create_backend
from repro.training.finetune import default_accuracy_model

BAR = 1.02
WARMUP, ROUNDS = 1, 15
SCHEMES = ("w/o", "T2", "Q2")
#: (dp, tp, pp, sp, schedule, microbatches)
CELLS = [(1, tp, pp, 1, "gpipe", 1) for tp, pp in ((2, 1), (1, 2), (2, 2))]
CELLS += [(1, tp, pp, 1, "1f1b", 4) for tp, pp in ((1, 2), (2, 2))]
CELLS += [(2, 1, 1, 1, "gpipe", 1), (1, 1, 2, 2, "gpipe", 1)]


class Gang:
    """One mp gang and the optimizer step the trainer would drive on it."""

    def __init__(self, cell, scheme, observed):
        dp, tp, pp, sp, schedule, microbatches = cell
        cfg = ModelParallelConfig(
            default_accuracy_model(num_classes=2, seed=0),
            tp=tp, pp=pp, dp=dp, sp=sp, scheme=scheme, seed=0, backend="mp",
            pipeline_schedule=schedule, num_microbatches=microbatches)
        self.model = ModelParallelBertClassifier(cfg)
        self.optimizer = Adam(self.model.parameters(), lr=1e-3)
        rng = np.random.default_rng(0)
        self.batch = (rng.integers(0, cfg.model.vocab_size, size=(16, 16)),
                      rng.integers(0, 2, size=16),
                      np.ones((16, 16), dtype=np.int64))
        self.events = 0
        self.backend = create_backend("mp", self.model,
                                      collect_timelines=observed)

    def timed_step(self):
        t0 = time.perf_counter()
        result = self.backend.step(*self.batch, self.optimizer)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self.events += len(step_rows(e for events in result.record.values()
                                     for e in events))
        return elapsed_ms


def main():
    off_total = on_total = 0.0
    for cell in CELLS:
        for scheme in SCHEMES:
            off, on = Gang(cell, scheme, False), Gang(cell, scheme, True)
            try:
                times = {off: [], on: []}
                for i in range(WARMUP + ROUNDS):
                    for gang in ((off, on) if i % 2 == 0 else (on, off)):
                        ms = gang.timed_step()
                        if i >= WARMUP:
                            times[gang].append(ms)
            finally:
                off.backend.close()
                on.backend.close()
            if off.events or not on.events:
                print(f"observation switch did not take: off saw {off.events} "
                      f"step rows, on saw {on.events}", file=sys.stderr)
                return 2
            off_ms, on_ms = (statistics.median(times[g]) for g in (off, on))
            off_total += off_ms
            on_total += on_ms
            print(f"dp{cell[0]} tp{cell[1]} pp{cell[2]} sp{cell[3]} "
                  f"{cell[4]}-m{cell[5]} {scheme}: off {off_ms:.2f} ms, "
                  f"on {on_ms:.2f} ms ({(on_ms / off_ms - 1) * 100:+.1f}%)")
    ratio = on_total / off_total
    print(f"aggregate on/off ratio: {ratio:.4f} (bar {BAR})")
    return 0 if ratio < BAR else 1


if __name__ == "__main__":
    sys.exit(main())
