"""Shared wall-clock timing helper: warmup + repeats, median/IQR.

One-shot timing (the old ``benchmarks/conftest.py`` ``run_once``) is
noise-dominated: the first call pays allocator warmup, cache population
and import side effects.  :func:`timed` runs ``warmup`` discarded calls
followed by ``rounds`` measured ones and reports the median with the
interquartile range as the spread estimate — robust against the
occasional scheduler hiccup that poisons a mean.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["TimingResult", "timed", "machine_calibration_ms"]


@dataclass
class TimingResult:
    """Wall times of one benchmarked callable."""

    times_ms: list[float]
    result: object  # return value of the last measured call

    @property
    def rounds(self) -> int:
        return len(self.times_ms)

    @property
    def median_ms(self) -> float:
        return float(np.median(self.times_ms))

    @property
    def iqr_ms(self) -> float:
        lo, hi = np.percentile(self.times_ms, [25.0, 75.0])
        return float(hi - lo)

    def as_dict(self) -> dict:
        return {
            "median": self.median_ms,
            "iqr": self.iqr_ms,
            "rounds": self.rounds,
            "times": list(self.times_ms),
        }


def timed(
    fn: Callable,
    *args,
    warmup: int = 1,
    rounds: int = 3,
    clock: Callable[[], float] = time.perf_counter,
    **kwargs,
) -> TimingResult:
    """Time ``fn(*args, **kwargs)``: ``warmup`` discarded + ``rounds`` kept."""
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn(*args, **kwargs)
    times_ms: list[float] = []
    result = None
    for _ in range(rounds):
        t0 = clock()
        result = fn(*args, **kwargs)
        times_ms.append((clock() - t0) * 1e3)
    return TimingResult(times_ms, result)


def machine_calibration_ms(rounds: int = 15) -> float:
    """Fastest time of a pinned NumPy workload, for cross-machine scaling.

    Wall times in a bench file are only comparable across machines after
    dividing by how fast the machine runs a fixed reference workload
    (GEMM + elementwise, the same mix the suite exercises).  ``compare``
    normalizes both sides by their own calibration before gating.

    The minimum, not the median: the number stands for the machine, and
    noise (a loaded core, a cold cache) can only slow the workload down.
    A calibration recorded at 2x its quiet value makes every later run
    look 2x slower than it is.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    b = rng.standard_normal((256, 256)).astype(np.float32)

    def workload():
        out = a
        for _ in range(8):
            out = np.tanh(out @ b)
        return out

    return min(timed(workload, warmup=2, rounds=rounds).times_ms)
