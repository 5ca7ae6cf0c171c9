"""The determinism pin: a pinned suite gated against a committed baseline.

``python -m repro.bench`` executes the pinned suite (one optimizer step
per execution backend × topology × compression scheme, and the simulator
sweep), each case once, collecting only deterministic values — profiler
rollups (FLOPs, op calls, allocation bytes and peak), comm bytes from
``CommTracker.summary()``, simulator breakdowns — and prints every
difference from the committed ``benchmarks/baseline.json``, exiting
nonzero on any.  Tier-1 asserts the same comparison.

Nothing here measures wall time: ``benchmarks/e2e`` is the only basis
for a speed claim.
"""

from repro.bench.compare import drift
from repro.bench.run import run_suite
from repro.bench.suite import BenchCase, default_suite

__all__ = [
    "BenchCase",
    "default_suite",
    "run_suite",
    "drift",
]
