"""The determinism pin: a pinned suite gated against a committed baseline.

``python -m repro.bench run`` executes the pinned suite (one optimizer
step per execution backend × topology × compression scheme, and the
simulator sweep), each case once, collecting only deterministic values —
profiler rollups (FLOPs, op calls, allocation bytes and peak), comm
bytes from ``CommTracker.summary()``, simulator breakdowns — into a
schema-validated ``BENCH_<git-sha>.json``.

``python -m repro.bench compare`` gates a candidate file against the
committed ``benchmarks/baseline.json`` — every value must match — and
exits nonzero on drift, which is what CI runs on every PR.

``python -m repro.bench report`` renders a run as markdown or CSV.

Nothing here measures wall time: ``benchmarks/e2e`` is the only basis
for a speed claim.
"""

from repro.bench.compare import CompareResult, compare_docs, load_doc
from repro.bench.run import run_suite
from repro.bench.schema import validate_bench
from repro.bench.suite import BenchCase, default_suite

__all__ = [
    "BenchCase",
    "default_suite",
    "run_suite",
    "validate_bench",
    "compare_docs",
    "CompareResult",
    "load_doc",
]
