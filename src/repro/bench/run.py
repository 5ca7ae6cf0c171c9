"""Execute the pinned suite.

Every case runs once and contributes only deterministic values: comm
event counts and wire bytes from ``CommTracker.summary()``, the
:class:`~repro.obs.profile.OpProfiler` rollups of in-process steps, and
the simulator's breakdown columns.  :func:`~repro.bench.compare.drift`
pins all of them exactly.  Nothing here is timed — wall clock is
measured by ``benchmarks/e2e``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.suite import BenchCase, default_suite

__all__ = ["run_suite"]


# ----------------------------------------------------------------------
# Case runners
# ----------------------------------------------------------------------
def _run_backend_step(case: BenchCase) -> dict:
    """One optimizer step of a fresh model through an execution backend.

    The profiler is a side channel on the parent's tensor ops, so its
    rollups describe the whole step only when the ranks run in this
    process; for the mp gang they would count the parent alone and are
    not reported.
    """
    from repro.obs.profile import OpProfiler
    from repro.optim import Adam
    from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig
    from repro.parallel.backend import create_backend
    from repro.training.finetune import default_accuracy_model

    cfg = ModelParallelConfig(
        default_accuracy_model(num_classes=2, seed=0),
        tp=case.tp, pp=case.pp, dp=case.dp, sp=case.sp,
        scheme=case.scheme, seed=0,
        backend=case.backend, pipeline_schedule=case.schedule,
        num_microbatches=case.microbatches,
    )
    model = ModelParallelBertClassifier(cfg)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    input_ids = rng.integers(0, cfg.model.vocab_size, size=(16, 16))
    labels = rng.integers(0, 2, size=16)
    mask = np.ones((16, 16), dtype=np.int64)

    profiler = OpProfiler(record_events=False)
    with create_backend(case.backend, model) as backend, profiler, \
            profiler.span(case.id, cat="step", rank=0):
        result = backend.step(input_ids, labels, mask, optimizer)

    deterministic = {
        "comm_events": len(result.events),
        "comm_bytes": {"/".join(key): value
                       for key, value in model.tracker.summary().items()},
    }
    if case.backend == "inproc":
        summary = profiler.summary()
        for name in ("flops", "op_calls", "alloc_bytes", "peak_alloc_bytes"):
            deterministic[name] = summary[name]
    return deterministic


def _run_sim(case: BenchCase) -> dict:
    from repro.parallel.topology import ClusterTopology, LinkType
    from repro.simulator.iteration import IterationSimulator, SimSetting

    topo = ClusterTopology(1, case.tp * case.pp, LinkType.PCIE)
    breakdown = IterationSimulator(SimSetting(
        topo, case.tp, case.pp, 32, 512, num_microbatches=4,
        scheme=case.scheme, schedule=case.schedule,
    )).breakdown()
    return {name: getattr(breakdown, name) for name in (
        "total_ms", "forward_ms", "backward_ms", "optimizer_ms",
        "pipeline_ms", "encode_ms", "decode_ms", "tensor_comm_ms")}


_RUNNERS = {"backend_step": _run_backend_step, "sim": _run_sim}


# ----------------------------------------------------------------------
def run_suite(suite: list[BenchCase] | None = None, progress=None) -> dict:
    """Run every case of ``suite`` (default: the pinned suite) once.

    Returns the pin document ``{"schema_version": 2, "cases": [...]}``;
    ``progress(case, entry)`` is called after each case.
    """
    suite = default_suite() if suite is None else suite
    cases = []
    for case in suite:
        cases.append({"id": case.id, "kind": case.kind,
                      "params": case.params(),
                      "deterministic": _RUNNERS[case.kind](case)})
        if progress is not None:
            progress(case, cases[-1])
    return {"schema_version": 2, "cases": cases}
