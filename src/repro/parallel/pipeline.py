"""Pipeline-parallel stage partitioning and schedule descriptions.

Megatron's default layer assignment balances transformer layers across
stages (§4.7: "every stage takes the same time in our scenario"); this
module provides that partition plus the schedule bookkeeping shared by
the real runtime (backend workers execute :func:`schedule_ops` verbatim)
and the performance simulator.

Two schedules are described:

- ``"gpipe"`` — all forwards, then all backwards (``F0..Fm-1 B0..Bm-1``
  on every stage). Peak in-flight activations: ``m`` microbatch graphs.
- ``"1f1b"`` — the non-interleaved one-forward-one-backward schedule
  (PipeDream-flush): stage ``s`` warms up with ``min(pp-1-s, m)``
  forwards, then alternates F/B, then drains the remaining backwards.
  Same makespan as GPipe, ``(m + pp - 1)(tf + tb)``, but the peak
  in-flight activation count drops to ``min(pp - s, m)`` and every
  steady-state boundary send overlaps a backward on the other side.

Both schedules run backwards in ascending microbatch order, so weight
gradients accumulate in the same order and the two schedules (and the
serial oracle) stay bitwise-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PipelinePartition",
    "ScheduleOp",
    "SCHEDULES",
    "pipeline_stages",
    "gpipe_iteration_slots",
    "iteration_slots",
    "schedule_ops",
    "peak_inflight_microbatches",
]

#: Valid values of ``ModelParallelConfig.pipeline_schedule``.
SCHEDULES = ("gpipe", "1f1b")


@dataclass(frozen=True)
class PipelinePartition:
    """Contiguous assignment of ``num_layers`` layers to ``pp`` stages."""

    num_layers: int
    pp: int
    stages: tuple[tuple[int, ...], ...]

    @staticmethod
    def balanced(num_layers: int, pp: int) -> "PipelinePartition":
        """Balance layer counts; earlier stages get the remainder layers."""
        if pp <= 0 or num_layers <= 0:
            raise ValueError("num_layers and pp must be positive")
        if pp > num_layers:
            raise ValueError(f"cannot split {num_layers} layers into {pp} stages")
        base, rem = divmod(num_layers, pp)
        stages, start = [], 0
        for s in range(pp):
            count = base + (1 if s < rem else 0)
            stages.append(tuple(range(start, start + count)))
            start += count
        return PipelinePartition(num_layers, pp, tuple(stages))

    def stage_of(self, layer: int) -> int:
        """Stage index hosting ``layer``."""
        for s, layers in enumerate(self.stages):
            if layer in layers:
                return s
        raise ValueError(f"layer {layer} not in partition of {self.num_layers}")

    def boundaries(self) -> list[int]:
        """Last layer index of each non-final stage (the PP cut points)."""
        return [stage[-1] for stage in self.stages[:-1]]

    def layers_of(self, stage: int) -> tuple[int, ...]:
        return self.stages[stage]

    @property
    def num_boundaries(self) -> int:
        return self.pp - 1


def pipeline_stages(num_layers: int, pp: int) -> PipelinePartition:
    """Convenience alias for :meth:`PipelinePartition.balanced`."""
    return PipelinePartition.balanced(num_layers, pp)


def gpipe_iteration_slots(num_microbatches: int, pp: int) -> int:
    """Number of sequential stage-slots in one GPipe iteration.

    A stage processes ``m`` microbatches; the pipeline drains after
    ``m + p - 1`` slots (per direction). This is the (m-1)/n + 1 factor in
    the paper's Eq. (3) when expressed per-microbatch.
    """
    if num_microbatches <= 0 or pp <= 0:
        raise ValueError("num_microbatches and pp must be positive")
    return num_microbatches + pp - 1


@dataclass(frozen=True)
class ScheduleOp:
    """One unit of per-stage pipeline work: a forward or backward pass.

    Workers execute these verbatim, so a malformed op is a distributed
    bug waiting on a peer that will never answer — validated at
    construction.
    """

    kind: str  # "F" | "B"
    microbatch: int

    def __post_init__(self) -> None:
        if self.kind not in ("F", "B"):
            raise ValueError(f"ScheduleOp kind must be 'F' or 'B', got {self.kind!r}")
        if self.microbatch < 0:
            raise ValueError(f"ScheduleOp microbatch must be >= 0, got {self.microbatch}")


def _check_schedule(schedule: str) -> None:
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown pipeline schedule {schedule!r}; valid: {list(SCHEDULES)}"
        )


def iteration_slots(schedule: str, num_microbatches: int, pp: int) -> int:
    """Sequential stage-slots per direction of one iteration.

    GPipe and non-interleaved 1F1B share the same makespan — 1F1B's win
    is peak in-flight memory and comm/compute overlap, not raw bubble
    slots (the bubble only shrinks with interleaved virtual stages).
    """
    _check_schedule(schedule)
    return gpipe_iteration_slots(num_microbatches, pp)


def warmup_depth(schedule: str, pp: int, stage: int, num_microbatches: int) -> int:
    """Forwards stage ``stage`` runs before its first backward."""
    _check_schedule(schedule)
    if schedule == "gpipe":
        return num_microbatches
    return min(pp - 1 - stage, num_microbatches)


def schedule_ops(schedule: str, pp: int, stage: int,
                 num_microbatches: int) -> list[ScheduleOp]:
    """The exact F/B op sequence stage ``stage`` executes in one iteration.

    Backend workers run this list verbatim; forwards and backwards are
    each issued in ascending microbatch order under both schedules, which
    is what keeps gradient accumulation (and stateful compressors' RNG /
    residual streams) bitwise-identical across schedules and backends.
    """
    m = num_microbatches
    if m <= 0 or pp <= 0:
        raise ValueError("num_microbatches and pp must be positive")
    if not 0 <= stage < pp:
        raise ValueError(f"stage {stage} out of range for pp={pp}")
    _check_schedule(schedule)
    if schedule == "gpipe":
        return [ScheduleOp("F", i) for i in range(m)] + \
               [ScheduleOp("B", i) for i in range(m)]
    w = warmup_depth(schedule, pp, stage, m)
    ops = [ScheduleOp("F", i) for i in range(w)]
    bwd = 0
    for fwd in range(w, m):  # steady state: one forward, one backward
        ops.append(ScheduleOp("F", fwd))
        ops.append(ScheduleOp("B", bwd))
        bwd += 1
    ops.extend(ScheduleOp("B", i) for i in range(bwd, m))  # drain
    return ops


def peak_inflight_microbatches(schedule: str, pp: int, stage: int,
                               num_microbatches: int) -> int:
    """Most microbatch graphs stage ``stage`` holds live at once.

    The memory headline of 1F1B: a stage never holds more than
    ``min(pp - stage, m)`` activation graphs, versus GPipe's ``m``.
    """
    _check_schedule(schedule)
    m = num_microbatches
    if schedule == "gpipe":
        return m
    return min(pp - stage, m)
