"""The pinned suite: which workloads the determinism pin tracks.

Two kinds of case, both run exactly once (nothing here is timed; wall
clock belongs to ``benchmarks/e2e``):

- ``backend_step`` — one optimizer step of the scaled-down accuracy
  model driven through an execution backend.  Every case pins its comm
  event count and per-``group/phase/scheme`` wire bytes, which must be
  identical between the ``inproc`` oracle and the ``mp`` process gang
  (bitwise-equivalence contract).  In-process cases additionally pin the
  :class:`~repro.obs.profile.OpProfiler` rollups (FLOPs, op calls,
  allocation bytes and peak) and cover all five schemes per TP×PP
  layout; the mp gang runs one scheme per collective path plus
  microbatched 1F1B variants (``.../1f1b-m4``), and both backends run
  the DP and ring-SP grid cells.  Losses are never pinned: they depend
  on BLAS summation order, comm accounting does not.
- ``sim`` — the calibrated simulator's iteration breakdown for the same
  layout×scheme grid at BERT-Large scale, under both schedules on
  pipelined layouts.  Any change to the cost model shows up.

Case ids are stable strings (``backend_step/inproc/tp2pp1/T2``); the
compare gate matches baseline and candidate by id.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BenchCase", "LAYOUTS", "SCHEMES", "BACKEND_SCHEMES",
           "GRID_CELLS", "default_suite", "scheme_slug", "topology_slug"]

#: (tp, pp) layouts the paper's small-scale tables exercise.
LAYOUTS: tuple[tuple[int, int], ...] = ((2, 1), (1, 2), (2, 2))

#: (dp, tp, pp, sp) cells exercising the DP and ring-SP topology axes on
#: the backend seam.
GRID_CELLS: tuple[tuple[int, int, int, int], ...] = (
    (2, 1, 1, 1),  # pure data parallelism, compressible gradient wire
    (1, 1, 2, 2),  # ring sequence parallelism across a pipeline split
)

#: One representative scheme per family plus the uncompressed baseline.
SCHEMES: tuple[str, ...] = ("w/o", "T2", "R2", "Q2", "A2")

#: Schemes the mp gang and the grid cells track — one per collective path
#: (identity, all-gather, quantized) is enough to cover the transport.
BACKEND_SCHEMES: tuple[str, ...] = ("w/o", "T2", "Q2")


def scheme_slug(scheme: str) -> str:
    """Scheme label as a path-safe id component (``w/o`` → ``wo``)."""
    return scheme.replace("/", "")


def topology_slug(dp: int, tp: int, pp: int, sp: int) -> str:
    """Stable id component for a grid cell (``dp2tp1pp1``, ``tp1pp2sp2``).

    Degenerate axes are omitted so pre-grid case ids (``tp2pp1`` …) are
    unchanged — the compare gate matches baseline rows by id.
    """
    slug = f"tp{tp}pp{pp}"
    if dp > 1:
        slug = f"dp{dp}{slug}"
    if sp > 1:
        slug = f"{slug}sp{sp}"
    return slug


@dataclass(frozen=True)
class BenchCase:
    """One tracked workload."""

    id: str
    kind: str  # "backend_step" | "sim"
    scheme: str = "w/o"
    tp: int = 1
    pp: int = 1
    dp: int = 1
    sp: int = 1
    backend: str = "inproc"
    schedule: str = "gpipe"
    microbatches: int = 1

    def params(self) -> dict:
        return {"scheme": self.scheme, "tp": self.tp, "pp": self.pp,
                "dp": self.dp, "sp": self.sp,
                "backend": self.backend, "schedule": self.schedule,
                "microbatches": self.microbatches}


def default_suite() -> list[BenchCase]:
    """The pinned suite, in stable order."""
    cases: list[BenchCase] = []
    for tp, pp in LAYOUTS:
        for scheme in SCHEMES:
            cases.append(BenchCase(
                id=f"sim/tp{tp}pp{pp}/{scheme_slug(scheme)}",
                kind="sim", scheme=scheme, tp=tp, pp=pp,
            ))
    # 1F1B simulator rows: same grid, pipelined layouts only (pp > 1 is
    # where the schedules differ), m=4 as in the gpipe sim rows.
    for tp, pp in LAYOUTS:
        if pp == 1:
            continue
        for scheme in SCHEMES:
            cases.append(BenchCase(
                id=f"sim/tp{tp}pp{pp}/{scheme_slug(scheme)}/1f1b",
                kind="sim", scheme=scheme, tp=tp, pp=pp, schedule="1f1b",
            ))
    # The same step through the inproc oracle and the mp process gang, per
    # layout × scheme.  The oracle carries the op-level rollups, so it
    # covers every scheme family; the comm pins of the cells both backends
    # run must be identical between them.
    for backend, schemes in (("inproc", SCHEMES), ("mp", BACKEND_SCHEMES)):
        for tp, pp in LAYOUTS:
            for scheme in schemes:
                cases.append(BenchCase(
                    id=f"backend_step/{backend}/tp{tp}pp{pp}/{scheme_slug(scheme)}",
                    kind="backend_step", scheme=scheme, tp=tp, pp=pp,
                    backend=backend,
                ))
    # Microbatched 1F1B steps through the mp gang: the schedule only runs
    # for real on the process backend (the inproc oracle is a serial
    # microbatch loop), and only a real pipeline exercises it.
    for tp, pp in LAYOUTS:
        if pp == 1:
            continue
        for scheme in BACKEND_SCHEMES:
            cases.append(BenchCase(
                id=f"backend_step/mp/tp{tp}pp{pp}/{scheme_slug(scheme)}/1f1b-m4",
                kind="backend_step", scheme=scheme, tp=tp, pp=pp,
                backend="mp", schedule="1f1b", microbatches=4,
            ))
    # The DP/SP grid cells, on both backends: dp2 pins the gradient-sync
    # wire per scheme, sp2 the per-layer ring-exchange accounting.
    for backend in ("inproc", "mp"):
        for dp, tp, pp, sp in GRID_CELLS:
            for scheme in BACKEND_SCHEMES:
                cases.append(BenchCase(
                    id=(f"backend_step/{backend}/{topology_slug(dp, tp, pp, sp)}"
                        f"/{scheme_slug(scheme)}"),
                    kind="backend_step", scheme=scheme, tp=tp, pp=pp,
                    dp=dp, sp=sp, backend=backend,
                ))
    return cases
