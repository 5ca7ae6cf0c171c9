"""Gate a pin document against the committed baseline.

Every metric in a pin document is deterministic (FLOPs, op/alloc
counts, comm bytes, the simulator breakdown) and must match the baseline
to within a hair (relative 1e-9).  They are identical run to run by
construction, so *any* difference means the workload itself changed and
the baseline must be refreshed deliberately (see EXPERIMENTS.md).

Both documents must hold the same case ids, and each case the same
metric names: a dropped case or metric is a regression of the harness
itself, and a new one is unpinned until the baseline is refreshed.
"""

from __future__ import annotations

__all__ = ["drift"]

_RTOL = 1e-9


def _metrics(doc: dict) -> dict[str, dict[str, float]]:
    """Case id -> flat metric name -> number (``comm_bytes.<site>``)."""
    cases: dict[str, dict[str, float]] = {}
    for case in doc["cases"]:
        if case["id"] in cases:
            raise ValueError(f"duplicate case id {case['id']!r}")
        flat = {}
        for name, value in case["deterministic"].items():
            if isinstance(value, dict):
                flat.update((f"{name}.{key}", sub) for key, sub in value.items())
            else:
                flat[name] = value
        cases[case["id"]] = flat
    return cases


def drift(candidate: dict, baseline: dict) -> list[str]:
    """Every difference between two pin documents, one line each.

    A line reads ``case :: metric: baseline=… candidate=…``; ``-`` stands
    for an absent value, and a case present on one side only is one line
    with metric ``-``.  An empty list means the candidate reproduces the
    baseline.  A duplicate case id in either document raises ``ValueError``.
    """
    cand, base = _metrics(candidate), _metrics(baseline)
    lines = []
    for cid in {**base, **cand}:
        if cid not in base or cid not in cand:
            lines.append(f"{cid} :: -: baseline={'case' if cid in base else '-'} "
                         f"candidate={'case' if cid in cand else '-'}")
            continue
        for metric in sorted(base[cid].keys() | cand[cid].keys()):
            b, c = base[cid].get(metric), cand[cid].get(metric)
            if b is None or c is None \
                    or abs(b - c) > _RTOL * max(abs(b), abs(c), 1.0):
                lines.append(f"{cid} :: {metric}: "
                             f"baseline={'-' if b is None else b} "
                             f"candidate={'-' if c is None else c}")
    return lines
