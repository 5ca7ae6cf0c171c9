"""Gate a candidate bench run against the committed baseline.

Every metric in a bench document is deterministic (FLOPs, op/alloc
counts, comm bytes, the simulator breakdown) and must match the baseline
to within a hair (relative 1e-9).  They are identical run to run by
construction, so *any* drift means the workload itself changed and the
baseline must be refreshed deliberately (see EXPERIMENTS.md).

A case present in the baseline but missing from the candidate fails the
gate (a silently dropped benchmark is a regression of the harness
itself); new candidate-only cases are reported but pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["MetricCheck", "CompareResult", "compare_docs", "load_doc"]

_DET_RTOL = 1e-9


def load_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class MetricCheck:
    """Verdict on one metric of one case."""

    case_id: str
    metric: str
    baseline: float | None
    candidate: float | None
    ratio: float | None  # candidate/baseline
    status: str  # "ok" | "regression" | "missing" | "new"
    note: str = ""


@dataclass
class CompareResult:
    checks: list[MetricCheck] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricCheck]:
        return [c for c in self.checks if c.status in ("regression", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_rows(self) -> list[dict]:
        return [
            {"case": c.case_id, "metric": c.metric,
             "baseline": "-" if c.baseline is None else c.baseline,
             "candidate": "-" if c.candidate is None else c.candidate,
             "ratio": "-" if c.ratio is None else f"{c.ratio:.3f}",
             "status": c.status + (f" ({c.note})" if c.note else "")}
            for c in self.checks
        ]


def _close(a: float, b: float, rtol: float = _DET_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _det_values(case: dict) -> dict[str, float]:
    """Flatten a case's deterministic block to metric-name -> number."""
    out: dict[str, float] = {}
    for name, value in case["deterministic"].items():
        if isinstance(value, dict):
            for key, sub in value.items():
                out[f"{name}.{key}"] = float(sub)
        else:
            out[name] = float(value)
    return out


def compare_docs(candidate: dict, baseline: dict) -> CompareResult:
    """Compare two validated bench documents case by case."""
    result = CompareResult()
    cand_cases = {c["id"]: c for c in candidate["cases"]}
    base_cases = {c["id"]: c for c in baseline["cases"]}

    for cid, base in base_cases.items():
        cand = cand_cases.get(cid)
        if cand is None:
            result.checks.append(MetricCheck(
                cid, "-", None, None, None, "missing",
                "case dropped from candidate run"))
            continue

        base_det = _det_values(base)
        cand_det = _det_values(cand)
        for metric in sorted(set(base_det) | set(cand_det)):
            b, c = base_det.get(metric), cand_det.get(metric)
            if b is None:
                result.checks.append(MetricCheck(
                    cid, metric, None, c, None, "new", "metric not in baseline"))
            elif c is None:
                result.checks.append(MetricCheck(
                    cid, metric, b, None, None, "missing",
                    "deterministic metric dropped"))
            elif _close(b, c):
                result.checks.append(MetricCheck(cid, metric, b, c,
                                                 c / b if b else None, "ok"))
            else:
                result.checks.append(MetricCheck(
                    cid, metric, b, c, c / b if b else None, "regression",
                    "deterministic metric drifted — refresh the baseline "
                    "deliberately if intended"))

    for cid in cand_cases:
        if cid not in base_cases:
            result.checks.append(MetricCheck(
                cid, "-", None, None, None, "new", "case not in baseline"))
    return result
