"""Run registry: a directory of run files, and the one loader that reads them.

A run file is a rank-event JSONL file — what a
:class:`~repro.obs.metrics.RunRecorder` streams (``repro.obs top`` writes
``<registry>/<run_id>.jsonl`` with every rank's events, ``repro.obs
smoke`` its ``smoke-<scheme>.jsonl``) — so the registry is any directory
of them.  :func:`read_run` resolves a run reference (a registry id or a
path), reads its events and folds them with
:func:`~repro.obs.metrics.summarize`; ``repro.obs report``, ``diff`` and
``html`` all load through it, and :func:`diff_runs` renders the
per-metric regression table between two summaries.
"""

from __future__ import annotations

import os

from repro.obs.metrics import summarize
from repro.parallel.backend.events import load_events

__all__ = [
    "check_run_id",
    "list_runs",
    "resolve_run",
    "read_run",
    "diff_runs",
    "format_diff",
]


def check_run_id(run_id: str) -> None:
    """Refuse a run id that would not name one file inside the registry."""
    if not run_id or "/" in run_id or os.sep in run_id:
        raise ValueError(f"invalid run_id {run_id!r}: must be non-empty "
                         "and contain no path separator")


def list_runs(registry_dir: str) -> list[str]:
    """Registry run ids, oldest first by file mtime."""
    if not os.path.isdir(registry_dir):
        return []
    paths = [os.path.join(registry_dir, name)
             for name in os.listdir(registry_dir) if name.endswith(".jsonl")]
    paths.sort(key=os.path.getmtime)
    return [os.path.basename(p)[: -len(".jsonl")] for p in paths]


def resolve_run(registry_dir: str, ref: str) -> str:
    """Resolve a run reference — an id in the registry or a path."""
    candidate = os.path.join(registry_dir, f"{ref}.jsonl")
    if os.path.exists(candidate):
        return candidate
    if os.path.exists(ref):
        return ref
    raise FileNotFoundError(
        f"run {ref!r} not found in registry {registry_dir!r} "
        f"(known: {', '.join(list_runs(registry_dir)) or 'none'})")


def read_run(registry_dir: str, ref: str) -> tuple[list[dict], dict]:
    """One run's events and their :func:`~repro.obs.metrics.summarize` fold.

    Raises ``FileNotFoundError`` for an unknown reference and ``ValueError``
    for a file that is not a rank-event run file or holds no step.
    """
    path = resolve_run(registry_dir, ref)
    try:
        events = load_events(path)
    except ValueError as exc:  # bad JSON or UTF-8, a directory of no logs
        raise ValueError(f"cannot read {path} as a rank-event JSONL file: {exc}") from exc
    if not all(isinstance(e, dict) and "kind" in e for e in events):
        raise ValueError(
            f"{path} is not a rank-event file (every line must be an event with "
            "a `kind`; the older RunRecorder format with `type` lines is no "
            "longer read — re-record the run with `python -m repro.obs smoke`)")
    summary = summarize(events)
    if not summary["steps"]:
        raise ValueError(
            f"{path} contains no step records (expected a RunRecorder "
            "rank-event file: a meta event plus one step_begin … step_end "
            "slice per step; produce one with `python -m repro.obs smoke`)")
    return events, summary


# ----------------------------------------------------------------------
# diff

def _metric_rows(summary: dict) -> dict[str, float]:
    """Flatten a summary into comparable ``metric -> value`` pairs: pooled
    p50 and p99, per-rank and per-site means, and the alert count."""
    picks = [(f"pooled/{m}", stats, ("p50", "p99"))
             for m, stats in summary["pooled"].items()]
    picks += [(f"rank{rank}/{m}", stats, ("mean",))
              for rank, metrics in summary["per_rank"].items()
              for m, stats in metrics.items()]
    picks += [(f"fidelity/{site}", agg, ("rel_l2_mean", "ratio_mean"))
              for site, agg in summary["fidelity"].items()]
    flat = {f"{name}/{key}": stats[key] for name, stats, keys in picks
            for key in keys if isinstance(stats.get(key), (int, float))}
    flat["health/alerts"] = float(summary["health"]["total"])
    return flat


def diff_runs(doc_a: dict, doc_b: dict) -> list[dict]:
    """Per-metric regression table between two run summaries.

    Rows cover the union of both runs' metrics; a metric present in only
    one run shows an empty cell on the other side rather than being
    dropped, so a disappeared signal is itself visible in the diff.  Each
    run's column is named by its ``run_id``, with `` [A]`` / `` [B]``
    appended when the two ids are the same (a copied file, two registries'
    default id).
    """
    a = _metric_rows(doc_a)
    b = _metric_rows(doc_b)
    col_a, col_b = doc_a["run_id"], doc_b["run_id"]
    if col_a == col_b:
        col_a, col_b = f"{col_a} [A]", f"{col_b} [B]"
    rows = []
    for metric in sorted(set(a) | set(b)):
        va, vb = a.get(metric), b.get(metric)
        row = {
            "metric": metric,
            col_a: "" if va is None else va,
            col_b: "" if vb is None else vb,
            "delta": "",
            "delta_pct": "",
        }
        if va is not None and vb is not None:
            row["delta"] = vb - va
            if va:
                row["delta_pct"] = f"{(vb - va) / abs(va) * 100.0:+.1f}%"
        rows.append(row)
    return rows


def format_diff(doc_a: dict, doc_b: dict) -> str:
    from repro.experiments.report import format_table

    rows = diff_runs(doc_a, doc_b)
    title = f"telemetry diff: {doc_a['run_id']} vs {doc_b['run_id']}"
    return format_table(rows, title=title)
