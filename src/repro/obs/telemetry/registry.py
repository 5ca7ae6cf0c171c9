"""Run registry: a ``runs/`` directory of schema-validated run summaries.

Every telemetry-enabled run can drop one JSON summary — window statistics
over its :func:`~repro.obs.metrics.step_rows` rows + health alerts + run
metadata — into a registry
directory.  Summaries are validated against :data:`RUN_SCHEMA` on both
save and load, so a registry never silently accumulates malformed
documents, and ``repro.obs diff RUN_A RUN_B`` renders a per-metric
regression table between any two of them.

:data:`RUN_SCHEMA` is written as a subset of JSON Schema so it doubles
as documentation, but a small dependency-free interpreter below checks
it.  Supported keywords: ``type``, ``required``, ``properties``,
``additionalProperties`` (as a sub-schema or ``False``), ``items``,
``enum``, ``minimum``.
"""

from __future__ import annotations

import json
import os
import time

from repro.obs.metrics import FIDELITY_FIELDS, STEP_COLUMNS
from repro.obs.telemetry.health import PARENT, values, window, window_stats, worker_ranks

__all__ = [
    "RUN_SCHEMA",
    "RunSchemaError",
    "check_run_id",
    "validate_run",
    "telemetry_snapshot",
    "build_summary",
    "save_run",
    "load_run",
    "list_runs",
    "resolve_run",
    "diff_runs",
    "format_diff",
]

RUN_SCHEMA_VERSION = 1

_STATS = {
    "type": "object",
    "required": ["count", "window"],
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "window": {"type": "integer", "minimum": 0},
    },
    # last/mean/min/max/p50/p99 — numbers, or null for empty windows.
}

RUN_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "run_id", "created_unix", "meta",
                 "telemetry", "health"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "enum": [RUN_SCHEMA_VERSION]},
        "run_id": {"type": "string"},
        "created_unix": {"type": "number"},
        "meta": {"type": "object"},
        "telemetry": {
            "type": "object",
            "required": ["ranks", "per_rank", "pooled", "fidelity"],
            "properties": {
                "ranks": {"type": "array", "items": {"type": "integer"}},
                "events_seen": {"type": "integer", "minimum": 0},
                "per_rank": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "additionalProperties": _STATS,
                    },
                },
                "pooled": {"type": "object",
                           "additionalProperties": _STATS},
                "fidelity": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "additionalProperties": _STATS,
                    },
                },
            },
        },
        "health": {
            "type": "object",
            "required": ["total", "by_rule", "alerts"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "by_rule": {"type": "object",
                            "additionalProperties": {"type": "integer"}},
                "alerts": {"type": "array", "items": {"type": "object"}},
            },
        },
    },
}


class RunSchemaError(ValueError):
    """A run summary violated :data:`RUN_SCHEMA`."""


#: JSON Schema type name -> Python types; a bool is never any of them.
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float)}


def _validate(value, schema: dict, path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None and (isinstance(value, bool)
                                 or not isinstance(value, _TYPES[expected])):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                _validate(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                _validate(sub, extra, f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}.{key}: unexpected key")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]", errors)


def check_run_id(run_id: str) -> None:
    """Refuse a run id that would not name one file inside the registry."""
    if not run_id or "/" in run_id or os.sep in run_id:
        raise RunSchemaError(f"invalid run_id {run_id!r}: must be non-empty "
                             "and contain no path separator")


def validate_run(doc: dict) -> dict:
    errors: list[str] = []
    _validate(doc, RUN_SCHEMA, "$", errors)
    if errors:
        raise RunSchemaError(
            "invalid run summary:\n  " + "\n  ".join(errors))
    check_run_id(doc["run_id"])
    return doc


def telemetry_snapshot(rows: list[dict]) -> dict:
    """The registry's ``telemetry`` section: window statistics per worker
    rank and metric, pooled over worker ranks, and per fidelity site.

    Metrics are the step columns and the gauges; a gauge the parent
    (rank −1) records is the run's own series, so it replaces the pooled
    worker gauge (``loss``: one value per step, not one per stage).
    """
    recent = window(rows)

    def stats(metric: str, rank: int | None = None) -> dict:
        # ``count`` is the run's samples, ``window`` the window's.
        return {**window_stats(values(recent, metric, rank)),
                "count": len(values(rows, metric, rank))}

    ranks = worker_ranks(rows)
    gauges = sorted({g for row in rows if row["rank"] >= 0 for g in row["gauges"]})
    metrics = [*STEP_COLUMNS, *gauges]
    pooled = {m: stats(m) for m in metrics if values(rows, m)}
    pooled.update({g: stats(g, PARENT) for row in rows
                   if row["rank"] == PARENT for g in row["gauges"]})
    sites = sorted({site for row in rows for site in row["fidelity"]})
    fidelity = {site: {f: stats(f"fidelity/{site}/{f}") for f in FIDELITY_FIELDS
                       if values(rows, f"fidelity/{site}/{f}")}
                for site in sites}
    return {
        "world": len(ranks),
        "ranks": ranks,
        "last_step": {str(row["rank"]): row["step"] for row in rows
                      if row["rank"] >= 0},
        "per_rank": {str(rank): {m: stats(m, rank) for m in metrics
                                 if values(rows, m, rank)} for rank in ranks},
        "pooled": pooled,
        "fidelity": fidelity,
    }


def build_summary(run_id: str, rows: list[dict], monitor, *,
                  meta: dict | None = None) -> dict:
    """Assemble the registry document for one finished run from its
    :func:`~repro.obs.metrics.step_rows` rows and health monitor."""
    return validate_run({
        "schema_version": RUN_SCHEMA_VERSION,
        "run_id": run_id,
        "created_unix": time.time(),
        "meta": dict(meta or {}),
        "telemetry": telemetry_snapshot(rows),
        "health": monitor.summary(),
    })


def _run_path(registry_dir: str, run_id: str) -> str:
    return os.path.join(registry_dir, f"{run_id}.run.json")


def save_run(registry_dir: str, doc: dict) -> str:
    """Validate and write one summary; returns the path written."""
    validate_run(doc)
    os.makedirs(registry_dir, exist_ok=True)
    path = _run_path(registry_dir, doc["run_id"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_run(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return validate_run(json.load(fh))


def list_runs(registry_dir: str) -> list[str]:
    """Registry run ids, oldest first by file mtime."""
    if not os.path.isdir(registry_dir):
        return []
    paths = [os.path.join(registry_dir, name)
             for name in os.listdir(registry_dir)
             if name.endswith(".run.json")]
    paths.sort(key=os.path.getmtime)
    return [os.path.basename(p)[: -len(".run.json")] for p in paths]


def resolve_run(registry_dir: str, ref: str) -> str:
    """Resolve a run reference — an id in the registry or a file path."""
    candidate = _run_path(registry_dir, ref)
    if os.path.exists(candidate):
        return candidate
    if os.path.exists(ref):
        return ref
    raise FileNotFoundError(
        f"run {ref!r} not found in registry {registry_dir!r} "
        f"(known: {', '.join(list_runs(registry_dir)) or 'none'})")


# ----------------------------------------------------------------------
# diff

def _metric_rows(doc: dict) -> dict[str, float]:
    """Flatten a summary into comparable ``metric -> value`` pairs: pooled
    p50 and p99, per-rank and per-site means, and the alert count."""
    telemetry = doc["telemetry"]
    picks = [(f"pooled/{m}", stats, ("p50", "p99"))
             for m, stats in telemetry["pooled"].items()]
    picks += [(f"rank{rank}/{m}", stats, ("mean",))
              for rank, metrics in telemetry["per_rank"].items()
              for m, stats in metrics.items()]
    picks += [(f"fidelity/{site}/{m}", stats, ("mean",))
              for site, fields in telemetry["fidelity"].items()
              for m, stats in fields.items()]
    flat = {f"{name}/{key}": stats[key] for name, stats, keys in picks
            for key in keys if isinstance(stats.get(key), (int, float))}
    flat["health/alerts"] = float(doc["health"]["total"])
    return flat


def diff_runs(doc_a: dict, doc_b: dict) -> list[dict]:
    """Per-metric regression table between two run summaries.

    Rows cover the union of both runs' metrics; a metric present in only
    one run shows an empty cell on the other side rather than being
    dropped, so a disappeared signal is itself visible in the diff.
    """
    a = _metric_rows(doc_a)
    b = _metric_rows(doc_b)
    rows = []
    for metric in sorted(set(a) | set(b)):
        va, vb = a.get(metric), b.get(metric)
        row = {
            "metric": metric,
            doc_a["run_id"]: "" if va is None else va,
            doc_b["run_id"]: "" if vb is None else vb,
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
