"""Render a bench document as markdown or CSV.

Markdown rows are grouped by topology axes (dp, tp, pp, sp): one table
per grid cell, in axis order, so the DP/SP cases read as their own
sections instead of interleaving with the TP×PP grid.
"""

from __future__ import annotations

import csv
import io

__all__ = ["render_markdown", "render_csv"]


def _topology_label(params: dict) -> str:
    dp = params.get("dp", 1)
    sp = params.get("sp", 1)
    label = f"tp{params['tp']}·pp{params['pp']}"
    if dp > 1:
        label = f"dp{dp}·{label}"
    if sp > 1:
        label = f"{label}·sp{sp}"
    return label


def _case_rows(doc: dict) -> list[dict]:
    rows = []
    for case in doc["cases"]:
        det = case["deterministic"]
        comm = det.get("comm_bytes", {})
        params = case["params"]
        rows.append({
            "case": case["id"],
            "kind": case["kind"],
            "scheme": params["scheme"],
            "dp": params.get("dp", 1),
            "tp": params["tp"],
            "pp": params["pp"],
            "sp": params.get("sp", 1),
            "flops": det.get("flops", ""),
            "alloc_bytes": det.get("alloc_bytes", ""),
            "peak_alloc_bytes": det.get("peak_alloc_bytes", ""),
            "comm_bytes": sum(comm.values()) if comm else "",
            "sim_total_ms": det.get("total_ms", ""),
        })
    return rows


def _render_table(rows: list[dict], columns: list[str]) -> list[str]:
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join(" --- " for _ in columns) + "|"]
    for row in rows:
        cells = [
            f"{v:.3f}" if isinstance(v, float) else str(v)
            for v in (row[c] for c in columns)
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def render_markdown(doc: dict) -> str:
    """Markdown summary: header metadata plus one table per topology."""
    rows = _case_rows(doc)
    lines = [f"# Bench run `{doc['git_sha']}`", ""]
    if not rows:
        return "\n".join(lines) + "\n"
    columns = [c for c in rows[0] if c not in ("dp", "tp", "pp", "sp")]
    # Group by topology axes, preserving the suite's axis ordering.
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dp"], row["tp"], row["pp"], row["sp"]),
                          []).append(row)
    for key in sorted(groups):
        dp, tp, pp, sp = key
        label = _topology_label({"dp": dp, "tp": tp, "pp": pp, "sp": sp})
        lines.append(f"## Topology {label}")
        lines.append("")
        lines.extend(_render_table(groups[key], columns))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def render_csv(doc: dict) -> str:
    """Flat CSV, one row per case (the dashboard-ingestible form)."""
    rows = _case_rows(doc)
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()
