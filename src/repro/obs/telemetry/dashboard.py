"""Telemetry consumers: live terminal dashboard and HTML snapshot report.

:func:`render_top` turns the current collector windows + health alerts
into one plain-text frame — the ``repro.obs top`` verb prints a frame per
training step.  :func:`render_html` renders a standalone (no external
assets) HTML snapshot of a registry run summary, suitable for CI artifact
upload.
"""

from __future__ import annotations

import html
import json

__all__ = ["render_top", "render_html", "write_html"]


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_top(collector, monitor, *, step: int | None = None) -> str:
    """One dashboard frame: per-rank step table, fidelity, recent alerts."""
    # Lazy: keep the mp worker's telemetry import free of the experiments
    # package.
    from repro.experiments.report import format_table

    lines = []
    world = collector.world if collector.world is not None else len(collector.ranks())
    head = f"repro.obs top · world={world}"
    if step is not None:
        head += f" · step {step}"
    pooled_wall = collector.series(None, "wall_ms")
    if len(pooled_wall):
        head += (f" · step wall p50 {_fmt(pooled_wall.p50())} ms"
                 f" / p99 {_fmt(pooled_wall.p99())} ms")
    lines.append(head)

    rows = []
    for rank in collector.ranks():
        wall = collector.series(rank, "wall_ms")
        if not len(wall):
            continue
        rows.append({
            "rank": rank,
            "step": collector.last_step(rank),
            "wall p50 (ms)": wall.p50(),
            "busy (ms)": collector.series(rank, "busy_ms").mean(),
            "wait (ms)": collector.series(rank, "comm_wait_ms").mean(),
            "ring": int(collector.series(rank, "ring_occupancy").max() or 0),
            "retries": int(sum(collector.series(rank, "retries").values())),
            "rss (MB)": (collector.series(rank, "peak_rss_kb").last or 0) / 1024.0,
        })
    if rows:
        lines.append(format_table(rows, title="ranks"))
    else:
        lines.append("(no rank telemetry yet)")

    fid_rows = []
    for site in collector.sites():
        rel = collector.series(None, f"fidelity/{site}/rel_l2")
        if not len(rel):
            continue
        fid_rows.append({
            "site": site,
            "rel-L2 mean": rel.mean(),
            "rel-L2 ewma": rel.ewma,
            "wire ratio": collector.series(None, f"fidelity/{site}/ratio").mean(),
            "residual": collector.series(
                None, f"fidelity/{site}/residual_norm").last,
        })
    if fid_rows:
        lines.append(format_table(fid_rows, title="compression fidelity"))

    if monitor.alerts:
        lines.append(f"alerts ({len(monitor.alerts)}):")
        for alert in monitor.alerts[-8:]:
            lines.append(f"  [{alert.severity}] {alert.rule}: {alert.message}")
    else:
        lines.append("alerts: none")
    return "\n".join(lines)


_HTML_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem;
       background: #11151a; color: #d8dee9; }
h1, h2 { color: #88c0d0; font-weight: 600; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #2e3440; padding: 0.35rem 0.7rem; text-align: right; }
th { background: #1b2128; color: #8fbcbb; }
td:first-child, th:first-child { text-align: left; }
.alert-critical { color: #bf616a; font-weight: 700; }
.alert-warning { color: #ebcb8b; }
.ok { color: #a3be8c; }
footer { margin-top: 2rem; color: #4c566a; font-size: 0.85em; }
"""


def _html_table(rows: list[dict], columns: list[str]) -> str:
    head = "".join(f"<th>{html.escape(c)}</th>" for c in columns)
    body = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                value = f"{value:.4g}"
            cells.append(f"<td>{html.escape(str(value))}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def render_html(summary: dict) -> str:
    """Standalone HTML snapshot of one registry run summary."""
    telemetry = summary["telemetry"]
    health = summary["health"]
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>telemetry · {html.escape(summary['run_id'])}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Run {html.escape(summary['run_id'])}</h1>",
    ]
    meta = summary.get("meta") or {}
    if meta:
        parts.append("<p>" + " · ".join(
            f"{html.escape(str(k))}={html.escape(str(v))}"
            for k, v in sorted(meta.items())) + "</p>")

    rank_rows = []
    for rank in sorted(telemetry["per_rank"], key=int):
        metrics = telemetry["per_rank"][rank]
        row = {"rank": rank}
        for metric in ("wall_ms", "busy_ms", "comm_wait_ms", "ring_occupancy",
                       "retries", "peak_rss_kb"):
            stats = metrics.get(metric) or {}
            row[metric] = stats.get("p50" if metric == "wall_ms" else "mean", "")
        rank_rows.append(row)
    if rank_rows:
        parts.append("<h2>Ranks</h2>")
        parts.append(_html_table(rank_rows, list(rank_rows[0].keys())))

    pooled_rows = []
    for metric, stats in sorted(telemetry["pooled"].items()):
        pooled_rows.append({"metric": metric, **{
            k: stats.get(k, "") for k in ("window", "mean", "p50", "p99", "max")}})
    if pooled_rows:
        parts.append("<h2>Pooled windows</h2>")
        parts.append(_html_table(pooled_rows, list(pooled_rows[0].keys())))

    fid_rows = []
    for site, fields in sorted(telemetry["fidelity"].items()):
        for metric, stats in sorted(fields.items()):
            fid_rows.append({"site": site, "metric": metric,
                             "mean": stats.get("mean", ""),
                             "last": stats.get("last", "")})
    if fid_rows:
        parts.append("<h2>Compression fidelity</h2>")
        parts.append(_html_table(fid_rows, list(fid_rows[0].keys())))

    parts.append("<h2>Health</h2>")
    if health["alerts"]:
        items = []
        for alert in health["alerts"]:
            cls = f"alert-{alert.get('severity', 'warning')}"
            items.append(f"<li class='{cls}'>[{html.escape(alert.get('rule', '?'))}] "
                         f"{html.escape(alert.get('message', ''))}</li>")
        parts.append(f"<ul>{''.join(items)}</ul>")
    else:
        parts.append("<p class='ok'>no alerts</p>")

    parts.append(f"<footer><pre>{html.escape(json.dumps(summary.get('meta', {}), sort_keys=True))}"
                 f"</pre></footer></body></html>")
    return "".join(parts)


def write_html(path: str, summary: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_html(summary))
    return path
