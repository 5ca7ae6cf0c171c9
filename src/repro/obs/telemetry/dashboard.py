"""Run views: the terminal frame and the standalone HTML snapshot.

Both render one :func:`~repro.obs.metrics.summarize` fold of a run's rank
events.  :func:`render_top` is the terminal view — ``repro.obs top`` prints
it after every step of the run it drives, ``repro.obs report`` once for a
run file.  :func:`render_html` renders the same per-rank and per-site
tables and alerts as a standalone (no external assets) page, suitable for
CI artifact upload.
"""

from __future__ import annotations

import html
import json

__all__ = ["render_top", "render_html", "write_html"]


def _stat(stats: dict, metric: str, key: str):
    return (stats.get(metric) or {}).get(key)


def _rank_rows(summary: dict) -> list[dict]:
    """The per-rank table of both views."""
    return [{
        "rank": rank,
        "step": summary["last_step"].get(rank),
        "wall p50 (ms)": _stat(stats, "wall_ms", "p50"),
        "busy (ms)": _stat(stats, "busy_ms", "mean"),
        "wait (ms)": _stat(stats, "comm_wait_ms", "mean"),
        "ring": int(_stat(stats, "ring_occupancy", "max") or 0),
        "rss (MB)": (_stat(stats, "peak_rss_kb", "last") or 0) / 1024.0,
    } for rank, stats in sorted(summary["per_rank"].items())]


def _site_rows(summary: dict) -> list[dict]:
    """The per-site table of both views."""
    return [{"site": site, **{k: "-" if v is None else v for k, v in agg.items()}}
            for site, agg in sorted(summary["fidelity"].items())]


def render_top(summary: dict) -> str:
    """The terminal view of a run: header, gauges, phase timers, ranks,
    per-site compression fidelity and the run's alerts."""
    # Lazy: keep the mp worker's telemetry import free of the experiments
    # package.
    from repro.experiments.report import format_table

    head = f"run: {summary['run_id']}  steps: {summary['steps']}"
    if summary["ranks"]:
        head += f"  world={len(summary['ranks'])}"
    lines = [head]
    extra = {k: v for k, v in summary["meta"].items() if k not in ("world", "run_id")}
    if extra:
        lines.append("meta: " + ", ".join(f"{k}={v}" for k, v in sorted(extra.items())))
    wall = summary["wall_ms"]
    lines.append(f"wall: {wall:.1f} ms")
    pooled = summary["pooled"].get("wall_ms")
    if pooled:
        lines[-1] += (f"  rank step p50 {pooled['p50']:.2f} ms / "
                      f"p99 {pooled['p99']:.2f} ms")
    tables = [
        ("Gauges", [{"gauge": name, **agg}
                    for name, agg in sorted(summary["gauges"].items())]),
        ("Phase timers", [{"phase": name, "total_ms": total,
                           "share_%": 100.0 * total / max(wall, 1e-9)}
                          for name, total in sorted(summary["timers_ms"].items(),
                                                    key=lambda kv: -kv[1])]),
        ("Ranks", _rank_rows(summary)),
        ("Compression fidelity (per site)", _site_rows(summary)),
    ]
    lines += [line for title, rows in tables if rows
              for line in ("", format_table(rows, title=title))]
    alerts = summary["health"]["alerts"]
    lines.append(f"\nalerts ({len(alerts)}):" if alerts else "\nalerts: none")
    lines += [f"  [{a['severity']}] {a['rule']}: {a['message']}" for a in alerts[-8:]]
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
    """Standalone HTML snapshot of one run summary."""
    health = summary["health"]
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>telemetry · {html.escape(summary['run_id'])}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Run {html.escape(summary['run_id'])}</h1>",
    ]
    meta = summary["meta"]
    if meta:
        parts.append("<p>" + " · ".join(
            f"{html.escape(str(k))}={html.escape(str(v))}"
            for k, v in sorted(meta.items())) + "</p>")

    rank_rows = _rank_rows(summary)
    if rank_rows:
        parts.append("<h2>Ranks</h2>")
        parts.append(_html_table(rank_rows, list(rank_rows[0].keys())))

    pooled_rows = []
    for metric, stats in sorted(summary["pooled"].items()):
        pooled_rows.append({"metric": metric, **{
            k: stats.get(k, "") for k in ("window", "mean", "p50", "p99", "max")}})
    if pooled_rows:
        parts.append("<h2>Pooled windows</h2>")
        parts.append(_html_table(pooled_rows, list(pooled_rows[0].keys())))

    site_rows = _site_rows(summary)
    if site_rows:
        parts.append("<h2>Compression fidelity</h2>")
        parts.append(_html_table(site_rows, list(site_rows[0].keys())))

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

    parts.append(f"<footer><pre>{html.escape(json.dumps(meta, sort_keys=True))}"
                 f"</pre></footer></body></html>")
    return "".join(parts)


def write_html(path: str, summary: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_html(summary))
    return path
