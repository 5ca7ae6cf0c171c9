"""Run files: resolve, read, diff, and the two views of one summary."""

import re

import pytest

from repro.obs.metrics import RunRecorder, summarize
from repro.obs.telemetry import (
    check_run_id,
    diff_runs,
    format_diff,
    read_run,
    render_html,
    render_top,
    write_html,
)
from repro.obs.telemetry.registry import list_runs, resolve_run
from tests.obs.helpers import events, row


def make_rows(wall_ms=10.0, loss=1.5):
    """Three steps of a 2-rank gang plus the parent's rows."""
    rows = []
    for step in range(3):
        rows.append(row(-1, step, gauges={"loss": loss}))
        for rank in (0, 1):
            rows.append(row(
                rank, step, wall_ms=wall_ms + rank, busy_ms=wall_ms - 4.0 + rank,
                gauges={"ring_occupancy": 1, "peak_rss_kb": 1000.0,
                        "loss": 1.5},
                fidelity={"boundary0": {"rel_l2": 0.1, "ratio": 4.0,
                                        "residual_norm": 2.0}}))
    return rows


def make_summary(run_id="run-a", wall_ms=10.0, with_alert=False):
    rows = make_rows(wall_ms)
    if with_alert:
        rows.append(row(-1, 3, gauges={"loss": float("nan")}))
    return summarize(events(rows, run_id=run_id, scheme="A2"))


def record_run(path, run_id, losses=(2.0, 1.0)):
    """A RunRecorder run file, as ``repro.obs smoke`` writes one."""
    rec = RunRecorder(run_id=run_id, meta={"scheme": "T2"}, stream_path=str(path))
    for loss in losses:
        with rec.step():
            rec.gauge("loss", loss)
    return rec


class TestSaveLoadResolve:
    def test_roundtrip(self, tmp_path):
        """A run file reads back as the recorder's own summary."""
        rec = record_run(tmp_path / "runs" / "run-a.jsonl", "run-a")
        events_, summary = read_run(str(tmp_path / "runs"), "run-a")
        assert summary == rec.summary() and summary["run_id"] == "run-a"
        assert events_ == rec.events

    def test_load_refuses_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"run_id": "bad"}\n')
        with pytest.raises(ValueError, match="not a rank-event file"):
            read_run(str(tmp_path), str(bad))

    def test_list_and_resolve(self, tmp_path):
        registry = tmp_path / "runs"
        record_run(registry / "run-a.jsonl", "run-a")
        record_run(registry / "run-b.jsonl", "run-b")
        assert set(list_runs(str(registry))) == {"run-a", "run-b"}
        assert resolve_run(str(registry), "run-a").endswith("run-a.jsonl")
        # A bare path outside the registry also resolves.
        direct = record_run(tmp_path / "elsewhere" / "c.jsonl", "run-c").stream_path
        assert resolve_run(str(registry), direct) == direct

    @pytest.mark.parametrize("run_id", ["../escaped", "a/b", ""])
    def test_run_id_cannot_leave_the_registry(self, run_id):
        with pytest.raises(ValueError, match=re.escape(f"invalid run_id {run_id!r}")):
            check_run_id(run_id)

    def test_resolve_missing_names_known_runs(self, tmp_path):
        record_run(tmp_path / "run-a.jsonl", "run-a")
        with pytest.raises(FileNotFoundError, match="run-a"):
            resolve_run(str(tmp_path), "nope")


class TestDiff:
    def test_diff_table_is_nonempty_with_deltas(self):
        rows = diff_runs(make_summary("fast", wall_ms=10.0),
                         make_summary("slow", wall_ms=20.0))
        assert rows
        by_metric = {r["metric"]: r for r in rows}
        wall = by_metric["pooled/wall_ms/p50"]
        assert wall["fast"] == pytest.approx(10.5)
        assert wall["slow"] == pytest.approx(20.5)
        assert wall["delta"] == pytest.approx(10.0)
        assert wall["delta_pct"].startswith("+95")
        assert "health/alerts" in by_metric
        assert "fidelity/boundary0/rel_l2_mean" in by_metric

    def test_one_sided_metric_shows_empty_cell(self):
        doc_a = make_summary("a")
        doc_b = make_summary("b")
        doc_b["pooled"]["extra_metric"] = {
            "count": 1, "window": 1, "last": 1.0, "mean": 1.0,
            "min": 1.0, "max": 1.0, "p50": 1.0, "p99": 1.0}
        rows = diff_runs(doc_a, doc_b)
        row = next(r for r in rows if r["metric"] == "pooled/extra_metric/p50")
        assert row["a"] == "" and row["b"] == 1.0
        assert row["delta"] == ""  # incomparable, not fake-zero

    def test_format_diff_renders_table(self):
        text = format_diff(make_summary("a"), make_summary("b"))
        assert "telemetry diff: a vs b" in text
        assert "pooled/wall_ms/p50" in text


class TestDashboards:
    def test_render_top_shows_ranks_and_alerts(self):
        rows = [row(-1, 0, gauges={"loss": float("nan")}),
                row(0, 0), row(1, 0)]
        frame = render_top(summarize(events(rows)))
        assert "world=2" in frame
        assert "non-finite" in frame  # the alert text
        lines = [ln for ln in frame.splitlines() if ln.strip().startswith(("0", "1"))]
        assert len(lines) >= 2  # one row per rank

    def test_html_snapshot(self, tmp_path):
        doc = make_summary("html-run", with_alert=True)
        html = render_html(doc)
        assert "<html" in html and "html-run" in html
        assert "boundary0" in html
        out = tmp_path / "dash.html"
        assert write_html(str(out), doc) == str(out)
        assert "html-run" in out.read_text()
