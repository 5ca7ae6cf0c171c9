"""Run registry: schema validation, save/load/resolve, diff, dashboards."""

import json
import re

import pytest

from repro.obs.telemetry import (
    HealthMonitor,
    LossRule,
    RunSchemaError,
    build_summary,
    diff_runs,
    format_diff,
    render_html,
    render_top,
    save_run,
    validate_run,
    write_html,
)
from repro.obs.telemetry.registry import list_runs, load_run, resolve_run
from tests.obs.helpers import row


def make_rows(wall_ms=10.0, loss=1.5):
    """Three steps of a 2-rank gang plus the parent's rows."""
    rows = []
    for step in range(3):
        rows.append(row(-1, step, gauges={"loss": loss}))
        for rank in (0, 1):
            rows.append(row(
                rank, step, wall_ms=wall_ms + rank, busy_ms=6.0 + rank,
                gauges={"ring_occupancy": 1, "peak_rss_kb": 1000.0,
                        "loss": 1.5},
                fidelity={"boundary0": {"rel_l2": 0.1, "ratio": 4.0,
                                        "residual_norm": 2.0}}))
    return rows


def make_summary(run_id="run-a", wall_ms=10.0, with_alert=False):
    rows = make_rows(wall_ms)
    if with_alert:
        rows.append(row(-1, 3, gauges={"loss": float("nan")}))
    monitor = HealthMonitor(rules=[LossRule()])
    monitor.check(rows, step=3)
    return build_summary(run_id, rows, monitor, meta={"scheme": "A2"})


class TestSchema:
    def test_build_summary_validates(self):
        doc = make_summary()
        assert doc["schema_version"] == 1
        assert doc["telemetry"]["ranks"] == [0, 1]
        assert validate_run(doc) is doc

    def test_missing_section_is_rejected(self):
        doc = make_summary()
        del doc["health"]
        with pytest.raises(RunSchemaError, match="health"):
            validate_run(doc)

    def test_unknown_top_level_key_is_rejected(self):
        doc = make_summary()
        doc["extra"] = 1
        with pytest.raises(RunSchemaError):
            validate_run(doc)

    def test_wrong_type_is_rejected(self):
        doc = make_summary()
        doc["telemetry"]["ranks"] = ["zero"]
        with pytest.raises(RunSchemaError):
            validate_run(doc)

    def test_enum_rejects_other_schema_version(self):
        doc = make_summary()
        doc["schema_version"] = 2
        with pytest.raises(RunSchemaError, match=r"\$\.schema_version: 2 not in \[1\]"):
            validate_run(doc)

    def test_minimum_rejects_negative_count(self):
        doc = make_summary()
        doc["health"]["total"] = -1
        with pytest.raises(RunSchemaError, match=r"\$\.health\.total: -1 < minimum 0"):
            validate_run(doc)

    def test_bool_is_not_an_integer(self):
        doc = make_summary()
        doc["health"]["total"] = True
        with pytest.raises(RunSchemaError,
                           match=r"\$\.health\.total: expected integer, got bool"):
            validate_run(doc)

    def test_additional_properties_subschema_applies(self):
        """Every per-rank metric is checked against the stats sub-schema."""
        doc = make_summary()
        del doc["telemetry"]["per_rank"]["0"]["wall_ms"]["count"]
        with pytest.raises(RunSchemaError,
                           match=r"\$\.telemetry\.per_rank\.0\.wall_ms: "
                                 r"missing required key 'count'"):
            validate_run(doc)


class TestSaveLoadResolve:
    def test_roundtrip(self, tmp_path):
        registry = str(tmp_path / "runs")
        path = save_run(registry, make_summary("run-a"))
        assert path.endswith("run-a.run.json")
        assert load_run(path)["run_id"] == "run-a"

    def test_save_refuses_invalid_doc(self, tmp_path):
        doc = make_summary()
        del doc["meta"]
        with pytest.raises(RunSchemaError):
            save_run(str(tmp_path), doc)

    def test_load_refuses_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.run.json"
        bad.write_text(json.dumps({"run_id": "bad"}))
        with pytest.raises(RunSchemaError):
            load_run(str(bad))

    def test_list_and_resolve(self, tmp_path):
        registry = str(tmp_path / "runs")
        save_run(registry, make_summary("run-a"))
        save_run(registry, make_summary("run-b"))
        assert set(list_runs(registry)) == {"run-a", "run-b"}
        assert resolve_run(registry, "run-a").endswith("run-a.run.json")
        # A bare path outside the registry also resolves.
        direct = save_run(str(tmp_path / "elsewhere"), make_summary("run-c"))
        assert resolve_run(registry, direct) == direct

    @pytest.mark.parametrize("run_id", ["../escaped", "a/b", ""])
    def test_run_id_cannot_leave_the_registry(self, tmp_path, run_id):
        doc = make_summary()
        doc["run_id"] = run_id
        with pytest.raises(RunSchemaError,
                           match=re.escape(f"invalid run_id {run_id!r}")):
            save_run(str(tmp_path / "reg" / "inner"), doc)
        assert not (tmp_path / "reg").exists()

    def test_resolve_missing_names_known_runs(self, tmp_path):
        registry = str(tmp_path / "runs")
        save_run(registry, make_summary("run-a"))
        with pytest.raises(FileNotFoundError, match="run-a"):
            resolve_run(registry, "nope")


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
        assert "fidelity/boundary0/rel_l2/mean" in by_metric

    def test_one_sided_metric_shows_empty_cell(self):
        doc_a = make_summary("a")
        doc_b = make_summary("b")
        doc_b["telemetry"]["pooled"]["extra_metric"] = {
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
        monitor = HealthMonitor(rules=[LossRule()])
        monitor.check(rows, step=0)
        frame = render_top(rows, monitor, step=0)
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


#: The per-rank series an mp run's summary held before the row fold.
PARENT_FORMAT_METRICS = ("wall_ms", "comm_wait_ms", "busy_ms", "fault_ms",
                         "ring_occupancy", "retries", "drops", "delays",
                         "peak_rss_kb", "loss")


def parent_format_stats(value):
    """A window's stats as summaries were written before the row fold: 12
    lifetime samples, 12 in the window, and an exponential average."""
    return {"count": 12, "window": 12, "last": value, "mean": value,
            "ewma": value, "min": value, "max": value, "p50": value,
            "p99": value}


class TestParentFormatDocument:
    def doc(self):
        per_rank = {str(rank): {m: parent_format_stats(float(rank + 1))
                                for m in PARENT_FORMAT_METRICS}
                    for rank in (0, 1)}
        return {
            "schema_version": 1, "run_id": "parent", "created_unix": 0.0,
            "meta": {"scheme": "A2"},
            "telemetry": {
                "world": 2, "ranks": [0, 1], "events_seen": 40,
                "last_step": {"0": 5, "1": 5}, "per_rank": per_rank,
                "pooled": {m: parent_format_stats(1.5)
                           for m in PARENT_FORMAT_METRICS},
                "fidelity": {"boundary0": {
                    f: parent_format_stats(0.1)
                    for f in ("rel_l2", "ratio", "residual_norm")}},
            },
            "health": {"total": 0, "by_rule": {}, "alerts": []},
        }

    def test_loads_renders_and_diffs_against_a_row_summary(self, tmp_path):
        old = load_run(save_run(str(tmp_path), self.doc()))
        assert validate_run(old) is old
        assert "boundary0" in render_html(old)
        new = make_summary("rows")
        rows = {r["metric"]: r for r in diff_runs(old, new)}
        compared = [m for m in rows if m.startswith(("pooled/", "rank"))]
        for stat in ("p50", "p99"):
            assert {f"pooled/{m}/{stat}" for m in PARENT_FORMAT_METRICS} \
                <= set(compared)
        assert {f"rank{r}/{m}/mean" for r in (0, 1)
                for m in PARENT_FORMAT_METRICS} <= set(compared)
        for metric in compared:
            assert rows[metric]["parent"] != "" and rows[metric]["rows"] != "", metric
            assert rows[metric]["delta"] != "", metric
