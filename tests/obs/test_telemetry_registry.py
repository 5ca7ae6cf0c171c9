"""Run registry: schema validation, save/load/resolve, diff, dashboards."""

import json
import re

import pytest

from repro.obs.telemetry import (
    Collector,
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


def step_event(rank, step, **fields):
    base = {"kind": "step", "rank": rank, "t": 0.0, "step": step,
            "wall_ms": 10.0 + rank, "comm_wait_ms": 4.0, "busy_ms": 6.0 + rank,
            "fault_ms": 0.0, "ring_occupancy": 1, "retries": 0, "drops": 0,
            "delays": 0, "peak_rss_kb": 1000.0, "loss": 1.5}
    base.update(fields)
    return base


def make_summary(run_id="run-a", wall_ms=10.0, with_alert=False):
    coll = Collector()
    for rank in (0, 1):
        coll.ingest({"kind": "meta", "rank": rank, "t": 0.0, "world": 2})
        for step in range(3):
            coll.ingest(step_event(rank, step, wall_ms=wall_ms + rank,
                                   fidelity={"boundary0": {
                                       "rel_l2": 0.1, "ratio": 4.0,
                                       "residual_norm": 2.0}}))
    monitor = HealthMonitor(coll, rules=[LossRule()])
    if with_alert:
        coll.observe(None, "loss", float("nan"))
    monitor.check(step=3)
    return build_summary(run_id, coll, monitor, meta={"scheme": "A2"})


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
            "count": 1, "window": 1, "last": 1.0, "mean": 1.0, "ewma": 1.0,
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
        coll = Collector()
        for rank in (0, 1):
            coll.ingest({"kind": "meta", "rank": rank, "t": 0.0, "world": 2})
            coll.ingest(step_event(rank, 0))
        monitor = HealthMonitor(coll, rules=[LossRule()])
        coll.observe(None, "loss", float("nan"))
        monitor.check(step=0)
        frame = render_top(coll, monitor, step=0)
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
