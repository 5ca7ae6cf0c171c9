"""HealthMonitor rules over ``step_rows`` rows: firing boundaries, alert
payloads, deduplication."""

import math

import pytest

from repro.obs.telemetry import (
    Alert,
    CommStallRule,
    FidelityDriftRule,
    HealthMonitor,
    LossRule,
    RetryStormRule,
    StragglerRule,
)
from tests.obs.helpers import row, steps_of


def rows_with_busy(busy_by_rank, samples=2):
    """``samples`` steps of rows whose per-rank busy_ms is flat."""
    return steps_of({rank: {"busy_ms": busy}
                     for rank, busy in busy_by_rank.items()}, samples)


def parent_losses(losses):
    """The parent's rows (rank -1), one step result loss each."""
    return [row(-1, step, gauges={"loss": v}) for step, v in enumerate(losses)]


class TestStragglerRule:
    def test_fires_on_clear_straggler_naming_the_rank(self):
        rows = rows_with_busy({0: 10.0, 1: 60.0, 2: 10.0, 3: 10.0})
        (alert,) = StragglerRule().evaluate(rows, step=5)
        assert alert.rule == "straggler" and alert.rank == 1
        assert alert.step == 5 and alert.window == 2
        assert "rank 1" in alert.message

    def test_gap_at_min_gap_boundary_does_not_fire(self):
        # Peer spread is zero so sigma hits the 1 ms floor and z = gap;
        # gap == min_gap must NOT fire (strict inequality), epsilon above must.
        rule = StragglerRule(zscore=3.0, min_gap_ms=10.0, std_floor_ms=1.0)
        at = rows_with_busy({0: 5.0, 1: 5.0, 2: 5.0, 3: 15.0})
        assert rule.evaluate(at, step=0) == []
        above = rows_with_busy({0: 5.0, 1: 5.0, 2: 5.0, 3: 15.01})
        assert len(rule.evaluate(above, step=0)) == 1

    def test_zscore_boundary(self):
        # Wide peer spread keeps z below threshold even with a large gap.
        rule = StragglerRule(zscore=3.0, min_gap_ms=1.0, std_floor_ms=1.0)
        rows = rows_with_busy({0: 10.0, 1: 40.0, 2: 70.0, 3: 90.0})
        assert rule.evaluate(rows, step=0) == []

    def test_leave_one_out_beats_population_z_ceiling(self):
        # With n=4 a plain population z-score is bounded by sqrt(3) < 3, so
        # this rule could never fire without leave-one-out scoring.
        rows = rows_with_busy({0: 10.0, 1: 10.0, 2: 10.0, 3: 100.0})
        (alert,) = StragglerRule(zscore=3.0).evaluate(rows, step=0)
        assert alert.rank == 3
        assert alert.value > math.sqrt(3)

    def test_needs_three_ranks_and_min_samples(self):
        rule = StragglerRule()
        two = rows_with_busy({0: 10.0, 1: 100.0})
        assert rule.evaluate(two, step=0) == []
        thin = rows_with_busy({0: 10.0, 1: 10.0, 2: 100.0}, samples=1)
        assert rule.evaluate(thin, step=0) == []


class TestCommStallRule:
    def make(self, wait, busy):
        return steps_of({0: {"comm_wait_ms": wait, "busy_ms": busy}}, 2)

    def test_fires_above_ratio(self):
        (alert,) = CommStallRule(ratio=3.0).evaluate(self.make(31.0, 10.0), step=1)
        assert alert.rule == "comm-stall" and alert.rank == 0
        assert alert.value == pytest.approx(3.1)

    def test_ratio_at_threshold_does_not_fire(self):
        assert CommStallRule(ratio=3.0).evaluate(self.make(30.0, 10.0), step=1) == []

    def test_small_absolute_wait_is_ignored(self):
        # Ratio is huge but the wait is microscopic: min_wait_ms gates it.
        assert CommStallRule(ratio=3.0, min_wait_ms=5.0).evaluate(
            self.make(4.0, 0.1), step=1) == []


class TestRetryStormRule:
    def make(self, retries, drops=0):
        return [row(0, 0, retries=retries, drops=drops)]

    def test_fires_critical_above_limit(self):
        (alert,) = RetryStormRule(max_events=8).evaluate(self.make(6, 3), step=2)
        assert alert.severity == "critical"
        assert alert.value == 9.0

    def test_at_limit_does_not_fire(self):
        assert RetryStormRule(max_events=8).evaluate(self.make(8), step=2) == []


class TestFidelityDriftRule:
    def make(self, values):
        return [row(0, step, fidelity={"boundary0": {"rel_l2": v}})
                for step, v in enumerate(values)]

    def test_fires_when_newer_half_drifts(self):
        rows = self.make([1e-3, 1e-3, 1e-3, 3e-3, 3e-3, 3e-3])
        (alert,) = FidelityDriftRule(factor=2.0, min_samples=6).evaluate(rows, step=9)
        assert alert.rule == "fidelity-drift" and alert.site == "boundary0"
        assert alert.value == pytest.approx(3.0)

    def test_factor_at_threshold_does_not_fire(self):
        rows = self.make([1e-3] * 3 + [2e-3] * 3)
        assert FidelityDriftRule(factor=2.0, min_samples=6).evaluate(rows, 9) == []

    def test_flat_series_is_healthy(self):
        rows = self.make([1e-3] * 8)
        assert FidelityDriftRule().evaluate(rows, step=9) == []

    def test_too_few_samples_never_fires(self):
        rows = self.make([1e-3, 1e-2])
        assert FidelityDriftRule(min_samples=6).evaluate(rows, step=9) == []


class TestLossRule:
    def make(self, losses):
        return parent_losses(losses)

    def test_nan_is_critical_regardless_of_history(self):
        (alert,) = LossRule().evaluate(self.make([float("nan")]), step=0)
        assert alert.severity == "critical"
        assert "non-finite" in alert.message

    def test_divergence_from_window_minimum(self):
        rows = self.make([1.0, 0.9, 0.8, 2.0])
        (alert,) = LossRule(divergence_factor=2.0).evaluate(rows, step=3)
        assert alert.severity == "warning"
        assert alert.value == 2.0

    def test_factor_at_threshold_does_not_fire(self):
        assert LossRule(divergence_factor=2.0).evaluate(
            self.make([1.0, 1.0, 1.0, 2.0]), step=3) == []

    def test_descending_loss_is_healthy(self):
        assert LossRule().evaluate(self.make([2.0, 1.5, 1.0, 0.8]), step=3) == []

    def test_reads_the_step_loss_not_the_shard_losses(self):
        # dp2: each shard's last stage gauges its half-batch loss and the
        # parent gauges the step result's (their mean).  The window minimum
        # is the step loss's, 1.0; a shard's 0.5 would make 1.1 "diverged".
        shards = [(0.5, 1.5)] * 3 + [(1.0, 1.2)]
        rows = []
        for step, (a, b) in enumerate(shards):
            rows += [row(-1, step, gauges={"loss": (a + b) / 2}),
                     row(0, step, gauges={"loss": a}),
                     row(1, step, gauges={"loss": b})]
        assert LossRule.series(rows) == [1.0, 1.0, 1.0, 1.1]
        assert LossRule(divergence_factor=2.0).evaluate(rows, step=3) == []


class TestHealthMonitorDedup:
    def test_persistent_condition_alerts_once(self):
        monitor = HealthMonitor(rules=[LossRule()])
        rows = parent_losses([float("nan")])
        assert len(monitor.check(rows, step=0)) == 1
        # Condition still tripped on the next checks: no re-fire.
        assert monitor.check(rows, step=1) == []
        assert monitor.check(rows, step=2) == []
        assert len(monitor.alerts) == 1

    def test_refires_after_clearing(self):
        monitor = HealthMonitor(rules=[LossRule()])
        assert len(monitor.check(parent_losses([float("nan")]), step=0)) == 1
        # healthy again
        assert monitor.check(parent_losses([float("nan"), 1.0]), step=1) == []
        rows = parent_losses([float("nan"), 1.0, float("inf")])
        assert len(monitor.check(rows, step=2)) == 1
        assert len(monitor.alerts) == 2

    def test_summary_counts_by_rule(self):
        rows = rows_with_busy({0: 10.0, 1: 60.0, 2: 10.0, 3: 10.0})
        monitor = HealthMonitor()  # default battery
        monitor.check(rows, step=0)
        summary = monitor.summary()
        assert summary["total"] == len(summary["alerts"]) >= 1
        assert summary["by_rule"]["straggler"] == 1
        assert summary["alerts"][0]["rule"]

    def test_alert_json_drops_none_fields(self):
        alert = Alert(rule="x", severity="warning", message="m", rank=1)
        payload = alert.to_json()
        assert payload == {"rule": "x", "severity": "warning",
                           "message": "m", "rank": 1}
