"""Health monitor: declarative threshold rules over the last steps' rows.

The rows are :func:`repro.obs.metrics.step_rows` — one per (rank, step),
the workers' and the parent's (rank −1) alike.  A *window* is each rank's
last :data:`WINDOW` rows (:func:`window`); :func:`values` reads one
metric off them and :func:`window_stats` summarises it for the dashboard
and the run registry.  Each :class:`Rule` reads a window and yields typed
:class:`Alert`s naming the rank, site and window that tripped.  Rules are
declarative data (thresholds in the constructor) so the default battery
can be tuned per deployment without touching evaluation logic.

The straggler rule uses a **leave-one-out** z-score on per-rank *busy*
time (wall − comm-wait): with a 4-rank gang a plain population z-score
is bounded by √3 ≈ 1.73, so a conventional z>2 threshold could never
fire.  Scoring each rank against the statistics of the *other* ranks
removes the self-inflation, and busy time (rather than wall time) is the
right signal because a straggler's peers absorb its delay as barrier
wait inside their own wall time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.obs.metrics import STEP_COLUMNS

__all__ = [
    "WINDOW",
    "PARENT",
    "window",
    "values",
    "window_stats",
    "worker_ranks",
    "Alert",
    "Rule",
    "StragglerRule",
    "CommStallRule",
    "RetryStormRule",
    "FidelityDriftRule",
    "LossRule",
    "HealthMonitor",
    "default_rules",
]

#: Steps a window covers: each rank's last ``WINDOW`` rows.
WINDOW = 64

#: The parent's rank in the record; its rows carry the run-level gauges
#: (``loss``: the step result's, one per step).
PARENT = -1


def window(rows: list[dict]) -> list[dict]:
    """Each rank's last :data:`WINDOW` rows, in (step, rank) order."""
    by_rank: dict[int, list[dict]] = {}
    for row in rows:
        by_rank.setdefault(row["rank"], []).append(row)
    return sorted((row for own in by_rank.values() for row in own[-WINDOW:]),
                  key=lambda row: (row["step"], row["rank"]))


def values(rows: list[dict], metric: str, rank: int | None = None) -> list[float]:
    """``metric`` of ``rank``'s rows (``None``: every worker rank's) in
    order, skipping rows that lack it.  ``metric`` is a step column, a
    gauge name, or ``fidelity/<site>/<field>``."""
    out = []
    for row in rows:
        if not (row["rank"] >= 0 if rank is None else row["rank"] == rank):
            continue
        if metric in STEP_COLUMNS:
            value = row[metric]
        elif metric.startswith("fidelity/"):
            _, site, field = metric.split("/", 2)
            value = row["fidelity"].get(site, {}).get(field)
        else:
            value = row["gauges"].get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append(float(value))
    return out


def window_stats(vals: list[float]) -> dict:
    """``count window last mean min max p50 p99`` of a window's values.
    Percentiles are exact over the window, linearly interpolated between
    the sorted neighbours."""
    stats = {"count": len(vals), "window": len(vals)}
    if not vals:
        return {**stats, **dict.fromkeys(("last", "mean", "min", "max", "p50", "p99"))}
    ordered = sorted(vals)

    def percentile(q: float) -> float:
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(pos))
        frac = pos - lo
        if not frac:  # a sample itself, even an infinite one
            return ordered[lo]
        return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac

    return {**stats, "last": vals[-1], "mean": sum(vals) / len(vals),
            "min": ordered[0], "max": ordered[-1],
            "p50": percentile(50.0), "p99": percentile(99.0)}


def worker_ranks(rows: list[dict]) -> list[int]:
    """The ranks of the workers' rows; the parent's (rank −1) are not one."""
    return sorted({row["rank"] for row in rows if row["rank"] >= 0})


def _mean(vals: list[float]) -> float:
    return sum(vals) / len(vals)


@dataclass(frozen=True)
class Alert:
    """One typed finding: which rule fired, where, and on what evidence."""

    rule: str
    severity: str  # "warning" | "critical"
    message: str
    rank: int | None = None
    site: str | None = None
    step: int | None = None
    value: float | None = None
    threshold: float | None = None
    window: int | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


class Rule:
    """Base class: subclasses are keyword-only dataclasses of thresholds
    and override :meth:`evaluate`, which reads the window's rows
    (:func:`window`)."""

    name = "rule"

    def evaluate(self, rows: list[dict], step: int | None) -> list[Alert]:
        raise NotImplementedError


@dataclass(kw_only=True)
class StragglerRule(Rule):
    """A rank whose busy time stands out from its peers' (leave-one-out z).

    Fires when a rank's windowed mean busy time exceeds the mean of the
    other ranks' means by ``zscore`` leave-one-out standard deviations
    *and* by at least ``min_gap_ms`` absolute — the floor keeps noise on
    microsecond-scale steps from alerting, and ``std_floor_ms`` keeps a
    near-zero peer spread from dividing the z to infinity.
    """

    name = "straggler"
    zscore: float = 3.0
    min_gap_ms: float = 10.0
    std_floor_ms: float = 1.0
    min_samples: int = 2

    def evaluate(self, rows: list[dict], step: int | None) -> list[Alert]:
        ranks = worker_ranks(rows)
        if len(ranks) < 3:  # leave-one-out needs >= 2 peers for a spread
            return []
        means: dict[int, float] = {}
        window = 0
        for rank in ranks:
            busy = values(rows, "busy_ms", rank)
            if len(busy) < self.min_samples:
                return []
            means[rank] = _mean(busy)
            window = max(window, len(busy))
        alerts = []
        for rank in ranks:
            peers = [means[r] for r in ranks if r != rank]
            mu = sum(peers) / len(peers)
            sigma = math.sqrt(sum((v - mu) ** 2 for v in peers) / len(peers))
            sigma = max(sigma, self.std_floor_ms)
            gap = means[rank] - mu
            z = gap / sigma
            if z > self.zscore and gap > self.min_gap_ms:
                alerts.append(Alert(
                    rule=self.name, severity="warning", rank=rank, step=step,
                    value=round(z, 3), threshold=self.zscore, window=window,
                    message=(f"rank {rank} busy time {means[rank]:.1f} ms is "
                             f"{gap:.1f} ms above peers (z={z:.1f}, "
                             f"window={window})"),
                ))
        return alerts


@dataclass(kw_only=True)
class CommStallRule(Rule):
    """A rank spending most of its step waiting on the transport."""

    name = "comm-stall"
    ratio: float = 3.0
    min_wait_ms: float = 5.0
    min_samples: int = 2

    def evaluate(self, rows: list[dict], step: int | None) -> list[Alert]:
        alerts = []
        for rank in worker_ranks(rows):
            wait = values(rows, "comm_wait_ms", rank)
            busy = values(rows, "busy_ms", rank)
            if len(wait) < self.min_samples:
                continue
            wait_mean = _mean(wait)
            busy_mean = max(_mean(busy), 1e-9)
            ratio = wait_mean / busy_mean
            if ratio > self.ratio and wait_mean > self.min_wait_ms:
                alerts.append(Alert(
                    rule=self.name, severity="warning", rank=rank, step=step,
                    value=round(ratio, 3), threshold=self.ratio,
                    window=len(wait),
                    message=(f"rank {rank} comm-wait/busy ratio {ratio:.1f} "
                             f"(wait {wait_mean:.1f} ms vs busy "
                             f"{busy_mean:.1f} ms, window={len(wait)})"),
                ))
        return alerts


@dataclass(kw_only=True)
class RetryStormRule(Rule):
    """Fault-seam retries/drops accumulating faster than a healthy link."""

    name = "retry-storm"
    max_events: int = 8

    def evaluate(self, rows: list[dict], step: int | None) -> list[Alert]:
        alerts = []
        for rank in worker_ranks(rows):
            retries = values(rows, "retries", rank)
            drops = values(rows, "drops", rank)
            total = sum(retries) + sum(drops)
            if total > self.max_events:
                alerts.append(Alert(
                    rule=self.name, severity="critical", rank=rank, step=step,
                    value=float(total), threshold=float(self.max_events),
                    window=len(retries),
                    message=(f"rank {rank} saw {int(total)} transport "
                             f"retries/drops in the window "
                             f"(limit {self.max_events})"),
                ))
        return alerts


@dataclass(kw_only=True)
class FidelityDriftRule(Rule):
    """A compression site's reconstruction error drifting upward online.

    Compares the newer half of the window's rel-L2 samples (every rank's,
    in step order) against the older half: drift means recent rel-L2 is
    ``factor``× the established level — the signal the
    activation-quantization-with-guarantees line of work says must be
    watched *during* training, not post-hoc.
    """

    name = "fidelity-drift"
    factor: float = 2.0
    min_samples: int = 6
    floor: float = 1e-12

    def evaluate(self, rows: list[dict], step: int | None) -> list[Alert]:
        alerts = []
        for site in sorted({site for row in rows for site in row["fidelity"]}):
            vals = values(rows, f"fidelity/{site}/rel_l2")
            if len(vals) < self.min_samples:
                continue
            half = len(vals) // 2
            older = vals[:half]
            newer = vals[half:]
            old_mean = max(_mean(older), self.floor)
            new_mean = _mean(newer)
            ratio = new_mean / old_mean
            if ratio > self.factor:
                alerts.append(Alert(
                    rule=self.name, severity="warning", site=site, step=step,
                    value=round(ratio, 3), threshold=self.factor,
                    window=len(vals),
                    message=(f"site {site} rel-L2 drifted {ratio:.1f}x "
                             f"({old_mean:.2e} -> {new_mean:.2e}, "
                             f"window={len(vals)})"),
                ))
        return alerts


@dataclass(kw_only=True)
class LossRule(Rule):
    """Loss went NaN/Inf (critical) or diverged from its window minimum.

    The series is the parent's ``loss`` gauge — the step result's loss,
    one value per step; the workers' per-stage and per-shard ``loss``
    gauges are not read.
    """

    name = "loss"
    divergence_factor: float = 2.0
    min_samples: int = 4

    @staticmethod
    def series(rows: list[dict]) -> list[float]:
        return values(rows, "loss", PARENT)

    def evaluate(self, rows: list[dict], step: int | None) -> list[Alert]:
        losses = self.series(rows)
        if not losses:
            return []
        last = losses[-1]
        if math.isnan(last) or math.isinf(last):
            return [Alert(
                rule=self.name, severity="critical", step=step, value=last,
                window=len(losses),
                message=f"loss is non-finite ({last}) at step {step}",
            )]
        if len(losses) < self.min_samples:
            return []
        lo = min(losses)
        if lo > 0 and last > self.divergence_factor * lo:
            return [Alert(
                rule=self.name, severity="warning", step=step,
                value=round(last, 6),
                threshold=round(self.divergence_factor * lo, 6),
                window=len(losses),
                message=(f"loss {last:.4f} is {last / lo:.1f}x the window "
                         f"minimum {lo:.4f} (window={len(losses)})"),
            )]
        return []


def default_rules() -> list[Rule]:
    return [StragglerRule(), CommStallRule(), RetryStormRule(),
            FidelityDriftRule(), LossRule()]


class HealthMonitor:
    """Evaluates a rule battery over the rows' window; deduplicates alerts.

    An alert identity is ``(rule, rank, site)``: a condition that stays
    tripped across consecutive checks produces one alert when it first
    fires and a fresh one only after it clears and re-fires — so a
    50-step straggler is one finding, not 50.
    """

    def __init__(self, rules: list[Rule] | None = None):
        self.rules = list(rules) if rules is not None else default_rules()
        self.alerts: list[Alert] = []
        self._active: set[tuple[str, int | None, str | None]] = set()

    def check(self, rows: list[dict], step: int | None = None) -> list[Alert]:
        """Run every rule once over :func:`window` of ``rows``; returns
        only *newly fired* alerts."""
        recent = window(rows)
        fired: list[Alert] = []
        now_active: set[tuple[str, int | None, str | None]] = set()
        for rule in self.rules:
            for alert in rule.evaluate(recent, step):
                key = (alert.rule, alert.rank, alert.site)
                now_active.add(key)
                if key not in self._active:
                    fired.append(alert)
        self._active = now_active
        self.alerts.extend(fired)
        return fired

    def summary(self) -> dict:
        by_rule: dict[str, int] = {}
        for alert in self.alerts:
            by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
        return {
            "total": len(self.alerts),
            "by_rule": by_rule,
            "alerts": [a.to_json() for a in self.alerts],
        }
