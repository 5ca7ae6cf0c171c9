"""Parent-side collector: sliding-window time-series over rank telemetry.

The :class:`Collector` ingests ``StepResult.record`` — each rank's slice
of its event record, with the ``step`` summary
:func:`~repro.obs.telemetry.agent.step_summary` folded from it — and
maintains bounded sliding windows — ring buffer of raw samples, EWMA, exact p50/p99 over
the window — per ``(rank, metric)`` series plus pooled cross-rank series
(``rank=None``).  Window statistics deliberately live parent-side
(DESIGN "Rank event record"): the workers stay cheap and stateless, a crashed
rank's history survives in the parent, and cross-rank rules (straggler
z-score) need all ranks' windows in one place anyway.

Consumers: :class:`~repro.obs.telemetry.health.HealthMonitor` evaluates
threshold rules over these windows; the ``repro.obs top`` dashboard and
the run registry snapshot them.
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["SlidingWindow", "Collector", "DEFAULT_WINDOW"]

#: Default sliding-window length, in samples (steps for step metrics).
DEFAULT_WINDOW = 64


class SlidingWindow:
    """Ring buffer of the last ``maxlen`` samples with summary stats.

    Percentiles are exact over the window (sorted copy, nearest-rank
    with linear interpolation), not streaming approximations — with
    bounded windows the O(n log n) sort on demand is cheap and the
    numbers are auditable.
    """

    def __init__(self, maxlen: int = DEFAULT_WINDOW, *, ewma_alpha: float = 0.2):
        if maxlen <= 0:
            raise ValueError(f"window maxlen must be positive, got {maxlen}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.maxlen = maxlen
        self.ewma_alpha = ewma_alpha
        self._ring: deque[float] = deque(maxlen=maxlen)
        self._ewma: float | None = None
        self.count = 0  # lifetime samples, not just the window

    def push(self, value: float) -> None:
        value = float(value)
        self._ring.append(value)
        self.count += 1
        if self._ewma is None or math.isnan(self._ewma):
            self._ewma = value
        else:
            a = self.ewma_alpha
            self._ewma = a * value + (1.0 - a) * self._ewma

    def __len__(self) -> int:
        return len(self._ring)

    def values(self) -> list[float]:
        return list(self._ring)

    @property
    def last(self) -> float | None:
        return self._ring[-1] if self._ring else None

    @property
    def ewma(self) -> float | None:
        return self._ewma

    def mean(self) -> float:
        if not self._ring:
            return math.nan
        return sum(self._ring) / len(self._ring)

    def std(self) -> float:
        n = len(self._ring)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in self._ring) / n)

    def min(self) -> float:
        return min(self._ring) if self._ring else math.nan

    def max(self) -> float:
        return max(self._ring) if self._ring else math.nan

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (0..100) over the window, interpolated."""
        if not self._ring:
            return math.nan
        ordered = sorted(self._ring)
        if len(ordered) == 1:
            return ordered[0]
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def p50(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def stats(self) -> dict:
        """JSON-ready summary of the current window."""
        return {
            "count": self.count,
            "window": len(self._ring),
            "last": self.last,
            "mean": self.mean() if self._ring else None,
            "ewma": self._ewma,
            "min": self.min() if self._ring else None,
            "max": self.max() if self._ring else None,
            "p50": self.p50() if self._ring else None,
            "p99": self.p99() if self._ring else None,
        }


#: Numeric fields of a ``step`` event that become per-rank series.
STEP_METRICS = (
    "wall_ms", "comm_wait_ms", "busy_ms", "fault_ms", "ring_occupancy",
    "retries", "drops", "delays", "peak_rss_kb", "loss",
)

#: Per-site fidelity fields pooled across ranks (site-keyed series).
FIDELITY_METRICS = ("rel_l2", "ratio", "residual_norm")


class Collector:
    """Aggregates rank ``meta``/``step`` events into sliding-window series.

    Series are keyed ``(rank, metric)``; pooled cross-rank series use
    ``rank=None`` and fidelity series use ``(None, f"fidelity/{site}/{m}")``.
    """

    def __init__(self, *, window: int = DEFAULT_WINDOW):
        self.window = window
        self._series: dict[tuple[int | None, str], SlidingWindow] = {}
        self._ranks: set[int] = set()
        self._last_step: dict[int, int] = {}
        self.world: int | None = None
        self.events_seen = 0

    # ------------------------------------------------------------------
    def series(self, rank: int | None, metric: str) -> SlidingWindow:
        key = (rank, metric)
        win = self._series.get(key)
        if win is None:
            win = self._series[key] = SlidingWindow(self.window)
        return win

    def observe(self, rank: int | None, metric: str, value: float) -> None:
        self.series(rank, metric).push(value)

    def ranks(self) -> list[int]:
        return sorted(self._ranks)

    def last_step(self, rank: int) -> int | None:
        return self._last_step.get(rank)

    def sites(self) -> list[str]:
        found = set()
        for rank, metric in self._series:
            if rank is None and metric.startswith("fidelity/"):
                found.add(metric.split("/", 2)[1])
        return sorted(found)

    # ------------------------------------------------------------------
    def ingest(self, event: dict) -> None:
        """Route one record event into the relevant series; kinds other
        than ``meta`` and ``step`` are counted and ignored."""
        self.events_seen += 1
        kind = event.get("kind")
        rank = event.get("rank")
        if kind == "meta":
            if isinstance(rank, int):
                self._ranks.add(rank)
            if isinstance(event.get("world"), int):
                self.world = event["world"]
            return
        if kind != "step" or not isinstance(rank, int):
            return
        self._ranks.add(rank)
        if isinstance(event.get("step"), int):
            self._last_step[rank] = event["step"]
        for metric in STEP_METRICS:
            value = event.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.observe(rank, metric, value)
                # Pooled series feed cross-rank percentiles (serving p99).
                self.observe(None, metric, value)
        for site, fields in (event.get("fidelity") or {}).items():
            for metric in FIDELITY_METRICS:
                value = fields.get(metric)
                if isinstance(value, (int, float)):
                    self.observe(None, f"fidelity/{site}/{metric}", value)

    def ingest_record(self, record: dict[int, list[dict]]) -> None:
        """Ingest ``StepResult.record`` (empty when nothing observed the step)."""
        for events in record.values():
            for event in events:
                self.ingest(event)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every series' window statistics."""
        per_rank: dict[str, dict[str, dict]] = {}
        pooled: dict[str, dict] = {}
        fidelity: dict[str, dict[str, dict]] = {}
        for (rank, metric), win in sorted(
                self._series.items(),
                key=lambda kv: (kv[0][0] is None, kv[0][0] or 0, kv[0][1])):
            if rank is None and metric.startswith("fidelity/"):
                _, site, field = metric.split("/", 2)
                fidelity.setdefault(site, {})[field] = win.stats()
            elif rank is None:
                pooled[metric] = win.stats()
            else:
                per_rank.setdefault(str(rank), {})[metric] = win.stats()
        return {
            "world": self.world,
            "ranks": self.ranks(),
            "events_seen": self.events_seen,
            "last_step": {str(r): s for r, s in sorted(self._last_step.items())},
            "per_rank": per_rank,
            "pooled": pooled,
            "fidelity": fidelity,
        }
