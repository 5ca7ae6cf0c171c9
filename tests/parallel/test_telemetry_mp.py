"""Live telemetry over the real mp backend.

Contracts from DESIGN "Rank event record":

- with ``collect_timelines`` every rank's step slice — its spans,
  faults, step-end gauges and per-call compression fidelity — rides the
  step reply and is in ``result.record`` when ``train_step`` returns, so
  ``step_rows`` folds one row per rank per step from it — nothing here
  sleeps;
- the observers are *bitwise* neutral, one at a time and all together —
  identical losses, weights and CommEvent multisets over a multi-step
  training loop (equality, not allclose);
- under the builtin straggler fault plan the health monitor's alert
  names the injected rank.
"""

from collections import Counter

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.obs.metrics import RunRecorder, step_rows
from repro.obs.telemetry import HealthMonitor, LossRule
from repro.obs.telemetry.health import values
from repro.optim import Adam
from repro.parallel.backend import create_backend
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig

MP_TIMEOUT = 30.0


def make_model(scheme="A2", tp=2, pp=2, schedule="1f1b", microbatches=2):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=3)
    cfg = ModelParallelConfig(model=mc, tp=tp, pp=pp, scheme=scheme, seed=0,
                              backend="mp", pipeline_schedule=schedule,
                              num_microbatches=microbatches)
    return ModelParallelBertClassifier(cfg)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 64, size=(4, 12))
    labels = rng.integers(0, 3, size=(4,))
    mask = np.ones((4, 12), dtype=np.int64)
    return ids, labels, mask


def flat(record):
    """``StepResult.record`` as one event list, rank by rank."""
    return [e for rank in sorted(record) for e in record[rank]]


def train_loop(model, steps=2, rows=None, results=None, **backend_kw):
    """A few real optimizer steps through the mp backend; returns losses.

    ``rows`` receives the run's ``step_rows``: the workers' from each
    step's record, the parent's (rank -1, gauging the step loss) from a
    recorder around each step.
    """
    optimizer = Adam(model.parameters(), lr=1e-3)
    recorder = RunRecorder()
    events = []
    losses = []
    backend = create_backend("mp", model, timeout=MP_TIMEOUT, **backend_kw)
    try:
        for step in range(steps):
            ids, labels, mask = make_batch(seed=step)
            with recorder.step(step):
                result = backend.step(ids, labels, mask, optimizer)
                recorder.gauge("loss", result.loss)
            losses.append(result.loss)
            events += flat(result.record)
            if results is not None:
                results.append(result)
    finally:
        backend.close()
    if rows is not None:
        rows += step_rows(recorder.events + events)
    return losses


class TestSideChannel:
    def test_every_rank_streams_step_events_and_fidelity(self):
        rows = []
        losses = train_loop(make_model("A2"), steps=2, rows=rows,
                            collect_timelines=True)

        assert sorted({r["rank"] for r in rows}) == [-1, 0, 1, 2, 3]
        for rank in range(4):
            own = [r for r in rows if r["rank"] == rank]
            assert [r["step"] for r in own] == [0, 1]
            assert all(r["wall_ms"] > 0 for r in own)
            # busy = wall − wait by construction.
            for r in own:
                assert r["busy_ms"] == pytest.approx(
                    max(r["wall_ms"] - r["comm_wait_ms"], 0.0))
            assert {"ring_occupancy", "peak_rss_kb"} <= set(own[0]["gauges"])
        # Only the last pipeline stage (ranks 2, 3) gauges a loss.
        assert [r["rank"] for r in rows if r["rank"] >= 0
                and "loss" in r["gauges"]] == [2, 3, 2, 3]
        # The loss rule reads the step results' losses, one per step.
        assert LossRule.series(rows) == losses
        # The A2 scheme compresses both TP sites and the PP boundary:
        # fidelity must arrive from the SPMD collectives, pooled per site.
        sites = {site for r in rows for site in r["fidelity"]}
        assert "boundary0" in sites
        assert any(s.startswith("layer") for s in sites)
        rel = values(rows, "fidelity/boundary0/rel_l2")
        assert len(rel) > 0 and all(v >= 0 for v in rel)

    def test_channel_is_silent_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONC_LOG", raising=False)
        results = []
        train_loop(make_model("w/o", schedule="gpipe", microbatches=1),
                   steps=1, results=results)
        assert results[0].record == {}
        assert results[0].timelines == {}

    def test_step_summaries_are_in_hand_when_train_step_returns(self):
        """30 of 30 steps: exactly ``world`` rows for step k, and for no
        other step, fold from the result of ``train_step(k)``."""
        results = []
        train_loop(make_model("A2"), steps=30, results=results,
                   collect_timelines=True)
        for k, result in enumerate(results):
            rows = step_rows(flat(result.record))
            assert sorted(r["rank"] for r in rows) == [0, 1, 2, 3], k
            assert {r["step"] for r in rows} == {k}
            assert sorted(result.timelines) == [0, 1, 2, 3]


def observed_run(env, **backend_kw):
    """Losses, weights and per-step CommEvent multisets of 3 optimizer
    steps with exactly ``env`` of the observer switches set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_CONC_LOG", raising=False)
        for name, value in env.items():
            mp.setenv(name, value)
        model = make_model("A2")
        results = []
        losses = train_loop(model, steps=3, results=results, **backend_kw)
    return losses, model.state_dict(), [Counter(r.events) for r in results]


class TestBitwiseNeutrality:
    @pytest.fixture(scope="class")
    def bare(self):
        return observed_run({})

    @staticmethod
    def assert_identical(observed, bare):
        losses, state, comm = observed
        assert losses == bare[0]  # bitwise, not allclose
        assert set(state) == set(bare[1])
        for name in sorted(state):
            assert np.array_equal(state[name], bare[1][name]), name
        assert comm == bare[2]

    def test_on_off_runs_are_identical(self, bare):
        self.assert_identical(observed_run({}, collect_timelines=True), bare)

    def test_all_observers_together_are_identical(self, bare, tmp_path):
        """JSONL sink + the step record on one 2x2 1F1B run."""
        observed = observed_run({"REPRO_CONC_LOG": str(tmp_path)},
                                collect_timelines=True)
        self.assert_identical(observed, bare)
        assert len(list(tmp_path.glob("conc-rank*.jsonl"))) == 4


class TestStragglerAlert:
    def test_alert_names_the_injected_rank(self, monkeypatch):
        # The builtin plan delays rank 1 before step 0 by 50 ms — far above
        # the straggler rule's 10 ms gap floor.
        monkeypatch.setenv("REPRO_FAULT_PLAN", "straggler")
        rows = []
        monitor = HealthMonitor()
        train_loop(make_model("w/o"), steps=2, rows=rows,
                   collect_timelines=True)
        monitor.check(rows, step=2)

        stragglers = [a for a in monitor.alerts if a.rule == "straggler"]
        assert stragglers, f"no straggler alert; got {monitor.alerts}"
        assert {a.rank for a in stragglers} == {1}
        assert "rank 1" in stragglers[0].message
        # The injected delay is also visible as this rank's fault counter.
        assert sum(values(rows, "delays", 1)) >= 1
