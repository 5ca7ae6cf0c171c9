"""Live telemetry over the real mp backend.

Contracts from DESIGN "Rank event record":

- with ``REPRO_TELEMETRY=1`` every rank's meta + step events ride the
  step reply, including per-site compression fidelity, and are in
  ``result.record`` when ``train_step`` returns — nothing here sleeps;
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
from repro.obs.telemetry import Collector, HealthMonitor
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


def train_loop(model, steps=2, collector=None, results=None, **backend_kw):
    """A few real optimizer steps through the mp backend; returns losses."""
    optimizer = Adam(model.parameters(), lr=1e-3)
    losses = []
    backend = create_backend("mp", model, timeout=MP_TIMEOUT, **backend_kw)
    try:
        for step in range(steps):
            ids, labels, mask = make_batch(seed=step)
            result = backend.step(ids, labels, mask, optimizer)
            losses.append(result.loss)
            if collector is not None:
                collector.ingest_record(result.record)
            if results is not None:
                results.append(result)
    finally:
        backend.close()
    return losses


class TestSideChannel:
    def test_every_rank_streams_step_events_and_fidelity(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        collector = Collector()
        train_loop(make_model("A2"), steps=2, collector=collector)

        assert collector.ranks() == [0, 1, 2, 3]
        assert collector.world == 4
        for rank in range(4):
            assert collector.last_step(rank) == 1
            wall = collector.series(rank, "wall_ms")
            busy = collector.series(rank, "busy_ms")
            wait = collector.series(rank, "comm_wait_ms")
            assert len(wall) == 2
            assert all(v > 0 for v in wall.values())
            # busy = wall − wait by construction.
            for w, b, c in zip(wall.values(), busy.values(), wait.values()):
                assert b == pytest.approx(max(w - c, 0.0))
        # The A2 scheme compresses both TP sites and the PP boundary:
        # fidelity must arrive from the SPMD collectives, pooled per site.
        sites = collector.sites()
        assert "boundary0" in sites
        assert any(s.startswith("layer") for s in sites)
        rel = collector.series(None, "fidelity/boundary0/rel_l2")
        assert len(rel) > 0 and all(v >= 0 for v in rel.values())

    def test_channel_is_silent_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        collector = Collector()
        train_loop(make_model("w/o", schedule="gpipe", microbatches=1),
                   steps=1, collector=collector)
        assert collector.events_seen == 0
        assert collector.ranks() == []

    def test_step_summaries_are_in_hand_when_train_step_returns(self, monkeypatch):
        """30 of 30 steps: exactly ``world`` summaries for step k, and for
        no other step, in the result of ``train_step(k)``."""
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        results = []
        train_loop(make_model("A2"), steps=30, results=results)
        for k, result in enumerate(results):
            summaries = [e for events in result.record.values()
                         for e in events if e["kind"] == "step"]
            assert sorted(e["rank"] for e in summaries) == [0, 1, 2, 3], k
            assert {e["step"] for e in summaries} == {k}
            assert result.timelines == {}  # nobody asked for the span view


def observed_run(env, **backend_kw):
    """Losses, weights and per-step CommEvent multisets of 3 optimizer
    steps with exactly ``env`` of the observer switches set."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("REPRO_TELEMETRY", "REPRO_CONC_LOG"):
            mp.delenv(name, raising=False)
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
        self.assert_identical(observed_run({"REPRO_TELEMETRY": "1"}), bare)

    def test_all_observers_together_are_identical(self, bare, tmp_path):
        """JSONL sink + telemetry + timelines on one 2x2 1F1B run."""
        observed = observed_run(
            {"REPRO_TELEMETRY": "1", "REPRO_CONC_LOG": str(tmp_path)},
            collect_timelines=True)
        self.assert_identical(observed, bare)
        assert len(list(tmp_path.glob("conc-rank*.jsonl"))) == 4


class TestStragglerAlert:
    def test_alert_names_the_injected_rank(self, monkeypatch):
        # The builtin plan delays rank 1 before step 0 by 50 ms — far above
        # the straggler rule's 10 ms gap floor.
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_FAULT_PLAN", "straggler")
        collector = Collector()
        monitor = HealthMonitor(collector)
        train_loop(make_model("w/o"), steps=2, collector=collector)
        monitor.check(step=2)

        stragglers = [a for a in monitor.alerts if a.rule == "straggler"]
        assert stragglers, f"no straggler alert; got {monitor.alerts}"
        assert {a.rank for a in stragglers} == {1}
        assert "rank 1" in stragglers[0].message
        # The injected delay is also visible as this rank's fault counter.
        assert sum(collector.series(1, "delays").values()) >= 1
