"""Deterministic fault injection (chaos seam): a delay slows a run without
changing a number, and a killed rank raises a typed BackendError naming
it — never a hang.

Single-process tests drive ``ShmChannel`` over a bytearray with a plan
installed via ``faults.install``; the mp integration tests arm the plan
through ``REPRO_FAULT_PLAN`` (read by each worker at spawn).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.parallel.backend import (
    DEFAULT_SLOTS,
    HEADER_SIZE,
    BackendError,
    CorruptMessage,
    ShmChannel,
    create_backend,
    load_events,
)
from repro.parallel.backend import faults
from repro.nn.transformer import TransformerConfig
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from tests.parallel.helpers import race_replay

CAPACITY = 1 << 16
MP_TIMEOUT = 30.0


def make_pair(src=0, dst=1, slots=DEFAULT_SLOTS):
    buf = bytearray(slots * (HEADER_SIZE + CAPACITY))
    tx = ShmChannel(buf, CAPACITY, src=src, dst=dst, slots=slots)
    rx = ShmChannel(buf, CAPACITY, src=src, dst=dst, slots=slots)
    return tx, rx


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """Every test starts and ends with no plan installed."""
    faults.uninstall()
    yield
    faults.uninstall()


def plan_of(*specs):
    return faults.FaultPlan({"faults": list(specs)})


class TestPlanParsing:
    def test_inline_json_builtin_and_file(self, tmp_path):
        inline = faults.parse_plan(json.dumps(BUILTIN := faults.BUILTIN_PLANS["mixed"]))
        assert len(inline.faults) == len(BUILTIN["faults"])
        for name in faults.BUILTIN_PLANS:
            assert faults.parse_plan(name).faults
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": [
            {"kind": "delay", "rank": 0, "step": 0, "seconds": 0.01}]}))
        assert len(faults.parse_plan(str(path)).faults) == 1

    def test_bad_value_names_the_options(self):
        with pytest.raises(ValueError, match="mixed"):
            faults.parse_plan("no-such-plan")

    def test_bad_kind_and_field_rejected(self):
        """A shared-memory ring neither loses nor damages a message, so a
        plan that asks for either fails loudly, naming what it asked for."""
        for kind in ("explode", "drop", "corrupt"):
            with pytest.raises(ValueError, match=f"unknown fault kind '{kind}'"):
                faults.FaultSpec(kind=kind, src=0, dst=1, seq=1)
        with pytest.raises(ValueError, match="fault 0: .*'field'"):
            faults.FaultPlan({"faults": [{"kind": "delay", "src": 0, "dst": 1,
                                          "field": "payload"}]})

    @pytest.mark.parametrize("doc, rule", [
        ({"retry_budget": 3}, "retry_budget"),
        ({"backoff_s": 0.0002}, "backoff_s"),
        ({"retries": 3}, "unknown fault-plan key"),
    ])
    def test_bad_plan_level_values_rejected(self, doc, rule):
        """The only plan-level key is ``faults``: a key of the old resend
        loop is refused by name, not ignored."""
        with pytest.raises(ValueError, match=rule):
            faults.FaultPlan(doc)

    def test_env_install_round_trip(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.maybe_install_from_env() is None
        assert faults.active() is None
        monkeypatch.setenv(faults.ENV_VAR, "straggler")
        plan = faults.maybe_install_from_env()
        assert plan is not None and faults.active() is plan


class TestChannelFaults:
    def test_genuine_corruption_raises_immediately_even_with_plan(self):
        """Damage in the slot raises at once, naming the message."""
        faults.install(plan_of())  # plan present, but injects nothing
        tx, rx = make_pair()
        tx.send(np.ones(8, dtype=np.float32))
        tx._buf[8:12] = b"\x00\x00\x00\x00"  # smash the magic word
        with pytest.raises(CorruptMessage) as exc:
            rx.recv()
        msg = str(exc.value)
        assert "mailbox 0->1" in msg and "slot 0" in msg and "seq 1" in msg

    def test_channel_delay_sleeps_then_delivers(self):
        faults.install(plan_of(
            {"kind": "delay", "src": 0, "dst": 1, "seq": 1, "seconds": 0.05}))
        tx, rx = make_pair()
        t0 = time.monotonic()
        tx.send(np.ones(4, dtype=np.float32))
        assert time.monotonic() - t0 >= 0.05
        assert rx.recv() is not None
        assert faults.active().injected["delay"] == 1

    def test_every_delay_planned_for_one_message_fires(self):
        faults.install(plan_of(
            {"kind": "delay", "src": 0, "dst": 1, "seq": 1, "seconds": 0.0},
            {"kind": "delay", "src": 0, "dst": 1, "seq": 1, "times": 2}))
        tx, rx = make_pair()
        arr = np.arange(8, dtype=np.float32)
        tx.send(arr)
        assert faults.active().injected == {"delay": 3}
        assert np.array_equal(rx.recv(), arr)

    def test_healthy_channel_unaffected_by_plan_for_other_mailbox(self):
        faults.install(plan_of(
            {"kind": "delay", "src": 2, "dst": 3, "seq": 1, "times": 2}))
        tx, rx = make_pair(src=0, dst=1)
        arr = np.arange(8, dtype=np.float32)
        tx.send(arr)
        assert np.array_equal(rx.recv(), arr)
        assert not faults.active().injected


def _make_mp_model(seed=0):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=2, seed=seed)
    cfg = ModelParallelConfig(model=mc, tp=2, pp=2, scheme="R2", seed=seed,
                              backend="mp")
    return ModelParallelBertClassifier(cfg)


def _batch(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 64, size=(4, 16)), rng.integers(0, 2, size=(4,)))


class TestMpIntegration:
    def test_injected_kill_surfaces_as_typed_error_naming_the_rank(self):
        plan = json.dumps({"faults": [{"kind": "kill", "rank": 3, "step": 1}]})
        saved = os.environ.get(faults.ENV_VAR)
        os.environ[faults.ENV_VAR] = plan
        try:
            backend = create_backend("mp", _make_mp_model(), timeout=MP_TIMEOUT)
            try:
                ids, labels = _batch()
                backend.train_step(ids, labels, None)  # step 0: healthy
                with pytest.raises(BackendError) as err:
                    backend.train_step(ids, labels, None)  # step 1: rank 3 dies
                assert err.value.rank == 3
            finally:
                backend.close()
        finally:
            if saved is None:
                os.environ.pop(faults.ENV_VAR, None)
            else:
                os.environ[faults.ENV_VAR] = saved

    def test_delay_and_kill_on_one_rank_and_step_both_fire(self, tmp_path):
        """List order: the delay sleeps, then the kill still kills — and the
        record, flushed before the exit, names both."""
        plan = json.dumps({"faults": [
            {"kind": "delay", "rank": 3, "step": 0, "seconds": 0.01},
            {"kind": "kill", "rank": 3, "step": 0}]})
        log_dir = str(tmp_path / "conclog")
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(faults.ENV_VAR, plan)
            mp.setenv("REPRO_CONC_LOG", log_dir)
            # The survivors are stuck at the dead rank's barrier; don't
            # wait the default 5 s before terminating them.
            backend = create_backend("mp", _make_mp_model(), timeout=MP_TIMEOUT,
                                     shutdown_timeout=0.5)
            with pytest.raises(BackendError) as err:
                backend.train_step(*_batch(), None)
        assert err.value.rank == 3 and "117" in str(err.value)
        fired = [e["fault"] for e in load_events(log_dir)
                 if e["kind"] == "fault" and e["rank"] == 3]
        assert fired == ["delay", "kill"]


def _make_dp_model():
    """dp2 x T2: each rank is its gang's leader and reduces half the slab."""
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=2, seed=0)
    cfg = ModelParallelConfig(model=mc, dp=2, scheme="T2", seed=0, backend="mp")
    return ModelParallelBertClassifier(cfg)


class TestDpLeaderFaults:
    """The gradient reduce runs in the gang leaders; a slow or dead leader
    must cost its peer a visible wait or a typed error, never a hang."""

    def test_straggler_shows_as_peer_wait_inside_the_reduce(self, tmp_path):
        """Leader 1 is late handing over its reconstruction at step 1 (its
        second message to leader 0 is the reduce's barrier token).  Leader 0
        books the delay as ``mp.wait`` between its compress and reduce
        phases, the numbers do not move, and the recorded run replays
        DYN003-clean."""
        delay = 0.25
        plan = json.dumps({"faults": [
            {"kind": "delay", "src": 1, "dst": 0, "seq": 2, "seconds": delay}]})
        log_dir = str(tmp_path / "conclog")
        ids, labels = _batch()
        with create_backend("mp", _make_dp_model(), timeout=MP_TIMEOUT) as ref:
            healthy = [ref.train_step(ids, labels, None) for _ in range(2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(faults.ENV_VAR, plan)
            mp.setenv("REPRO_CONC_LOG", log_dir)
            with create_backend("mp", _make_dp_model(), timeout=MP_TIMEOUT,
                                collect_timelines=True) as backend:
                slow = [backend.train_step(ids, labels, None) for _ in range(2)]

        for want, got in zip(healthy, slow):
            assert got.loss == want.loss
            for name, g in want.grads.items():
                assert np.array_equal(got.grads[name], g), name
        spans = slow[1].timelines[0]
        names = [s["name"] for s in spans]
        at = names.index("dp grads wait")
        assert names.index("dp compress") < at < names.index("dp reduce")
        assert spans[at]["cat"] == "mp.wait"
        # Leader 0 waits the delay less its own lateness at the barrier
        # (milliseconds); half the delay is far above any healthy wait.
        assert spans[at]["dur_ms"] >= delay * 1e3 * 0.5
        findings = race_replay.run_race_check_on_path(log_dir)
        assert not findings, "\n".join(findings)

    def test_killed_leader_is_named_and_nothing_is_left_behind(self):
        """Leader 1 dies at step 1; leader 0 is then inside the reduce,
        waiting for it.  The parent names rank 1 well inside the timeout
        and tears the survivor and the segment down."""
        plan = json.dumps({"faults": [{"kind": "kill", "rank": 1, "step": 1}]})
        ids, labels = _batch()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(faults.ENV_VAR, plan)
            backend = create_backend("mp", _make_dp_model(), timeout=MP_TIMEOUT,
                                     shutdown_timeout=0.5)
            # This backend's own segment, not the machine's: a concurrent
            # run may hold segments of its own.
            segment = f"/dev/shm/{backend.transport.spec['name']}"
            assert os.path.exists(segment)
            try:
                backend.train_step(ids, labels, None)  # step 0: healthy
                start = time.monotonic()
                with pytest.raises(BackendError, match="rank 1") as err:
                    backend.train_step(ids, labels, None)
                elapsed = time.monotonic() - start
            finally:
                backend.close()
        assert err.value.rank == 1
        assert elapsed < MP_TIMEOUT / 2
        assert all(not p.is_alive() for p in backend._procs)
        assert not os.path.exists(segment)
