"""Deterministic fault injection (chaos seam): every fault class either
recovers within the retry budget or raises a typed BackendError naming
the rank/mailbox — never a hang.

Single-process tests drive ``ShmChannel`` over a bytearray with a plan
installed via ``faults.install``; the mp integration tests arm the plan
through ``REPRO_FAULT_PLAN`` (read by each worker at spawn) and assert
the faulted run still produces the healthy run's numbers.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.lint.race_check import run_race_check_on_path
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


def plan_of(*specs, retry_budget=3):
    return faults.FaultPlan({"retry_budget": retry_budget,
                             "faults": list(specs)})


class TestPlanParsing:
    def test_inline_json_builtin_and_file(self, tmp_path):
        inline = faults.parse_plan(json.dumps(BUILTIN := faults.BUILTIN_PLANS["mixed"]))
        assert len(inline.faults) == len(BUILTIN["faults"])
        for name in faults.BUILTIN_PLANS:
            assert faults.parse_plan(name).retry_budget >= 1
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": [
            {"kind": "delay", "rank": 0, "step": 0, "seconds": 0.01}]}))
        assert len(faults.parse_plan(str(path)).faults) == 1

    def test_bad_value_names_the_options(self):
        with pytest.raises(ValueError, match="mixed"):
            faults.parse_plan("no-such-plan")

    def test_bad_kind_and_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultSpec(kind="explode", rank=0)
        with pytest.raises(ValueError, match="unknown corrupt field"):
            faults.FaultSpec(kind="corrupt", src=0, dst=1, field="checksum")
        with pytest.raises(ValueError, match="needs src/dst"):
            faults.FaultSpec(kind="drop")

    @pytest.mark.parametrize("doc, rule", [
        ({"retry_budget": 0}, "retry_budget must be >= 1"),
        ({"backoff_s": -1.0}, "backoff_s must be a finite number"),
        ({"retries": 3}, "unknown fault-plan key"),
    ])
    def test_bad_plan_level_values_rejected(self, doc, rule):
        """A budget of 0 would give up before the first resend."""
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
    def test_drop_recovers_within_budget(self):
        faults.install(plan_of(
            {"kind": "drop", "src": 0, "dst": 1, "seq": 1, "times": 2}))
        tx, rx = make_pair()
        arr = np.arange(16, dtype=np.float32)
        tx.send(arr)
        assert faults.active().injected["drop"] == 2
        assert np.array_equal(rx.recv(), arr)

    def test_drop_budget_exhaustion_raises_typed_error(self):
        faults.install(plan_of(
            {"kind": "drop", "src": 0, "dst": 1, "seq": 1, "times": 5},
            retry_budget=3))
        tx, _ = make_pair()
        with pytest.raises(BackendError, match=r"mailbox 0->1.*budget \(3\) exhausted"):
            tx.send(np.zeros(4, dtype=np.float32))

    @pytest.mark.parametrize("field", ["payload", "header"])
    def test_corrupt_recovers_by_re_read(self, field):
        faults.install(plan_of(
            {"kind": "corrupt", "src": 0, "dst": 1, "seq": 1, "field": field}))
        tx, rx = make_pair()
        arr = np.arange(32, dtype=np.float32).reshape(4, 8)
        tx.send(arr)
        out = rx.recv()
        assert faults.active().injected["corrupt"] == 1
        assert np.array_equal(out, arr)

    def test_corrupt_budget_exhaustion_raises_typed_error(self):
        faults.install(plan_of(
            {"kind": "corrupt", "src": 0, "dst": 1, "seq": 1, "times": 5},
            retry_budget=3))
        tx, rx = make_pair()
        tx.send(np.ones(8, dtype=np.float32))
        with pytest.raises(BackendError, match="still corrupt after 3 re-reads"):
            rx.recv()

    def test_genuine_corruption_raises_immediately_even_with_plan(self):
        """Real (non-injected) damage must never be masked by retries."""
        faults.install(plan_of())  # plan present, but injects nothing
        tx, rx = make_pair()
        tx.send(np.ones(8, dtype=np.float32))
        tx._buf[8:12] = b"\x00\x00\x00\x00"  # smash the magic word
        with pytest.raises(CorruptMessage):
            rx.recv()

    def test_channel_delay_sleeps_then_delivers(self):
        faults.install(plan_of(
            {"kind": "delay", "src": 0, "dst": 1, "seq": 1, "seconds": 0.05}))
        tx, rx = make_pair()
        t0 = time.monotonic()
        tx.send(np.ones(4, dtype=np.float32))
        assert time.monotonic() - t0 >= 0.05
        assert rx.recv() is not None
        assert faults.active().injected["delay"] == 1

    def test_delay_listed_before_a_drop_on_one_message_does_not_mask_it(self):
        faults.install(plan_of(
            {"kind": "delay", "src": 0, "dst": 1, "seq": 1, "seconds": 0.0},
            {"kind": "drop", "src": 0, "dst": 1, "seq": 1}))
        tx, rx = make_pair()
        arr = np.arange(8, dtype=np.float32)
        tx.send(arr)
        assert faults.active().injected == {"delay": 1, "drop": 1}
        assert np.array_equal(rx.recv(), arr)

    def test_healthy_channel_unaffected_by_plan_for_other_mailbox(self):
        faults.install(plan_of(
            {"kind": "drop", "src": 2, "dst": 3, "seq": 1, "times": 2}))
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


def _run_steps(n, env=None):
    """Losses from n mp steps, optionally with REPRO_FAULT_PLAN armed."""
    saved = {}
    for key, value in (env or {}).items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        backend = create_backend("mp", _make_mp_model(), timeout=MP_TIMEOUT)
        try:
            ids, labels = _batch()
            return [backend.train_step(ids, labels, None).loss for _ in range(n)]
        finally:
            backend.close()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class TestMpIntegration:
    def test_faulted_run_matches_healthy_run(self):
        """Drops and corruption recover without changing the numbers."""
        plan = json.dumps({"retry_budget": 3, "faults": [
            {"kind": "drop", "src": 0, "dst": 2, "seq": 1, "times": 2},
            {"kind": "corrupt", "src": 2, "dst": 0, "seq": 1,
             "field": "payload"},
        ]})
        healthy = _run_steps(2)
        faulted = _run_steps(2, env={faults.ENV_VAR: plan})
        assert faulted == healthy

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

    def test_faulted_run_replays_dyn003_clean(self, tmp_path):
        """Retried seqs (marked dropped) must not read as double publishes."""
        plan = json.dumps({"retry_budget": 3, "faults": [
            {"kind": "drop", "src": 0, "dst": 2, "seq": 1, "times": 2},
            {"kind": "corrupt", "src": 2, "dst": 0, "seq": 1,
             "field": "payload"},
        ]})
        log_dir = str(tmp_path / "conclog")
        _run_steps(2, env={faults.ENV_VAR: plan, "REPRO_CONC_LOG": log_dir})
        findings = run_race_check_on_path(log_dir)
        assert not findings, "\n".join(findings)
        events = load_events(log_dir)
        assert [e for e in events if e.get("dropped")], \
            "plan did not fire: no dropped send events in the log"
        assert any(e["kind"] == "fault" and e["fault"] == "corrupt"
                   for e in events)

    def test_unmarked_double_publish_is_still_flagged(self, tmp_path):
        """The DYN003 retry carve-out only exempts *marked* resends."""
        plan = json.dumps({"retry_budget": 3, "faults": [
            {"kind": "drop", "src": 0, "dst": 2, "seq": 1, "times": 2}]})
        log_dir = str(tmp_path / "conclog")
        _run_steps(1, env={faults.ENV_VAR: plan, "REPRO_CONC_LOG": log_dir})
        events = load_events(log_dir)
        for e in events:
            e.pop("dropped", None)
            e.pop("retry", None)
        from repro.lint.race_check import run_race_check
        findings = run_race_check(events)
        assert any("double publish" in f for f in findings), findings


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
        findings = run_race_check_on_path(log_dir)
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
