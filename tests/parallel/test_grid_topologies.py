"""The DP×TP×PP×SP grid: bitwise equivalence, degeneracy, typed validation.

Acceptance cells (ISSUE 10, plus ``dp4`` since the gang leaders reduce):
``dp2×tp1×pp1``, ``dp2×tp2×pp1``, ``dp4×tp1×pp1`` and ``sp2×pp2`` must be
bitwise-equivalent between the mp gang and the inproc
oracle — ``==`` on losses, ``array_equal`` on gradients, multiset-equal
CommEvent streams.  On a mismatch the event-stream diff is written as a
JSON artifact (``REPRO_EVENT_DIFF_DIR``) for CI's ``backend-matrix``
"mixed" cells to upload.

The mp steps of those cells are conc-logged (``REPRO_CONC_LOG``), and
the ranks' mailbox ``send`` events are checked against the messages they
carry: every tensor-parallel all-gather and pipeline boundary stages its
codec's payload arrays, byte for byte, once per peer.

Degeneracy: any topology with ``dp=1, sp=1`` must produce the event
stream of the pre-grid TP×PP path — no ``dp``/``sp`` group events, and
the rank formula collapses to ``stage·tp + tp_rank``.
"""

import copy
import json
import os
import re
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.optim import Adam
from repro.parallel.backend import create_backend
from repro.parallel.backend.events import ENV_VAR as CONC_LOG, load_events
from repro.parallel.backend.context import global_rank
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from repro.parallel.topology import TopologyError, validate_grid
from tests.parallel.helpers import reference_step

MP_TIMEOUT = 30.0


def make_model(scheme, tp, pp, dp=1, sp=1, num_microbatches=1):
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=4, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=3)
    cfg = ModelParallelConfig(model=mc, tp=tp, pp=pp, dp=dp, sp=sp,
                              scheme=scheme, seed=0, backend="inproc",
                              num_microbatches=num_microbatches)
    return ModelParallelBertClassifier(cfg)


def make_batch(seed=0, batch=4):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 64, size=(batch, 12))
    labels = rng.integers(0, 3, size=(batch,))
    mask = np.ones((batch, 12), dtype=np.int64)
    return ids, labels, mask


def event_key(e):
    return (e.op, e.group, e.phase, e.scheme, e.wire_bytes, e.world, e.shape,
            e.layer, e.site)


def dump_event_diff(cell, ref_events, got_events):
    """Write the CommEvent multiset diff as a CI-uploadable JSON artifact."""
    out_dir = os.environ.get("REPRO_EVENT_DIFF_DIR")
    if not out_dir:
        return
    ref_c = Counter(map(event_key, ref_events))
    got_c = Counter(map(event_key, got_events))
    diff = [
        {"event": [str(x) for x in key],
         "inproc": ref_c.get(key, 0), "mp": got_c.get(key, 0)}
        for key in sorted(set(ref_c) | set(got_c), key=str)
        if ref_c.get(key, 0) != got_c.get(key, 0)
    ]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"event-diff-{cell}.json")
    with open(path, "w") as fh:
        json.dump({"cell": cell, "diff": diff}, fh, indent=2)


@pytest.fixture
def conc_log(tmp_path, monkeypatch):
    """Attach the workers' JSONL sink (read from the env at spawn)."""
    monkeypatch.setenv(CONC_LOG, str(tmp_path))
    return tmp_path


#: A span naming one message-kind site: a tp all-gather's wait or a
#: pipeline boundary send.
_SITE_SPAN = re.compile(r"allgather (layer\d+\.\w+) wait|pp send (boundary\d+)")


def mailbox_site_bytes(log_dir):
    """``[(rank, site, {dst: bytes})]``: what each rank staged in the
    mailbox for each site it sent, one entry per occurrence.  A send
    belongs to the first span after it that is not a per-message
    ``send->r`` wait."""
    by_rank = defaultdict(list)
    for event in load_events(log_dir):
        by_rank[event["rank"]].append(event)
    out = []
    for rank, events in sorted(by_rank.items()):
        pending = Counter()
        for e in sorted(events, key=lambda e: e["idx"]):
            if e["kind"] == "send" and not e.get("dropped"):
                pending[e["dst"]] += e["nbytes"]
            elif e["kind"] == "span" and not e["name"].startswith("send->"):
                site = _SITE_SPAN.fullmatch(e["name"])
                if site is not None:
                    out.append((rank, site.group(1) or site.group(2), pending))
                pending = Counter()
    return out


def assert_mailbox_carries_messages(log_dir, model, events, shape):
    """Each site's bytes per peer are its message's payload bytes, and its
    logged forward ``wire_bytes`` is the message's, ``compressed_bytes``."""
    zeros = np.zeros(shape, dtype=np.float32)
    sent = mailbox_site_bytes(log_dir)
    assert sent or model.config.tp * model.config.pp == 1
    for rank, site, per_peer in sent:
        codec = copy.deepcopy(model.backbone.site_compressor(site))
        msg = codec.compress(zeros, site)
        want = sum(a.nbytes for a in msg.payloads.values())
        assert per_peer and set(per_peer.values()) == {want}, (rank, site, per_peer)
        assert msg.wire_bytes == codec.compressed_bytes(shape)
    for e in events:
        if e.phase == "forward" and e.group in ("tp", "pp"):
            site = e.site if e.group == "pp" else f"layer{e.layer}.{e.site}"
            codec = model.backbone.site_compressor(site)
            assert e.wire_bytes == codec.compressed_bytes(shape), e


class TestGridBitwiseEquivalence:
    @pytest.mark.parametrize("dp,tp,pp,sp,scheme", [
        (2, 1, 1, 1, "w/o"),   # pure DP, dense gradient all-reduce
        (2, 1, 1, 1, "T2"),    # pure DP, EF top-k gradient wire
        (2, 1, 1, 1, "Q2"),    # pure DP, quantized gradient wire
        (2, 2, 1, 1, "R2"),    # DP over TP gangs, random-k streams
        (1, 1, 2, 2, "w/o"),   # ring SP across a pipeline split
        (1, 1, 2, 2, "Q2"),    # SP with a quantized boundary
        (1, 1, 2, 2, "T2"),    # SP with a top-k boundary
    ])
    def test_single_step_matches_oracle_bitwise(self, dp, tp, pp, sp, scheme,
                                                conc_log):
        ids, labels, mask = make_batch()
        oracle_model = make_model(scheme, tp, pp, dp=dp, sp=sp)
        mp_model = make_model(scheme, tp, pp, dp=dp, sp=sp)

        oracle = create_backend("inproc", oracle_model)
        ref = oracle.train_step(ids, labels, mask)
        oracle.apply_grads(oracle_model, ref)

        backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
        try:
            got = backend.train_step(ids, labels, mask)
        finally:
            backend.close()

        cell = f"dp{dp}tp{tp}pp{pp}sp{sp}-{scheme.replace('/', '_')}"
        if Counter(map(event_key, got.events)) != \
                Counter(map(event_key, ref.events)):
            dump_event_diff(cell, ref.events, got.events)

        assert got.loss == ref.loss  # bitwise, not allclose
        ref_grads = {n: p.grad for n, p in oracle_model.named_parameters()
                     if p.grad is not None}
        assert set(got.grads) == set(ref_grads)
        for name in sorted(ref_grads):
            assert np.array_equal(got.grads[name], ref_grads[name]), name
        assert Counter(map(event_key, got.events)) == \
            Counter(map(event_key, ref.events))
        assert_mailbox_carries_messages(conc_log, mp_model, got.events,
                                        (ids.shape[0] // dp, ids.shape[1], 32))

    def test_dp2_three_steps_keep_weights_identical(self, conc_log):
        """Full loop over dp2×tp2: grads merged, Adam steps, weights pushed."""
        oracle_model = make_model("T2", 2, 1, dp=2)
        mp_model = make_model("T2", 2, 1, dp=2)
        oracle = create_backend("inproc", oracle_model)
        backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
        opt_ref = Adam(oracle_model.parameters(), lr=1e-3)
        opt_got = Adam(mp_model.parameters(), lr=1e-3)
        try:
            for step in range(3):
                ids, labels, mask = make_batch(seed=step)

                ref = reference_step(oracle, oracle_model, opt_ref,
                                     ids, labels, mask)
                got = backend.step(ids, labels, mask, opt_got)

                assert got.loss == ref.loss, f"step {step}"
        finally:
            backend.close()
        assert_mailbox_carries_messages(conc_log, mp_model, got.events,
                                        (ids.shape[0] // 2, ids.shape[1], 32))

        ref_state = oracle_model.state_dict()
        got_state = mp_model.state_dict()
        assert set(ref_state) == set(got_state)
        for name in sorted(ref_state):
            assert np.array_equal(ref_state[name], got_state[name]), name


    @pytest.mark.parametrize("scheme", ["T2", "w/o"])
    def test_dp4_three_steps_match_oracle_bitwise(self, scheme):
        """World 4: the leaders' sum is the left fold in dp-rank order
        (``sum_in_order``), so nothing about it is special to dp <= 2 —
        losses, gradients and events at every step, weights at the end."""
        oracle_model = make_model(scheme, 1, 1, dp=4)
        mp_model = make_model(scheme, 1, 1, dp=4)
        oracle = create_backend("inproc", oracle_model)
        backend = create_backend("mp", mp_model, timeout=MP_TIMEOUT)
        opt_ref = Adam(oracle_model.parameters(), lr=1e-3)
        opt_got = Adam(mp_model.parameters(), lr=1e-3)
        try:
            for step in range(3):
                ids, labels, mask = make_batch(seed=step)

                ref = reference_step(oracle, oracle_model, opt_ref,
                                     ids, labels, mask)
                got = backend.step(ids, labels, mask, opt_got)

                assert got.loss == ref.loss, f"step {step}"
                assert set(got.grads) == set(ref.grads)
                for name in sorted(ref.grads):
                    assert np.array_equal(got.grads[name], ref.grads[name]), \
                        (step, name)
                assert Counter(map(event_key, got.events)) == \
                    Counter(map(event_key, ref.events)), f"step {step}"
        finally:
            backend.close()

        ref_state = oracle_model.state_dict()
        got_state = mp_model.state_dict()
        for name in sorted(ref_state):
            assert np.array_equal(ref_state[name], got_state[name]), name


class TestDegenerateTopology:
    @pytest.mark.parametrize("tp,pp,scheme", [
        (2, 1, "T2"), (1, 2, "Q2"), (2, 2, "R2"), (2, 2, "w/o"),
    ])
    def test_dp1_sp1_stream_has_no_grid_events(self, tp, pp, scheme):
        """dp=1/sp=1 degenerates to the pre-grid TP×PP event stream."""
        ids, labels, mask = make_batch()
        model = make_model(scheme, tp, pp)  # axes defaulted
        explicit = make_model(scheme, tp, pp, dp=1, sp=1)

        ref = create_backend("inproc", model).train_step(ids, labels, mask)
        got = create_backend("inproc", explicit).train_step(ids, labels, mask)

        assert all(e.group in ("tp", "pp") for e in ref.events)
        assert got.loss == ref.loss
        assert Counter(map(event_key, got.events)) == \
            Counter(map(event_key, ref.events))

    def test_rank_formula_degenerates(self):
        for tp, pp in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 2)]:
            for stage in range(pp):
                for tp_rank in range(tp):
                    assert global_rank(stage, tp_rank, tp, pp=pp) == \
                        stage * tp + tp_rank


class TestDpCompressorIsolation:
    def test_ef_residuals_never_alias_across_replicas(self):
        """Each replica's EF residual advances on its own shard — no aliasing."""
        model = make_model("T2", 1, 1, dp=2)
        backend = create_backend("inproc", model)
        ids, labels, mask = make_batch()
        backend.train_step(ids, labels, mask)

        residuals = backend._dp_compressor.runtime_state()["residuals"]
        assert set(residuals) == {"dp.rank0", "dp.rank1"}
        r0, r1 = residuals["dp.rank0"], residuals["dp.rank1"]
        assert not np.shares_memory(r0, r1)
        # Different batch shards ⇒ different gradients ⇒ different residue.
        assert not np.array_equal(r0, r1)

        # A second step must keep the per-replica streams independent:
        # mutating one site's residual must not leak into the other.
        r0_before = r0.copy()
        backend._dp_compressor._residuals["dp.rank1"] = np.zeros_like(r1)
        assert np.array_equal(
            backend._dp_compressor._residuals["dp.rank0"], r0_before)

    def test_dp_runtime_state_is_namespaced(self):
        model = make_model("R2", 2, 1, dp=2)
        backend = create_backend("inproc", model)
        ids, labels, mask = make_batch()
        backend.train_step(ids, labels, mask)
        state = backend.runtime_state()
        assert "dp0" in state and "dp1" in state and "dp_grad" in state
        # Round-trips through load without touching the dp1 namespace.
        backend.load_runtime_state(state)


class TestTypedGridValidation:
    def test_world_size_must_factor_exactly(self):
        with pytest.raises(TopologyError) as exc:
            validate_grid(3, 2, 2, 1, world_size=8)
        assert exc.value.axis == "dp"
        assert "dp" in str(exc.value)

    @pytest.mark.parametrize("axis,kwargs", [
        ("dp", dict(dp=0)),
        ("tp", dict(tp=-2)),
        ("sp", dict(sp=2, tp=2)),   # sp requires tp == 1
    ])
    def test_config_rejects_bad_axis_with_typed_error(self, axis, kwargs):
        mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2,
                               num_heads=4, max_seq_len=16, dropout=0.0)
        base = dict(tp=1, pp=1, dp=1, sp=1)
        base.update(kwargs)
        with pytest.raises(TopologyError) as exc:
            ModelParallelConfig(model=mc, scheme="w/o", **base)
        assert exc.value.axis == axis
        assert axis in str(exc.value)

    def test_create_backend_revalidates_mutated_config(self):
        model = make_model("w/o", 1, 1)
        model.config.dp = 0  # mutate after construction
        with pytest.raises(TopologyError) as exc:
            create_backend("inproc", model)
        assert exc.value.axis == "dp"

    def test_sp_must_divide_sequence_length(self):
        mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2,
                               num_heads=4, max_seq_len=15, dropout=0.0)
        with pytest.raises(TopologyError) as exc:
            ModelParallelConfig(model=mc, tp=1, pp=1, sp=2, scheme="w/o")
        assert exc.value.axis == "sp"

    def test_env_knobs_set_default_axes(self, monkeypatch):
        mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2,
                               num_heads=4, max_seq_len=16, dropout=0.0)
        monkeypatch.setenv("REPRO_DP", "2")
        monkeypatch.setenv("REPRO_SP", "1")
        cfg = ModelParallelConfig(model=mc, tp=1, pp=1, scheme="w/o")
        assert cfg.dp == 2 and cfg.sp == 1
        assert cfg.world_size == 2
        monkeypatch.delenv("REPRO_DP")
        monkeypatch.delenv("REPRO_SP")
        assert ModelParallelConfig(model=mc, tp=1, pp=1,
                                   scheme="w/o").world_size == 1
