"""Stress tests for the shared-memory ring transport under the mp backend.

Everything here runs in one process: ``ShmChannel`` works over any
writable buffer, so the single-producer/single-consumer ring protocol is
exercised over plain bytearrays, and ``RankTransport`` peers attach to
the same segment from threads.  The multi-process path on top of this
protocol is covered by ``test_backend_equivalence.py``.

The rank event record is process-global (a rank is a process, and the
fault plan is global the same way), so thread-hosted peers here write to
one shared record: each site stays a single ``events.active()`` lookup,
and the tests read the spans of both peers off that one record.
"""

import struct
import threading
import time

import numpy as np
import pytest

from repro.parallel.backend import (
    BackendError,
    CorruptMessage,
    DEFAULT_SLOTS,
    HEADER_SIZE,
    EventRecord,
    RankTransport,
    ShmBarrier,
    ShmChannel,
)
from repro.parallel.backend import events, faults

CAPACITY = 1 << 16

WIRE_DTYPES = ["float32", "float16", "float64", "int32", "int64", "uint8", "bool"]


def make_pair(capacity=CAPACITY, src=0, dst=1, slots=DEFAULT_SLOTS):
    """Sender and receiver views of one ring mailbox."""
    buf = bytearray(slots * (HEADER_SIZE + capacity))
    tx = ShmChannel(buf, capacity, src=src, dst=dst, slots=slots)
    rx = ShmChannel(buf, capacity, src=src, dst=dst, slots=slots)
    return tx, rx


class TestShmChannel:
    def test_round_trip_preserves_dtype_shape_and_bytes(self):
        tx, rx = make_pair()
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        tx.send(arr)
        out = rx.recv()
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(out, arr)

    @pytest.mark.parametrize("dtype", WIRE_DTYPES)
    def test_every_wire_dtype_round_trips(self, dtype):
        tx, rx = make_pair()
        rng = np.random.default_rng(3)
        arr = (rng.random((5, 7)) * 100).astype(dtype)
        tx.send(arr)
        out = rx.recv()
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, arr)

    def test_zero_row_tensor_round_trips(self):
        """0-element payloads still carry dtype and shape in the header."""
        tx, rx = make_pair()
        for shape in [(0, 8), (0,), (4, 0, 2)]:
            arr = np.empty(shape, dtype=np.float32)
            tx.send(arr)
            out = rx.recv()
            assert out.shape == shape and out.dtype == np.float32

    def test_zero_dim_scalar_round_trips(self):
        tx, rx = make_pair()
        arr = np.full((), 3.25, dtype=np.float32)
        tx.send(arr)
        out = rx.recv()
        assert out.shape == () and out.dtype == np.float32
        assert out == np.float32(3.25)

    def test_200_randomized_shapes_per_dtype(self):
        """Soak the ring: many sequential transfers across wraparound."""
        rng = np.random.default_rng(0)
        for dtype in ("float32", "float16"):
            tx, rx = make_pair()
            for _ in range(200):
                ndim = int(rng.integers(0, 4))
                shape = tuple(int(rng.integers(0, 9)) for _ in range(ndim))
                arr = rng.standard_normal(shape).astype(dtype)
                tx.send(arr)
                out = rx.recv()
                assert out.dtype == arr.dtype and out.shape == arr.shape
                assert np.array_equal(out, arr)

    def test_sender_runs_ahead_up_to_ring_depth(self):
        """A sender never blocks until the receiver lags a full ring."""
        tx, rx = make_pair(slots=4)
        for i in range(4):  # all four issue without a matching recv
            tx.send(np.full((8,), i, dtype=np.int32), timeout=0.5)
        for i in range(4):  # FIFO drain, in order
            assert rx.recv()[0] == i

    def test_fifo_order_preserved_across_wraparound(self):
        tx, rx = make_pair(slots=3)
        sent = 0
        received = 0
        for i in range(17):
            tx.send(np.full((2,), i, dtype=np.int64))
            sent += 1
            if sent - received == 3:  # ring full: drain two, keep one in flight
                assert rx.recv()[0] == received
                assert rx.recv()[0] == received + 1
                received += 2
        while received < sent:
            assert rx.recv()[0] == received
            received += 1

    def test_noncontiguous_input_is_sent_contiguously(self):
        tx, rx = make_pair()
        arr = np.arange(36, dtype=np.float32).reshape(6, 6)[::2, ::3]
        assert not arr.flags["C_CONTIGUOUS"]
        tx.send(arr)
        assert np.array_equal(rx.recv(), arr)

    def test_seq_numbers_are_monotonic_across_messages(self):
        tx, rx = make_pair()
        for i in range(5):
            tx.send(np.full((2,), i, dtype=np.int64))
            assert rx.recv()[0] == i
        assert tx._send_seq == rx._recv_seq == 5

    def test_out_of_order_message_raises(self):
        tx, rx = make_pair(slots=4)
        tx.send(np.zeros(1, dtype=np.float32))
        # Receiver desyncs by a full ring: it polls slot 0 expecting seq 9
        # but finds the stale seq-1 message there.
        rx._recv_seq = 8
        with pytest.raises(BackendError, match="out-of-order"):
            rx.recv()

    def test_corrupted_magic_raises_instead_of_decoding_garbage(self):
        tx, rx = make_pair()
        tx.send(np.zeros(3, dtype=np.float32))
        struct.pack_into("<I", tx._buf, 8, 0xDEADBEEF)  # clobber magic field
        with pytest.raises(BackendError, match="bad magic"):
            rx.recv()

    def test_payload_over_capacity_raises_typed_error(self):
        tx, _ = make_pair(capacity=64)
        with pytest.raises(BackendError, match="exceeds channel capacity"):
            tx.send(np.zeros(64, dtype=np.float64))

    def test_unsupported_dtype_raises(self):
        tx, _ = make_pair()
        with pytest.raises(BackendError, match="unsupported wire dtype"):
            tx.send(np.zeros(2, dtype=np.complex64))

    def test_send_into_full_ring_times_out_naming_mailbox_and_seq(self):
        """Deadline attribution: peer rank, mailbox, slot and message seq."""
        tx, _ = make_pair(src=2, dst=5, slots=2)
        tx.send(np.zeros(1, dtype=np.float32))
        tx.send(np.zeros(1, dtype=np.float32))
        with pytest.raises(BackendError, match="rank 5") as exc:
            tx.send(np.zeros(1, dtype=np.float32), timeout=0.05)
        assert exc.value.rank == 5
        msg = str(exc.value)
        assert "mailbox 2->5" in msg and "slot 0" in msg and "seq 3" in msg

    def test_recv_from_empty_ring_times_out_naming_sender(self):
        _, rx = make_pair(src=3, dst=0)
        with pytest.raises(BackendError, match="rank 3") as exc:
            rx.recv(timeout=0.05)
        assert exc.value.rank == 3
        msg = str(exc.value)
        assert "mailbox 3->0" in msg and "seq 1" in msg

    def test_buffer_too_small_rejected_at_construction(self):
        with pytest.raises(ValueError, match="too small"):
            ShmChannel(bytearray(HEADER_SIZE), 64, src=0, dst=1)

    def test_single_slot_ring_degenerates_to_rendezvous(self):
        tx, rx = make_pair(slots=1)
        for i in range(3):
            tx.send(np.full((1,), i, dtype=np.int32))
            assert rx.recv()[0] == i
        tx.send(np.zeros(1, dtype=np.float32))
        with pytest.raises(BackendError, match="drain"):
            tx.send(np.zeros(1, dtype=np.float32), timeout=0.05)


class TestSingleStepSeams:
    """try_send / try_recv / arrive / peers_ready — the verification seams
    the DYN004 model checker single-steps."""

    def test_try_recv_on_empty_ring_returns_none(self):
        _, rx = make_pair(slots=2)
        assert rx.try_recv() is None

    def test_try_send_refuses_exactly_at_ring_depth(self):
        for slots in (1, 2, 4):
            tx, rx = make_pair(slots=slots)
            for i in range(slots):
                assert tx.try_send(np.full((1,), i, dtype=np.int32))
            assert not tx.try_send(np.zeros(1, dtype=np.int32))
            assert tx._send_seq == slots  # the refusal mutated nothing
            assert rx.try_recv()[0] == 0
            assert tx.try_send(np.full((1,), slots, dtype=np.int32))

    def test_wraparound_soak_over_twice_the_ring_depth(self):
        """Satellite contract: >= 2x slots messages through try_send/try_recv,
        FIFO payload order preserved across every slot-reuse boundary."""
        for slots in (1, 2, 4):
            tx, rx = make_pair(slots=slots)
            n = 2 * slots + 3
            sent = received = 0
            while received < n:
                if sent < n and tx.try_send(np.full((1,), sent, dtype=np.int64)):
                    sent += 1
                out = rx.try_recv()
                if out is not None:
                    assert out[0] == received
                    received += 1
            assert tx._send_seq == rx._recv_seq == n
            assert rx.try_recv() is None

    def test_tampered_seq_field_raises_naming_slot_and_seq(self):
        """Satellite contract: inject a seq mismatch into the slot header;
        the receiver must reject it with slot and seq in the message."""
        tx, rx = make_pair(slots=2)
        tx.send(np.zeros(1, dtype=np.float32))
        struct.pack_into("<I", tx._buf, 4, 99)  # slot 0 header seq field
        with pytest.raises(BackendError, match="out-of-order") as exc:
            rx.try_recv()
        msg = str(exc.value)
        assert "slot 0" in msg and "seq 99" in msg and "expected 1" in msg


class TestShmBarrier:
    def test_single_rank_world_advances_generations(self):
        buf = bytearray(4)
        barrier = ShmBarrier(buf, world=1, rank=0)
        assert barrier.wait() == 1
        assert barrier.wait() == 2

    def test_timeout_names_the_straggler_rank_and_generation(self):
        buf = bytearray(8)
        barrier = ShmBarrier(buf, world=2, rank=0)
        with pytest.raises(BackendError, match="rank 1") as exc:
            barrier.wait(timeout=0.05)
        assert exc.value.rank == 1
        assert "generation 1" in str(exc.value)

    def test_generation_reuse_is_not_satisfied_by_stale_slots(self):
        """Satellite contract: the same slots host generation after
        generation; a slot still holding gen N must read as a straggler
        for gen N+1, never as an arrival."""
        buf = bytearray(8)
        b0 = ShmBarrier(buf, world=2, rank=0)
        b1 = ShmBarrier(buf, world=2, rank=1)
        for gen in (1, 2, 3):
            assert b0.arrive() == gen
            assert b0.peers_ready(gen) == 1  # rank 1 still at gen - 1
            assert b1.arrive() == gen
            assert b0.peers_ready(gen) is None
            assert b1.peers_ready(gen) is None

    def test_wait_interleaves_with_peer_arrivals(self):
        buf = bytearray(8)
        b0 = ShmBarrier(buf, world=2, rank=0)
        b1 = ShmBarrier(buf, world=2, rank=1)
        b1.arrive()
        assert b0.wait(timeout=1.0) == 1  # peer already published gen 1
        b1.arrive()
        assert b0.wait(timeout=1.0) == 2

    def test_buffer_too_small_rejected_at_construction(self):
        with pytest.raises(ValueError, match="too small"):
            ShmBarrier(bytearray(4), world=2, rank=0)


class TestRankTransport:
    def test_exchange_between_threaded_peers(self):
        """Two attached peers all-gather over the creator's segment; each
        records one ``mp.wait`` span for its receives and nothing else."""
        creator = RankTransport.create(world=2)
        record = events.install(EventRecord(rank=0, world=2))
        results = {}

        def run(rank):
            peer = RankTransport(creator.spec, rank)
            try:
                arr = np.full((3, 3), float(rank), dtype=np.float32)
                results[rank] = peer.exchange([0, 1], arr, timeout=10.0,
                                              label="gather")
            finally:
                peer.close()

        try:
            threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            for rank in (0, 1):
                gathered = results[rank]
                assert set(gathered) == {0, 1}
                for src, arr in gathered.items():
                    assert np.array_equal(
                        arr, np.full((3, 3), float(src), dtype=np.float32))
            spans = [(e["name"], e["cat"]) for e in record.events
                     if e["kind"] == "span"]
            assert spans == [("gather wait", "mp.wait")] * 2
        finally:
            events.uninstall()
            creator.close()

    def test_exchange_issue_overlaps_with_local_work(self):
        """An early member's payload is in flight while a late member is
        still busy: the late member's local work overlaps it, and the
        gather still completes with one ``mp.wait`` per peer."""
        creator = RankTransport.create(world=2)
        record = events.install(EventRecord(rank=0, world=2))
        early, late = (RankTransport(creator.spec, r) for r in (0, 1))
        busy = threading.Event()
        results = {}

        def run_early():
            arr = np.full((4,), 0.0, dtype=np.float32)
            results[0] = (early.exchange([0, 1], arr, timeout=10.0), None)

        def run_late():
            assert busy.wait(timeout=10.0)
            arr = np.full((4,), 1.0, dtype=np.float32)
            scratch = arr * 2  # stand-in for overlapped compute
            results[1] = (late.exchange([0, 1], arr, timeout=10.0), scratch)

        try:
            threads = [threading.Thread(target=run_early),
                       threading.Thread(target=run_late)]
            for t in threads:
                t.start()
            # The early member's send leg lands in the late member's ring
            # before the late member has entered the exchange at all.
            deadline = time.monotonic() + 10.0
            while late.ring_occupancy() == 0:
                assert time.monotonic() < deadline, "send leg never landed"
                time.sleep(0.001)
            assert 1 not in results
            busy.set()
            for t in threads:
                t.join(timeout=30.0)
            for rank in (0, 1):
                out, _ = results[rank]
                assert set(out) == {0, 1}
                for src, arr in out.items():
                    assert np.array_equal(
                        arr, np.full((4,), float(src), dtype=np.float32))
            assert np.array_equal(results[1][1], np.full((4,), 2.0, np.float32))
            spans = [e for e in record.events if e["kind"] == "span"]
            # One blocking wait per peer and no in-flight window.
            assert sorted(s["cat"] for s in spans) == ["mp.wait", "mp.wait"]
        finally:
            busy.set()
            events.uninstall()
            early.close()
            late.close()
            creator.close()

    def test_send_recv_and_barrier_between_threaded_peers(self):
        creator = RankTransport.create(world=2)
        received = {}

        def sender():
            peer = RankTransport(creator.spec, 0)
            try:
                peer.barrier_wait(timeout=10.0)
                peer.send(1, np.arange(10, dtype=np.int32), timeout=10.0)
            finally:
                peer.close()

        def receiver():
            peer = RankTransport(creator.spec, 1)
            try:
                peer.barrier_wait(timeout=10.0)
                received["arr"] = peer.recv(0, timeout=10.0)
            finally:
                peer.close()

        try:
            threads = [threading.Thread(target=sender),
                       threading.Thread(target=receiver)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert np.array_equal(received["arr"], np.arange(10, dtype=np.int32))
        finally:
            creator.close()

    def test_wait_spans_recorded_when_timeline_attached(self):
        creator = RankTransport.create(world=2)
        try:
            a = RankTransport(creator.spec, 0)
            b = RankTransport(creator.spec, 1)
            record = events.install(EventRecord(rank=0, world=2))
            try:
                a.send(1, np.zeros(4, dtype=np.float32))
                b.recv(0)
                spans = [e for e in record.events if e["kind"] == "span"]
                assert [s["name"] for s in spans] == ["send->r1", "recv<-r0"]
                assert all(s["cat"] == "mp.wait" for s in spans)
                # No JSONL sink: the protocol kinds were not taken.
                assert {e["kind"] for e in record.events} == {"meta", "span"}
            finally:
                events.uninstall()
                a.close()
                b.close()
        finally:
            creator.close()

    def test_segment_unlinked_after_creator_close(self):
        creator = RankTransport.create(world=2)
        spec = dict(creator.spec)
        creator.close()
        with pytest.raises(BackendError, match="gone"):
            RankTransport(spec, 0)

    def test_spec_without_slots_attaches_with_default_ring(self):
        """Older specs (no "slots" key) keep working via the default."""
        creator = RankTransport.create(world=2)
        try:
            spec = {k: v for k, v in creator.spec.items() if k != "slots"}
            peer = RankTransport(spec, 0)
            assert peer.slots == DEFAULT_SLOTS
            peer.close()
        finally:
            creator.close()

    def test_close_is_idempotent_and_no_leak_across_constructions(self):
        """Repeated create/close cycles never collide or leak segments."""
        names = set()
        for _ in range(10):
            t = RankTransport.create(world=2, capacity=1 << 12)
            names.add(t.spec["name"])
            t.close()
            t.close()  # second close is a no-op
        assert len(names) == 10


class TestClosedTransport:
    def test_calls_after_close_raise_typed_error(self):
        """After ``close()`` (backend shutdown, gang teardown) every entry
        point fails with a BackendError naming the rank and the call, not
        a KeyError or AttributeError on the torn-down state."""
        creator = RankTransport.create(world=2)
        try:
            peer = RankTransport(creator.spec, 1)
            peer.close()
            arr = np.ones(4, dtype=np.float32)
            calls = {
                "send": lambda: peer.send(0, arr, timeout=0.1),
                "recv": lambda: peer.recv(0, timeout=0.1),
                "exchange": lambda: peer.exchange([0, 1], arr, timeout=0.1),
                "barrier_wait": lambda: peer.barrier_wait(timeout=0.1),
                "weights": lambda: peer.weights,
                "grad_slab": lambda: peer.grad_slab(0),
            }
            for what, call in calls.items():
                with pytest.raises(BackendError, match="closed transport") as exc:
                    call()
                assert exc.value.rank == 1 and f"{what}()" in str(exc.value)
        finally:
            creator.close()


#: Header word offsets within a slot (after the u32 status word):
#: seq@4 magic@8 dtype@12 ndim@13 flags@14 crc@16 nbytes@20 shape@28.
HEADER_CORRUPTIONS = {
    "dtype": (12, "<B", 99, "dtype code 99"),
    "ndim": (13, "<B", 9, "ndim 9 exceeds"),
    "unused_shape_word": (28 + 8 * 2, "<Q", 5, "non-zero unused shape words"),
    "nbytes_over_capacity": (20, "<Q", CAPACITY + 1, "exceeds channel capacity"),
    "nbytes_too_small": (20, "<Q", 8, "nbytes 8 does not match"),
    "shape0": (28, "<Q", 3, r"nbytes 24 does not match shape \[3, 3\]"),
}


class TestHeaderValidation:
    @pytest.mark.parametrize("field", sorted(HEADER_CORRUPTIONS))
    def test_corrupted_header_word_raises_corrupt_message(self, field):
        """One damaged layout word per run: the receiver names the mailbox,
        slot and seq instead of failing inside numpy."""
        offset, fmt, value, reason = HEADER_CORRUPTIONS[field]
        tx, rx = make_pair()
        tx.send(np.zeros((2, 3), dtype=np.float32))
        struct.pack_into(fmt, tx._buf, offset, value)
        with pytest.raises(CorruptMessage, match=reason) as exc:
            rx.recv()
        msg = str(exc.value)
        assert "mailbox 0->1" in msg and "slot 0" in msg and "seq 1" in msg

    @pytest.mark.parametrize("shape,dtype", [((2, 3, 4), "float16"), ((), "int64"),
                                             ((0, 5), "float32"), ((7,), "bool")])
    def test_injected_header_corruption_is_restored_and_re_read(self, shape, dtype):
        """A planned header corruption still recovers through the re-read
        path: the restored header passes every layout check."""
        faults.install(faults.FaultPlan({"retry_budget": 3, "faults": [
            {"kind": "corrupt", "src": 0, "dst": 1, "seq": 1,
             "field": "header"}]}))
        try:
            tx, rx = make_pair()
            arr = np.arange(int(np.prod(shape))).reshape(shape).astype(dtype)
            tx.send(arr)
            out = rx.recv()
            assert faults.active().injected["corrupt"] == 1
            assert out.dtype == arr.dtype and np.array_equal(out, arr)
            tx.send(arr)  # the ring carries on past the re-read message
            assert np.array_equal(rx.recv(), arr)
        finally:
            faults.uninstall()


class TestStatePlane:
    """Weights arena + gradient slabs behind the mailbox mesh."""

    @staticmethod
    def params():
        from repro.nn import Parameter
        return [("w", Parameter(np.arange(6, dtype=np.float32).reshape(2, 3))),
                ("b", Parameter(np.zeros(3, dtype=np.float64))),
                ("s", Parameter(np.float32(7.0)))]

    def test_mailboxes_do_not_move_when_state_is_added(self):
        """DYN004 model-checks the mailbox/barrier layout; the state plane
        must sit behind it, not shift it."""
        bare = RankTransport.create(world=2)
        full = RankTransport.create(world=2, state=self.params(),
                                    grad_slabs=2)
        try:
            assert full._mesh_end() == bare._mesh_end() == bare._segment_size()
            assert full._segment_size() == (
                full._mesh_end() + 3 * full.spec["state_bytes"])
            for _, offset, _, _ in full.spec["state"]:
                assert offset % 64 == 0
            peer = RankTransport(full.spec, 1)
            try:
                zero = RankTransport(full.spec, 0)
                try:
                    zero.send(1, np.ones(4, dtype=np.float32), timeout=5.0)
                    assert peer.recv(0, timeout=5.0).sum() == 4.0
                finally:
                    zero.close()
            finally:
                peer.close()
        finally:
            bare.close()
            full.close()

    def test_ranks_read_what_the_creator_wrote_and_cannot_write_it(self):
        creator = RankTransport.create(world=2, state=self.params(),
                                       grad_slabs=2)
        rank = RankTransport(creator.spec, 1)
        try:
            for name, p in self.params():
                np.copyto(creator.weights[name], p.data + 1)
            for name, p in self.params():
                got = rank.weights[name]
                assert got.shape == p.data.shape and got.dtype == p.data.dtype
                assert np.array_equal(got, p.data + 1)
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0
            del got  # a view still out would make close() refuse
            # Slabs are writable from a rank, private per gang, and apart
            # from the weights arena.
            rank.grad_slab(1)["w"][...] = 5.0
            assert (creator.grad_slab(1)["w"] == 5.0).all()
            assert (creator.grad_slab(0)["w"] == 0.0).all()
            assert np.array_equal(creator.weights["w"],
                                  self.params()[0][1].data + 1)
        finally:
            rank.close()
            creator.close()
        assert rank.closed and creator.closed
