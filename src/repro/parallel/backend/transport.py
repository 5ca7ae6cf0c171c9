"""Shared-memory rank-to-rank transport with a pickle-free header protocol.

One :class:`RankTransport` owns a single ``multiprocessing.shared_memory``
segment laid out as

- a barrier region: ``world`` aligned u32 generation slots, then
- a full mesh of ``world × world`` directed ring mailboxes (the diagonal
  is unused), each a ring of ``slots`` message slots of
  ``HEADER_SIZE + capacity`` bytes, then
- the state plane: a weights arena and one gradient slab per dp gang, each
  an image of the model's parameters at the spec's ``state`` offsets.

Each directed mailbox is a single-producer/single-consumer ring: message
``seq`` (1-based) lives in slot ``(seq - 1) % slots``.  The sender waits
for its target slot to be ``EMPTY``, writes payload then header, and
flips the slot's ``status`` to ``FULL`` last; the receiver does the
reverse.  A sender therefore only blocks once the receiver lags a full
ring behind — a boundary send completes as soon as the payload is
staged, which is what lets the schedule overlap it with the stage's next
op, and an all-gather (:meth:`RankTransport.exchange`) stages all its
sends before it receives.  Because every ordered rank pair has its own
ring and all ranks execute the same collective sequence, the protocol is
deadlock-free — and every blocking wait carries a deadline so a dead peer
surfaces as a typed :class:`~repro.parallel.backend.base.BackendError`
naming the peer rank, the mailbox, the slot and the message sequence it
was stuck on, never a hang.

Arrays cross the wire as raw bytes plus a fixed struct header (magic,
sequence number, dtype code, shape) — no pickle anywhere on the data
plane, so a corrupted message fails loudly on the magic/seq check, or on
the check of every layout word (dtype, ndim, shape, nbytes), instead of
deserializing garbage.  Payloads are copied exactly once on each side:
directly from the source array into the shm slot, and from the slot into
the freshly allocated result array, through numpy views — no intermediate
``bytes`` staging.

Waits poll with a short spin followed by exponential sleep backoff
(20 µs → 1 ms).  On an oversubscribed host the backoff matters more than
the spin: a rank stuck polling at a fixed 20 µs steals the CPU from the
peer it is waiting on.

Observation: each commit reports to the rank event record
(:mod:`repro.parallel.backend.events`) while a step is observed, which is
what the DYN003 happens-before replay reads; the default is ``None`` and
costs one check per operation.

Chaos seam: the blocking ``send``/``recv`` paths additionally consult the
process-wide fault plan (:mod:`repro.parallel.backend.faults`, armed via
``REPRO_FAULT_PLAN``).  A planned *drop* makes the sender discard its
staged message and resend with exponential backoff; a planned *corrupt*
flips bytes in the slot so the receiver's integrity checks
(magic/seq/CRC) fire, and the receiver re-reads after restoring the
slot.  Both are bounded by the plan's retry budget, after which the
transport raises a typed :class:`BackendError` naming the rank and
mailbox — an injected fault can slow a run down but never hang it.
Whenever a plan is installed, senders also stamp a CRC32 of the payload
into the header (``_FLAG_CRC``) so corruption is detectable end-to-end;
without a plan the flag stays clear and the wire format is byte-for-byte
the healthy-path protocol.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from multiprocessing import shared_memory

import numpy as np

from repro.parallel.backend import events, faults
from repro.parallel.backend.base import BackendError
from repro.tensor import pool

__all__ = ["ShmChannel", "ShmBarrier", "RankTransport", "CorruptMessage",
           "HEADER_SIZE", "DEFAULT_CAPACITY", "DEFAULT_SLOTS",
           "DEFAULT_TIMEOUT_S"]

#: Per-slot payload capacity (bytes). Activations in the scaled-down
#: models are tens of KB; 1 MiB leaves generous headroom.
DEFAULT_CAPACITY = 1 << 20

#: Ring depth per directed mailbox. Deep enough that a stage can issue a
#: few microbatches of boundary sends ahead of the consumer; shm pages
#: are only materialized when touched, so idle depth costs nothing.
DEFAULT_SLOTS = 4

#: Default deadline for any single blocking wait.
DEFAULT_TIMEOUT_S = 60.0

#: Brief spin before sleeping: covers the common case where the peer is
#: mid-flip on another core without burning CPU the peer may need.
_SPIN = 8

#: Sleep backoff bounds while waiting on a status flag.
_POLL_MIN_S = 20e-6
_POLL_MAX_S = 1e-3

_MAGIC = 0x5250_4F43  # "RPOC"
_EMPTY, _FULL = 0, 1

#: Full slot header: status(u32) seq(u32) magic(u32) dtype(u8) ndim(u8)
#: flags(u16) crc(u32) nbytes(u64) shape(8 × u64)
_HEADER = struct.Struct("<IIIBBHIQ8Q")
HEADER_SIZE = _HEADER.size

#: Everything after the status word. Packed separately so writing the
#: header never touches the status flag the receiver is polling.
_HEADER_BODY = struct.Struct("<IIBBHIQ8Q")

#: Header flag: the crc field holds a CRC32 of the payload bytes. Only
#: set when a fault plan is installed — the healthy path skips both the
#: checksum computation and the verify so bench medians are unaffected.
_FLAG_CRC = 1

_DTYPES: tuple[np.dtype, ...] = tuple(
    np.dtype(d) for d in ("float32", "float16", "float64", "int32", "int64", "uint8", "bool")
)
_DTYPE_CODE = {d: i for i, d in enumerate(_DTYPES)}
_MAX_NDIM = 8

#: State-plane arrays start on cache-line boundaries.
_STATE_ALIGN = 64


def _now() -> float:
    return time.monotonic()


class CorruptMessage(BackendError):
    """A message failed an integrity check (magic, sequence, header layout
    or CRC).

    Subclass of :class:`BackendError` so existing typed-error handling is
    unaffected; distinguished so the receiver's bounded re-read loop can
    retry integrity failures without masking genuine protocol errors —
    a ``CorruptMessage`` with no injected corruption pending is re-raised
    immediately.
    """


class ShmChannel:
    """One directed single-producer/single-consumer ring mailbox.

    ``buf`` is any writable buffer (a shared-memory slice in production, a
    plain ``bytearray`` in unit tests) of at least ``slots × (HEADER_SIZE
    + capacity)`` bytes, pre-zeroed so every slot starts EMPTY.
    """

    def __init__(self, buf, capacity: int, *, src: int, dst: int,
                 slots: int = DEFAULT_SLOTS):
        if slots <= 0:
            raise ValueError("slots must be positive")
        slot_bytes = HEADER_SIZE + capacity
        if len(buf) < slots * slot_bytes:
            raise ValueError(
                f"channel buffer too small: {len(buf)} < {slots * slot_bytes}"
            )
        self._buf = buf
        self.capacity = capacity
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.src = src
        self.dst = dst
        self._send_seq = 0
        self._recv_seq = 0
        self._pending_restore: tuple | None = None
        # Persistent zero-copy views: one u32 status word and one u8
        # payload window per slot.
        self._status = [
            np.frombuffer(buf, dtype=np.uint32, count=1, offset=i * slot_bytes)
            for i in range(slots)
        ]
        self._payload = [
            np.frombuffer(buf, dtype=np.uint8, count=capacity,
                          offset=i * slot_bytes + HEADER_SIZE)
            for i in range(slots)
        ]

    # -- low-level flag helpers -----------------------------------------
    def _wait_status(self, slot: int, want: int, deadline: float,
                     waiting_on: int, seq: int) -> None:
        status = self._status[slot]
        for _ in range(_SPIN):
            if status[0] == want:
                return
        delay = _POLL_MIN_S
        while status[0] != want:
            if _now() > deadline:
                verb = "drain" if want == _EMPTY else "fill"
                raise BackendError(
                    f"timed out waiting for rank {waiting_on} to {verb} "
                    f"mailbox {self.src}->{self.dst} slot {slot} "
                    f"(message seq {seq})",
                    rank=waiting_on,
                )
            time.sleep(delay)
            delay = min(delay * 2, _POLL_MAX_S)

    # -- protocol steps --------------------------------------------------
    def _check_sendable(self, arr) -> tuple[np.ndarray, int]:
        """Validate ``arr`` for the wire; returns (contiguous array, dtype code)."""
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            # Not ascontiguousarray unconditionally: that would promote 0-d
            # arrays to 1-d and silently change the shape on the wire.
            arr = np.ascontiguousarray(arr)
        code = _DTYPE_CODE.get(arr.dtype)
        if code is None:
            raise BackendError(
                f"unsupported wire dtype {arr.dtype} (mailbox {self.src}->{self.dst})",
                rank=self.src,
            )
        if arr.ndim > _MAX_NDIM:
            raise BackendError(f"ndim {arr.ndim} exceeds header limit {_MAX_NDIM}",
                               rank=self.src)
        if arr.nbytes > self.capacity:
            raise BackendError(
                f"payload of {arr.nbytes} bytes exceeds channel capacity "
                f"{self.capacity}; raise capacity_bytes",
                rank=self.src,
            )
        return arr, code

    def _commit_send(self, arr: np.ndarray, code: int) -> None:
        """Write the next message into its (EMPTY) slot and publish it."""
        seq = self._send_seq + 1
        slot = (seq - 1) % self.slots
        if arr.nbytes:
            self._payload[slot][: arr.nbytes] = arr.reshape(-1).view(np.uint8)
        shape = tuple(arr.shape) + (0,) * (_MAX_NDIM - arr.ndim)
        flags = crc = 0
        if faults.active() is not None:
            flags = _FLAG_CRC
            crc = zlib.crc32(arr.reshape(-1).view(np.uint8)) if arr.nbytes else 0
        _HEADER_BODY.pack_into(
            self._buf, slot * self.slot_bytes + 4, seq, _MAGIC, code,
            arr.ndim, flags, crc, arr.nbytes, *shape,
        )
        self._send_seq = seq
        rec = events.protocol()
        if rec is not None:
            # Stamped *before* the publishing store: the receiver can only
            # observe (and stamp) the message after the FULL flip, so in a
            # correct run t(send event) < t(recv event) always holds —
            # the wall-order invariant the DYN003 replay checks.
            rec.emit("send", src=self.src, dst=self.dst, slot=slot, seq=seq,
                     nbytes=arr.nbytes)
        # Status flips to FULL only after payload and header are in place.
        self._status[slot][0] = _FULL

    def _header_fault(self, code: int, ndim: int, nbytes: int,
                      shape: list[int]) -> str | None:
        """What is wrong with a received header's layout words, or None.

        Every word a receive trusts is checked here, so a damaged header
        raises :class:`CorruptMessage` instead of an ``IndexError`` or a
        broadcasting ``ValueError`` from the copy below."""
        if code >= len(_DTYPES):
            return f"dtype code {code} (known: 0..{len(_DTYPES) - 1})"
        if ndim > _MAX_NDIM:
            return f"ndim {ndim} exceeds header limit {_MAX_NDIM}"
        if any(shape[ndim:]):
            return f"non-zero unused shape words {shape[ndim:]} (ndim {ndim})"
        if nbytes > self.capacity:
            return f"nbytes {nbytes} exceeds channel capacity {self.capacity}"
        want = math.prod(shape[:ndim]) * _DTYPES[code].itemsize
        if nbytes != want:
            return (f"nbytes {nbytes} does not match shape {shape[:ndim]} of "
                    f"{_DTYPES[code]} ({want} bytes)")
        return None

    def _commit_recv(self) -> np.ndarray:
        """Drain the next message from its (FULL) slot and release it."""
        seq = self._recv_seq + 1
        slot = (seq - 1) % self.slots
        (got_seq, magic, code, ndim, flags, crc, nbytes, *shape) = \
            _HEADER_BODY.unpack_from(self._buf, slot * self.slot_bytes + 4)
        if magic != _MAGIC:
            raise CorruptMessage(
                f"bad magic 0x{magic:08x} on mailbox {self.src}->{self.dst} "
                f"slot {slot}",
                rank=self.src,
            )
        if got_seq != seq:
            raise CorruptMessage(
                f"out-of-order message on channel {self.src}->{self.dst} "
                f"slot {slot}: seq {got_seq}, expected {seq}",
                rank=self.src,
            )
        bad = self._header_fault(code, ndim, nbytes, shape)
        if bad is not None:
            raise CorruptMessage(
                f"bad header on mailbox {self.src}->{self.dst} slot {slot} "
                f"(message seq {seq}): {bad}",
                rank=self.src,
            )
        if flags & _FLAG_CRC and nbytes:
            got_crc = zlib.crc32(self._payload[slot][:nbytes])
            if got_crc != crc:
                raise CorruptMessage(
                    f"payload crc mismatch on mailbox {self.src}->{self.dst} "
                    f"slot {slot} (message seq {seq}): expected 0x{crc:08x}, "
                    f"got 0x{got_crc:08x}",
                    rank=self.src,
                )
        out = pool.empty(shape[:ndim], _DTYPES[code])
        if nbytes:
            out.reshape(-1).view(np.uint8)[:] = self._payload[slot][:nbytes]
        self._recv_seq = seq
        rec = events.protocol()
        if rec is not None:
            # Stamped before the EMPTY release for the same reason the
            # send event precedes the FULL flip: the sender's next write
            # into this slot (the slot-reuse edge) can only be stamped
            # after it observes EMPTY, i.e. after this timestamp.
            rec.emit("recv", src=self.src, dst=self.dst, slot=slot, seq=seq,
                     got_seq=got_seq)
        self._status[slot][0] = _EMPTY
        return out

    def occupancy(self) -> int:
        """Number of FULL slots right now (observer-safe, racy by design).

        A pure read of the status words — no protocol state is touched, so
        any attached party can sample ring backlog without perturbing the
        sender/receiver.  The value is a snapshot: slots may flip
        concurrently.
        """
        return sum(int(status[0] == _FULL) for status in self._status)

    # -- fault-injection helpers ----------------------------------------
    def _note_fault(self, kind: str, slot: int, seq: int, attempt: int,
                    start: float) -> None:
        """Record one injected fault: the ``fault`` event says which fault
        fired (the telemetry fold counts them), the ``mp.fault`` span makes
        the retry window visible in the Chrome trace."""
        rec = events.active()
        if rec is not None:
            rec.emit("fault", fault=kind, src=self.src, dst=self.dst,
                     slot=slot, seq=seq, attempt=attempt)
            rec.span(f"fault:{kind} {self.src}->{self.dst} seq {seq}",
                     "mp.fault", start)

    def _inject_corruption(self, slot: int, field: str) -> None:
        """Corrupt the slot in place, remembering how to undo it.

        Payload corruption XOR-flips the first bytes of the payload (only
        meaningful when the sender stamped a CRC — without one the damage
        would be undetectable, so we corrupt the header instead); header
        corruption overwrites the magic word.  The saved original bytes
        let the receiver's retry path restore the slot and re-read.
        """
        off = slot * self.slot_bytes
        (_, _, _, _, flags, _, nbytes, *_shape) = _HEADER_BODY.unpack_from(
            self._buf, off + 4)
        if field == "payload" and (flags & _FLAG_CRC) and nbytes:
            window = self._payload[slot][: min(8, nbytes)]
            saved = window.copy()
            window ^= 0xFF
            self._pending_restore = (slot, None, saved)
        else:
            saved_hdr = bytes(self._buf[off + 8 : off + 12])
            self._buf[off + 8 : off + 12] = b"\xde\xad\xbe\xef"
            self._pending_restore = (slot, saved_hdr, None)

    def _restore_corruption(self) -> bool:
        """Undo a pending injected corruption; False if none was pending."""
        if self._pending_restore is None:
            return False
        slot, saved_hdr, saved_payload = self._pending_restore
        self._pending_restore = None
        if saved_hdr is not None:
            off = slot * self.slot_bytes
            self._buf[off + 8 : off + 12] = saved_hdr
        if saved_payload is not None:
            self._payload[slot][: len(saved_payload)] = saved_payload
        return True

    # -- public API ------------------------------------------------------
    def send(self, arr: np.ndarray, timeout: float = DEFAULT_TIMEOUT_S) -> None:
        arr, code = self._check_sendable(arr)
        seq = self._send_seq + 1
        slot = (seq - 1) % self.slots
        deadline = _now() + timeout
        self._wait_status(slot, _EMPTY, deadline, waiting_on=self.dst, seq=seq)
        plan = faults.active()
        if plan is None:
            self._commit_send(arr, code)
            return
        attempt = 0
        while True:
            spec = plan.take_send_fault(self.src, self.dst, seq)
            if spec is None:
                self._commit_send(arr, code)
                return
            start = _now()
            if spec.kind == "delay":
                # Then back to the plan: every fault planned for this
                # message fires, in list order, before it is committed.
                time.sleep(spec.seconds)
                self._note_fault("delay", slot, seq, attempt, start)
                continue
            # Dropped slot: the staged message is lost before publication;
            # log the lost attempt (marked, so DYN003 pairs the *last*
            # send with the recv) and resend after a backoff.
            rec = events.protocol()
            if rec is not None:
                rec.emit("send", src=self.src, dst=self.dst, slot=slot,
                         seq=seq, dropped=True, retry=attempt)
            self._note_fault("drop", slot, seq, attempt, start)
            if attempt + 1 >= plan.retry_budget:
                raise BackendError(
                    f"message seq {seq} on mailbox {self.src}->{self.dst} "
                    f"slot {slot} dropped {attempt + 1} times; resend budget "
                    f"({plan.retry_budget}) exhausted",
                    rank=self.src,
                )
            time.sleep(min(plan.backoff_s * 2 ** attempt, 0.05))
            attempt += 1

    def recv(self, timeout: float = DEFAULT_TIMEOUT_S) -> np.ndarray:
        seq = self._recv_seq + 1
        slot = (seq - 1) % self.slots
        deadline = _now() + timeout
        self._wait_status(slot, _FULL, deadline, waiting_on=self.src, seq=seq)
        plan = faults.active()
        attempt = 0
        while True:
            if plan is not None:
                spec = plan.take_recv_fault(self.src, self.dst, seq)
                if spec is not None:
                    self._inject_corruption(slot, spec.field)
            try:
                out = self._commit_recv()
                self._pending_restore = None
                return out
            except CorruptMessage as err:
                start = _now()
                restored = self._restore_corruption()
                # Genuine corruption (nothing was injected) is a protocol
                # violation, not a transient — surface it immediately.
                if plan is None or not restored:
                    raise
                self._note_fault("corrupt", slot, seq, attempt, start)
                if attempt + 1 >= plan.retry_budget:
                    raise BackendError(
                        f"message seq {seq} on mailbox "
                        f"{self.src}->{self.dst} still corrupt after "
                        f"{attempt + 1} re-reads (budget "
                        f"{plan.retry_budget}): {err}",
                        rank=self.src,
                    ) from err
                time.sleep(min(plan.backoff_s * 2 ** attempt, 0.05))
                attempt += 1


class ShmBarrier:
    """Generation-counter barrier over ``world`` aligned u32 slots.

    Each arrival bumps the caller's slot to the current generation and
    waits (with a deadline) until every slot has caught up.  Slots start
    at 0, so generation numbering starts at 1.
    """

    def __init__(self, buf, world: int, rank: int):
        if len(buf) < 4 * world:
            raise ValueError(f"barrier buffer too small for world={world}")
        self._buf = buf
        self.world = world
        self.rank = rank
        self._generation = 0

    # -- single-step primitives -----------------------------------------
    def arrive(self) -> int:
        """Publish this rank's arrival at the next generation."""
        self._generation += 1
        rec = events.protocol()
        if rec is not None:
            # Before the publishing store (see ShmChannel._commit_send):
            # a peer can only depart — and stamp its departure — after it
            # observes this slot, so arrivals always timestamp first.
            rec.emit("barrier_arrive", gen=self._generation)
        struct.pack_into("<I", self._buf, 4 * self.rank, self._generation)
        return self._generation

    def peers_ready(self, generation: int) -> int | None:
        """First peer still behind ``generation``, or None when all caught up.

        Non-blocking: one scan of the generation slots; :meth:`wait` polls
        it until every peer has arrived.
        """
        for peer in range(self.world):
            if struct.unpack_from("<I", self._buf, 4 * peer)[0] < generation:
                return peer
        return None

    def wait(self, timeout: float = DEFAULT_TIMEOUT_S) -> int:
        generation = self.arrive()
        deadline = _now() + timeout
        delay = _POLL_MIN_S
        while True:
            straggler = self.peers_ready(generation)
            if straggler is None:
                break
            if _now() > deadline:
                raise BackendError(
                    f"barrier generation {generation} timed out waiting "
                    f"for rank {straggler}",
                    rank=straggler,
                )
            time.sleep(delay)
            delay = min(delay * 2, _POLL_MAX_S)
        rec = events.protocol()
        if rec is not None:
            rec.emit("barrier_depart", gen=generation)
        return generation


class RankTransport:
    """All mailboxes and the barrier for one rank, over one shm segment.

    The parent calls :meth:`create` once (allocating the segment) and
    passes ``spec`` to each worker, which attaches with
    :meth:`RankTransport(spec, rank=...)`.  Only the creator may
    :meth:`unlink`; everyone must :meth:`close`.

    The state plane sits behind the mesh (barrier and ring offsets do not
    depend on it) and has no flags: a region's writer finishes strictly
    before the control message that lets the other side read it.
    """

    def __init__(self, spec: dict, rank: int, *, _created: bool = False):
        self.world = int(spec["world"])
        self.capacity = int(spec["capacity"])
        self.slots = int(spec.get("slots", DEFAULT_SLOTS))
        self.rank = rank
        self.spec = dict(spec)
        self._created = _created
        try:
            self._shm = shared_memory.SharedMemory(name=spec["name"], create=_created,
                                                   size=self._segment_size() if _created else 0)
        except FileNotFoundError:
            raise BackendError(
                f"shared-memory segment {spec['name']!r} is gone (creator closed?)",
                rank=rank,
            ) from None
        # A freshly created POSIX shm segment is zero-filled by the OS, so
        # every slot already reads EMPTY — no explicit memset (which would
        # fault in every page of a mostly idle mesh).
        buf = self._shm.buf
        self.barrier = ShmBarrier(buf[: 4 * self.world], self.world, rank)
        self._channels: dict[tuple[int, int], ShmChannel] = {}
        ring = self.slots * (HEADER_SIZE + self.capacity)
        base = self._barrier_bytes()
        for src in range(self.world):
            for dst in range(self.world):
                if src == dst:
                    continue
                if rank not in (src, dst):
                    continue
                off = base + (src * self.world + dst) * ring
                self._channels[(src, dst)] = ShmChannel(
                    buf[off : off + ring], self.capacity, src=src, dst=dst,
                    slots=self.slots,
                )
        #: State-plane views by region (0 = weights, 1 + g = gang g's slab).
        self._state: dict[int, dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _barrier_bytes(self) -> int:
        # Round the barrier region up to 64 bytes so channel slots start
        # cache-line aligned.
        return (4 * self.world + 63) // 64 * 64

    def _mesh_end(self) -> int:
        ring = self.slots * (HEADER_SIZE + self.capacity)
        return self._barrier_bytes() + self.world * self.world * ring

    def _segment_size(self) -> int:
        regions = 1 + self.spec["grad_slabs"]
        return self._mesh_end() + regions * self.spec["state_bytes"]

    @classmethod
    def create(cls, world: int, capacity: int = DEFAULT_CAPACITY,
               rank: int = -1, slots: int = DEFAULT_SLOTS, *,
               state=(), grad_slabs: int = 0) -> "RankTransport":
        """Allocate the segment (parent side). ``rank=-1``: observer only.
        ``state`` is ``model.named_parameters()``, the state plane's shape."""
        import secrets

        table, offset = [], 0
        for name, p in state:
            table.append((name, offset, p.data.shape, p.data.dtype.str))
            offset += -(-p.data.nbytes // _STATE_ALIGN) * _STATE_ALIGN
        spec = {"name": f"repro-rt-{secrets.token_hex(6)}", "world": world,
                "capacity": capacity, "slots": slots, "state": table,
                "state_bytes": offset, "grad_slabs": grad_slabs}
        return cls(spec, rank, _created=True)

    # ------------------------------------------------------------------
    def _state_views(self, region: int) -> dict[str, np.ndarray]:
        views = self._state.get(region)
        if views is None:
            base = self._mesh_end() + region * self.spec["state_bytes"]
            views = {
                name: np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                                 offset=base + offset)
                for name, offset, shape, dtype in self.spec["state"]
            }
            if region == 0 and not self._created:
                for view in views.values():
                    view.flags.writeable = False
            self._state[region] = views
        return views

    @property
    def weights(self) -> dict[str, np.ndarray]:
        """Parameter name → view of the weights arena; read-only for ranks,
        so an in-place update fails loudly instead of corrupting peers."""
        self._check_open("weights")
        return self._state_views(0)

    def grad_slab(self, gang: int) -> dict[str, np.ndarray]:
        """Parameter name → view of dp gang ``gang``'s gradient slab."""
        self._check_open("grad_slab")
        return self._state_views(1 + gang)

    # ------------------------------------------------------------------
    def send(self, dst: int, arr: np.ndarray, timeout: float = DEFAULT_TIMEOUT_S) -> None:
        self._check_open("send")
        start = _now()
        self._channels[(self.rank, dst)].send(arr, timeout=timeout)
        rec = events.active()
        if rec is not None:
            rec.span(f"send->r{dst}", "mp.wait", start)

    def recv(self, src: int, timeout: float = DEFAULT_TIMEOUT_S) -> np.ndarray:
        self._check_open("recv")
        start = _now()
        out = self._channels[(src, self.rank)].recv(timeout=timeout)
        rec = events.active()
        if rec is not None:
            rec.span(f"recv<-r{src}", "mp.wait", start)
        return out

    def exchange(self, peers: list[int], arr, *,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 label: str | None = None) -> dict:
        """All-gather ``arr`` with ``peers``: stage the sends, then receive.

        ``arr`` is one array, or a tuple of arrays (a compressed message's
        payloads) sent as one mailbox message each; a tuple must fit the
        ring (at most ``slots`` arrays), since every member stages all its
        sends before it receives.  The sends complete as soon as the
        payload lands in each peer's ring (they only block when a ring is
        full), so no two members can wait on each other's send.  The
        receives are one ``mp.wait`` span, ``"{label} wait"``.  Returns
        ``{rank: arr}`` including our own contribution, each peer's in
        ``arr``'s form — the caller reduces in deterministic rank order.
        """
        self._check_open("exchange")
        parts = arr if isinstance(arr, tuple) else (arr,)
        for peer in peers:
            if peer != self.rank:
                for part in parts:
                    self._channels[(self.rank, peer)].send(part, timeout=timeout)
        start = _now()
        out = {self.rank: arr}
        for peer in peers:
            if peer != self.rank:
                got = tuple(self._channels[(peer, self.rank)].recv(timeout=timeout)
                            for _ in parts)
                out[peer] = got if isinstance(arr, tuple) else got[0]
        rec = events.active()
        if rec is not None:
            rec.span(f"{label or f'exchange x{len(peers)}'} wait", "mp.wait", start)
        return out

    def ring_occupancy(self) -> int:
        """FULL-slot count of the fullest mailbox this rank touches.

        Telemetry gauge: sustained high occupancy on an incoming ring
        means this rank is the consumer lagging its producer.  Snapshot
        semantics (see :meth:`ShmChannel.occupancy`).
        """
        return max((ch.occupancy() for ch in self._channels.values()),
                   default=0)

    def barrier_wait(self, timeout: float = DEFAULT_TIMEOUT_S) -> int:
        self._check_open("barrier_wait")
        start = _now()
        gen = self.barrier.wait(timeout=timeout)
        rec = events.active()
        if rec is not None:
            rec.span("barrier", "mp.wait", start)
        return gen

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has detached this transport from its segment."""
        return self._shm is None

    def _check_open(self, what: str) -> None:
        """The one closed-check every entry point runs first: after
        :meth:`close` (backend shutdown, gang teardown after a peer failure)
        a call is a typed error naming this rank, not a ``KeyError`` on the
        torn-down channel map."""
        if self._shm is None:
            raise BackendError(
                f"{what}() on a closed transport (backend shut down)",
                rank=self.rank)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the segment; the creator also unlinks it."""
        if self._shm is None:
            return
        # Drop every exported memoryview before closing, or SharedMemory
        # refuses with BufferError.
        self._channels.clear()
        self._state.clear()
        self.barrier = None
        shm, self._shm = self._shm, None
        try:
            shm.close()
        finally:  # BufferError (a view still out) must not leak the name
            if self._created:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
