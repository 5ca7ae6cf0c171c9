"""DYN003: offline happens-before race detection over concurrency logs.

Input is the rank event record written by
:mod:`repro.parallel.backend.events` while a real run executes — one
``send``/``recv`` per ring-slot commit and ``barrier_arrive``/``depart``
per generation.  Collectives are blocking calls built from those sends
and receives, so they need no events of their own.  The checker replays
the log and verifies the transport's claimed synchronization actually
ordered the run:

1. **Happens-before graph.**  Nodes are events; edges are (a) per-rank
   program order, (b) message delivery ``send(c, seq) → recv(c, seq)``,
   (c) slot reuse ``recv(c, seq) → send(c, seq')`` for the next send into
   the same ring slot (the sender may only overwrite a slot its receiver
   drained), and (d) barrier ordering — every ``arrive(g)`` precedes
   every ``depart(g)``.  A cycle means the claimed ordering is
   self-contradictory.
2. **Vector clocks.**  Each event's clock is the pointwise max of its
   predecessors', bumped in its own rank's component.  Conflicting
   accesses to the same ring slot (a write and the read that frees it,
   or two writes) that the clocks leave *concurrent* are races.
3. **Wall-order consistency.**  ``time.monotonic`` is one system-wide
   clock on Linux, so for every cross-rank edge ``u → v`` the checker
   also demands ``t(u) ≤ t(v)``: a send committed *after* the recv that
   supposedly observed it, or a barrier departure *before* a peer's
   arrival, is a real interleaving the synchronization failed to
   prevent — exactly the bug class a dropped seq check or a broken
   barrier comparison produces.
4. **Protocol accounting.**  Sequence numbers per channel must be dense
   and in order (``got_seq`` ≠ expected ⇒ a stale message was accepted);
   every sent message must be received by the end of the log — with one
   carve-out for fault injection: a seq may carry several send events as
   long as all but the last are marked ``dropped`` (the transport's
   bounded resend), otherwise it is a double publish; barrier
   generations advance by exactly one per rank with all ranks present.

All findings are strings naming the rank / mailbox / slot / seq (or
generation) involved; the CLI surfaces them as ``DYN003``.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["run_race_check", "run_race_check_on_path"]

#: Tolerance for cross-rank monotonic-clock comparisons.  The clock is
#: shared, but events are stamped *after* their commit, so a zero
#: tolerance is correct; kept as a named constant for exotic platforms.
_CLOCK_EPS_S = 0.0


def _key(event: dict) -> tuple[int, int]:
    return (event["rank"], event["idx"])


class _Replay:
    """One replay: events, happens-before edges, and accumulated findings."""

    def __init__(self, events: list[dict]):
        self.findings: list[str] = []
        self.by_rank: dict[int, list[dict]] = defaultdict(list)
        for e in events:
            self.by_rank[e["rank"]].append(e)
        self.events: dict[tuple[int, int], dict] = {}
        self.edges: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        self.world: int | None = None

    # -- construction ---------------------------------------------------
    def check_frames(self) -> None:
        worlds = set()
        for rank, seq in sorted(self.by_rank.items()):
            seq.sort(key=lambda e: e["idx"])
            for pos, e in enumerate(seq):
                if e["idx"] != pos:
                    self.findings.append(
                        f"rank {rank}: event index gap at idx {e['idx']} "
                        f"(expected {pos}) — truncated or interleaved log"
                    )
                    break
            if not seq or seq[0]["kind"] != "meta":
                self.findings.append(f"rank {rank}: log has no meta header")
            else:
                worlds.add(seq[0]["world"])
            for e in seq:
                self.events[_key(e)] = e
        if len(worlds) > 1:
            self.findings.append(f"ranks disagree on world size: {sorted(worlds)}")
        self.world = max(worlds) if worlds else len(self.by_rank)
        missing = set(range(self.world)) - set(self.by_rank)
        if missing:
            self.findings.append(
                f"no events from rank(s) {sorted(missing)} (world {self.world}) "
                "— worker died before flushing, or log directory is incomplete"
            )

    def add_edge(self, u: dict, v: dict, why: str) -> None:
        self.edges[_key(u)].append(_key(v))
        # Wall-order consistency: the sync that justifies this edge must
        # have actually run in this order (cross-rank only; same-rank
        # program order is trivially consistent).
        if u["rank"] != v["rank"] and u["t"] > v["t"] + _CLOCK_EPS_S:
            self.findings.append(
                f"happens-before violation ({why}): rank {u['rank']} "
                f"{u['kind']} idx {u['idx']} is required to precede rank "
                f"{v['rank']} {v['kind']} idx {v['idx']} but committed "
                f"{(u['t'] - v['t']) * 1e6:.1f} us after it"
            )

    def program_order(self) -> None:
        for seq in self.by_rank.values():
            for u, v in zip(seq, seq[1:]):
                self.edges[_key(u)].append(_key(v))

    def channel_edges(self) -> None:
        # Fault injection legitimately re-sends a dropped seq, so a seq can
        # have several send events.  Every attempt but the last must carry
        # the transport's ``dropped``/``retry`` marker (it never flipped the
        # slot to FULL); only the final attempt publishes, so only it takes
        # part in delivery, unreceived-message and slot-reuse accounting.
        attempts: dict[tuple[int, int], dict[int, list[dict]]] = defaultdict(
            lambda: defaultdict(list))
        recvs: dict[tuple[int, int], dict[int, dict]] = defaultdict(dict)
        for e in self.events.values():
            if e["kind"] == "send":
                attempts[(e["src"], e["dst"])][e["seq"]].append(e)
            elif e["kind"] == "recv":
                recvs[(e["src"], e["dst"])][e["seq"]] = e

        sends: dict[tuple[int, int], dict[int, dict]] = defaultdict(dict)
        for chan, by_seq in attempts.items():
            src, dst = chan
            for seq, tries in by_seq.items():
                tries.sort(key=_key)
                for extra in tries[:-1]:
                    if not (extra.get("dropped") or extra.get("retry") is not None):
                        self.findings.append(
                            f"double publish on mailbox {src}->{dst} seq {seq}: "
                            f"rank {extra['rank']} committed it at idx "
                            f"{extra['idx']} and again at idx "
                            f"{tries[-1]['idx']} with no dropped/retry marker"
                        )
                if tries[-1].get("dropped"):
                    # The final attempt was itself dropped: the budget ran
                    # out and the send raised, so nothing was published.
                    continue
                sends[chan][seq] = tries[-1]

        for chan in sorted(set(sends) | set(recvs)):
            src, dst = chan
            tx, rx = sends[chan], recvs[chan]
            for seq, r in sorted(rx.items()):
                if r.get("got_seq", seq) != seq:
                    self.findings.append(
                        f"rank {r['rank']} accepted a stale message on mailbox "
                        f"{src}->{dst} slot {r['slot']}: seq {r['got_seq']} "
                        f"where {seq} was expected"
                    )
                if seq not in tx:
                    self.findings.append(
                        f"rank {r['rank']} received seq {seq} on mailbox "
                        f"{src}->{dst} slot {r['slot']} that no send committed"
                    )
                else:
                    self.add_edge(tx[seq], r, f"delivery {src}->{dst} seq {seq}")
            unreceived = sorted(set(tx) - set(rx))
            if unreceived:
                self.findings.append(
                    f"message(s) seq {unreceived} on mailbox {src}->{dst} were "
                    f"sent but never received (lost in flight at shutdown)"
                )
            # Slot reuse: the sender may only rewrite a slot after the
            # receiver drained the previous occupant.
            by_slot: dict[int, list[dict]] = defaultdict(list)
            for seq, s in tx.items():
                by_slot[s["slot"]].append(s)
            for slot, slot_sends in by_slot.items():
                slot_sends.sort(key=lambda e: e["seq"])
                for prev, nxt in zip(slot_sends, slot_sends[1:]):
                    freeing = rx.get(prev["seq"])
                    if freeing is None:
                        self.findings.append(
                            f"slot overwrite on mailbox {src}->{dst} slot "
                            f"{slot}: rank {nxt['rank']} sent seq {nxt['seq']} "
                            f"but seq {prev['seq']} was never drained"
                        )
                    else:
                        self.add_edge(
                            freeing, nxt,
                            f"slot reuse {src}->{dst} slot {slot} "
                            f"seq {prev['seq']}->{nxt['seq']}",
                        )

    def barrier_edges(self) -> None:
        arrives: dict[int, dict[int, dict]] = defaultdict(dict)  # gen -> rank -> e
        departs: dict[int, dict[int, dict]] = defaultdict(dict)
        for rank, seq in sorted(self.by_rank.items()):
            gen = 0
            for e in seq:
                if e["kind"] == "barrier_arrive":
                    if e["gen"] != gen + 1:
                        self.findings.append(
                            f"rank {rank} arrived at barrier generation "
                            f"{e['gen']} after generation {gen} (must advance "
                            "by exactly one)"
                        )
                    gen = e["gen"]
                    arrives[e["gen"]][rank] = e
                elif e["kind"] == "barrier_depart":
                    departs[e["gen"]][rank] = e
        for gen, ranks in sorted(departs.items()):
            for rank, d in sorted(ranks.items()):
                for peer in range(self.world or 0):
                    a = arrives[gen].get(peer)
                    if a is None:
                        self.findings.append(
                            f"rank {rank} departed barrier generation {gen} "
                            f"but rank {peer} never arrived — stale generation "
                            "observed"
                        )
                    else:
                        self.add_edge(a, d, f"barrier generation {gen}")

    # -- vector clocks ---------------------------------------------------
    def vector_clocks(self) -> dict[tuple[int, int], dict[int, int]] | None:
        """Kahn topological pass computing one clock per event.

        Returns None (with a finding) when the happens-before graph has a
        cycle — mutually contradictory ordering claims.
        """
        indeg: dict[tuple[int, int], int] = {k: 0 for k in self.events}
        for u, vs in self.edges.items():
            for v in vs:
                if v in indeg:
                    indeg[v] += 1
        ready = sorted(k for k, d in indeg.items() if d == 0)
        clocks: dict[tuple[int, int], dict[int, int]] = {}
        order: list[tuple[int, int]] = []
        preds: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for u, vs in self.edges.items():
            for v in vs:
                preds[v].append(u)
        while ready:
            k = ready.pop()
            order.append(k)
            vc: dict[int, int] = {}
            for p in preds[k]:
                for r, c in clocks[p].items():
                    if c > vc.get(r, -1):
                        vc[r] = c
            vc[k[0]] = k[1]
            clocks[k] = vc
            for v in self.edges.get(k, ()):
                if v in indeg:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
        if len(order) != len(self.events):
            stuck = sorted(set(self.events) - set(order))[:4]
            names = ", ".join(
                f"rank {r} idx {i} ({self.events[(r, i)]['kind']})"
                for r, i in stuck
            )
            self.findings.append(
                f"happens-before graph has a cycle through {names} — the "
                "log's ordering claims are self-contradictory"
            )
            return None
        return clocks

    @staticmethod
    def _ordered(clocks, u: dict, v: dict) -> bool:
        """Whether ``u`` happens-before ``v`` under the computed clocks."""
        cu, cv = clocks[_key(u)], clocks[_key(v)]
        return cv.get(u["rank"], -1) >= cu[u["rank"]]

    def slot_race_scan(self, clocks) -> None:
        """Conflicting same-slot accesses must be totally HB-ordered."""
        by_slot: dict[tuple[int, int, int], list[dict]] = defaultdict(list)
        for e in self.events.values():
            # Dropped send attempts never wrote the slot — the fault was
            # taken before the commit — so they are not slot accesses.
            if e["kind"] in ("send", "recv") and not e.get("dropped"):
                by_slot[(e["src"], e["dst"], e["slot"])].append(e)
        for (src, dst, slot), accesses in sorted(by_slot.items()):
            accesses.sort(key=lambda e: (e["seq"], e["kind"] == "recv"))
            for u, v in zip(accesses, accesses[1:]):
                if not self._ordered(clocks, u, v):
                    self.findings.append(
                        f"data race on mailbox {src}->{dst} slot {slot}: "
                        f"rank {u['rank']} {u['kind']} seq {u['seq']} and "
                        f"rank {v['rank']} {v['kind']} seq {v['seq']} are "
                        "concurrent (no happens-before path orders them)"
                    )


def run_race_check(events: list[dict]) -> list[str]:
    """Replay a concurrency log; returns one message per finding.

    An empty list means the recorded run was race-free: every conflicting
    slot access and barrier generation was ordered by the protocol's own
    happens-before edges, and those edges are consistent with observed
    wall order.
    """
    if not events:
        return ["concurrency log is empty — nothing was recorded "
                "(was REPRO_CONC_LOG set for the run?)"]
    replay = _Replay(events)
    replay.check_frames()
    replay.program_order()
    replay.channel_edges()
    replay.barrier_edges()
    clocks = replay.vector_clocks()
    if clocks is not None:
        replay.slot_race_scan(clocks)
    return replay.findings


def run_race_check_on_path(path) -> list[str]:
    """Load a recorded log (file or directory of per-rank files) and check it."""
    from repro.parallel.backend.events import load_events

    try:
        events = load_events(path)
    except (OSError, ValueError) as exc:
        return [f"cannot load concurrency log {path}: {exc}"]
    return run_race_check(events)
