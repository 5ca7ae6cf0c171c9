"""DYN003: the offline happens-before replay over hand-built event logs.

Each test constructs a small synthetic log with the :class:`_LogBuilder`
below (same shape as the events :mod:`repro.parallel.backend.events`
records) and asserts the replay either passes or produces a finding that
names the rank / mailbox / slot / seq involved — the mutation-evidence
contract from ``.github/scripts/race_replay.py``'s docstring.  ``TestMain``
drives the script's command line on recorded files.
"""

from repro.parallel.backend.events import EventRecord as ConcurrencyLog
from tests.parallel.helpers import race_replay

run_race_check = race_replay.run_race_check
run_race_check_on_path = race_replay.run_race_check_on_path


class _LogBuilder:
    """Synthesizes per-rank event streams with a shared monotone clock."""

    def __init__(self, world):
        self.world = world
        self._t = 0.0
        self._idx = {r: 0 for r in range(world)}
        self.events = []
        for r in range(world):
            self.ev(r, "meta", world=world)

    def ev(self, rank, kind, t=None, **fields):
        self._t += 1e-6
        event = {"kind": kind, "rank": rank, "idx": self._idx[rank],
                 "t": self._t if t is None else t, **fields}
        self._idx[rank] += 1
        self.events.append(event)
        return event


def _send(log, seq, slot, src=0, dst=1, **kw):
    return log.ev(src, "send", src=src, dst=dst, slot=slot, seq=seq, **kw)


def _recv(log, seq, slot, src=0, dst=1, got_seq=None, **kw):
    return log.ev(dst, "recv", src=src, dst=dst, slot=slot, seq=seq,
                  got_seq=seq if got_seq is None else got_seq, **kw)


class TestCleanRuns:
    def test_empty_log_is_itself_a_finding(self):
        (finding,) = run_race_check([])
        assert "empty" in finding and "REPRO_CONC_LOG" in finding

    def test_single_delivery_is_clean(self):
        log = _LogBuilder(2)
        _send(log, 1, 0)
        _recv(log, 1, 0)
        assert run_race_check(log.events) == []

    def test_wraparound_with_proper_draining_is_clean(self):
        # slots=2: seq 3 reuses slot 0, legal because seq 1 was drained
        # (and stamped) before the rewrite.
        log = _LogBuilder(2)
        _send(log, 1, 0)
        _send(log, 2, 1)
        _recv(log, 1, 0)
        _send(log, 3, 0)
        _recv(log, 2, 1)
        _recv(log, 3, 0)
        assert run_race_check(log.events) == []

    def test_barrier_and_steps_are_clean(self):
        log = _LogBuilder(2)
        for r in (0, 1):
            log.ev(r, "barrier_arrive", gen=1)
        for r in (0, 1):
            log.ev(r, "barrier_depart", gen=1)
        log.ev(0, "step_end", step=0)
        log.ev(1, "step_end", step=0)
        assert run_race_check(log.events) == []


class TestFrameChecks:
    def test_missing_rank_is_reported(self):
        log = _LogBuilder(1)
        log.events[0]["world"] = 3  # rank 0 claims world=3; ranks 1,2 silent
        (finding,) = run_race_check(log.events)
        assert "rank(s) [1, 2]" in finding

    def test_index_gap_means_truncated_log(self):
        log = _LogBuilder(1)
        log.ev(0, "step_end", step=0)
        log.events[-1]["idx"] = 5
        findings = run_race_check(log.events)
        assert any("index gap" in f for f in findings)


class TestChannelAccounting:
    def test_stale_got_seq_names_mailbox_slot_and_seqs(self):
        log = _LogBuilder(2)
        _send(log, 1, 0)
        _recv(log, 1, 0, got_seq=99)
        findings = run_race_check(log.events)
        assert any("stale message" in f and "0->1" in f and "slot 0" in f
                   and "99" in f for f in findings)

    def test_phantom_recv_without_send(self):
        log = _LogBuilder(2)
        _recv(log, 1, 0)
        findings = run_race_check(log.events)
        assert any("no send committed" in f for f in findings)

    def test_lost_in_flight_message(self):
        log = _LogBuilder(2)
        _send(log, 1, 0)
        findings = run_race_check(log.events)
        assert any("never received" in f and "seq [1]" in f for f in findings)

    def test_slot_overwrite_when_previous_occupant_never_drained(self):
        # slots=1: seq 2 rewrites slot 0 but seq 1 was never received.
        log = _LogBuilder(2)
        _send(log, 1, 0)
        _send(log, 2, 0)
        _recv(log, 2, 0)
        findings = run_race_check(log.events)
        assert any("slot overwrite" in f and "seq 2" in f
                   and "seq 1 was never drained" in f for f in findings)

    def test_wall_order_violation_on_delivery_edge(self):
        # The recv is stamped *before* the send that supposedly fed it —
        # the interleaving a dropped seq/status check produces.
        log = _LogBuilder(2)
        _send(log, 1, 0, t=5.0)
        _recv(log, 1, 0, t=1.0)
        findings = run_race_check(log.events)
        assert any("happens-before violation" in f and "delivery" in f
                   for f in findings)


class TestBarrierAccounting:
    def test_departure_without_peer_arrival_is_stale_generation(self):
        log = _LogBuilder(2)
        log.ev(0, "barrier_arrive", gen=1)
        log.ev(0, "barrier_depart", gen=1)
        findings = run_race_check(log.events)
        assert any("rank 1 never arrived" in f and "stale generation" in f
                   for f in findings)

    def test_generation_must_advance_by_exactly_one(self):
        log = _LogBuilder(1)
        log.ev(0, "barrier_arrive", gen=2)
        findings = run_race_check(log.events)
        assert any("must advance" in f for f in findings)

    def test_departure_before_peer_arrival_violates_wall_order(self):
        log = _LogBuilder(2)
        log.ev(0, "barrier_arrive", gen=1, t=1.0)
        log.ev(1, "barrier_arrive", gen=1, t=9.0)
        log.ev(0, "barrier_depart", gen=1, t=2.0)  # before rank 1 arrived
        log.ev(1, "barrier_depart", gen=1, t=10.0)
        findings = run_race_check(log.events)
        assert any("happens-before violation" in f and "barrier" in f
                   for f in findings)


class TestGraphStructure:
    def test_contradictory_ordering_claims_form_a_cycle(self):
        # Each rank receives the other's message *before* sending its own:
        # delivery edges + program order close a cycle.
        log = _LogBuilder(2)
        log.ev(1, "recv", src=0, dst=1, slot=0, seq=1, got_seq=1)
        log.ev(0, "recv", src=1, dst=0, slot=0, seq=1, got_seq=1)
        log.ev(0, "send", src=0, dst=1, slot=0, seq=1)
        log.ev(1, "send", src=1, dst=0, slot=0, seq=1)
        findings = run_race_check(log.events)
        assert any("cycle" in f for f in findings)


class TestPathLoading:
    def test_missing_path_is_a_finding_not_a_crash(self, tmp_path):
        (finding,) = run_race_check_on_path(tmp_path / "nope")
        assert "cannot load" in finding

    def test_real_log_file_roundtrip(self, tmp_path):
        log = ConcurrencyLog(rank=0, world=1, path=tmp_path / "conc-rank0.jsonl")
        log.emit("step_end", step=0)
        log.flush()
        assert run_race_check_on_path(tmp_path) == []


class TestMain:
    def test_missing_log_is_a_dyn003_finding(self, tmp_path, capsys):
        assert race_replay.main([str(tmp_path / "nope")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("DYN003") and "cannot load" in out

    def test_clean_recorded_log_exits_zero(self, tmp_path, capsys):
        log = ConcurrencyLog(rank=0, world=1, path=tmp_path / "conc-rank0.jsonl")
        log.emit("step_end", step=0)
        log.flush()
        assert race_replay.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == "clean\n"

    def test_corrupt_log_names_the_race(self, tmp_path, capsys):
        log = ConcurrencyLog(rank=0, world=2, path=tmp_path / "conc-rank0.jsonl")
        log.emit("send", src=0, dst=1, slot=0, seq=1)
        log.flush()  # sent, never received; rank 1 logged nothing
        assert race_replay.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DYN003" in out and "never" in out
