"""The rank event record and its JSONL sink (``REPRO_CONC_LOG``, DYN003's
data source)."""

import json

import numpy as np
import pytest

from repro.parallel.backend import events
from repro.parallel.backend.events import EventRecord, load_events, span_view
from tests.parallel.helpers import race_replay


@pytest.fixture(autouse=True)
def _no_leaked_global_record():
    yield
    events.uninstall()


class TestConcurrencyLog:
    def test_events_get_dense_indices_and_meta_header(self):
        log = EventRecord(rank=2, world=4)
        log.emit("send", src=2, dst=3, slot=0, seq=1)
        log.emit("recv", src=3, dst=2, slot=0, seq=1, got_seq=1)
        assert [e["idx"] for e in log.events] == [0, 1, 2]
        assert log.events[0]["kind"] == "meta"
        assert log.events[0]["world"] == 4
        assert all(e["rank"] == 2 for e in log.events)

    def test_timestamps_are_monotone_within_a_rank(self):
        log = EventRecord(rank=0, world=1)
        for _ in range(10):
            log.emit("step_end", step=0)
        ts = [e["t"] for e in log.events]
        assert ts == sorted(ts)

    def test_flush_appends_incrementally(self, tmp_path):
        path = tmp_path / "conc-rank0.jsonl"
        log = EventRecord(rank=0, world=2, path=path)
        log.flush()
        first = path.read_text().splitlines()
        log.emit("step_end", step=0)
        log.flush()
        log.flush()  # no duplicates on a redundant flush
        lines = path.read_text().splitlines()
        assert len(first) == 1 and len(lines) == 2
        assert json.loads(lines[1])["kind"] == "step_end"

    def test_flush_without_path_is_a_noop(self):
        assert [e["kind"] for e in EventRecord(rank=0, world=1).flush()] == ["meta"]

    def test_flushed_steps_are_forgotten_but_the_file_stays_dense(self, tmp_path):
        """The record holds one step's slice however long the run is."""
        log = EventRecord(rank=0, world=1, path=tmp_path / "conc-rank0.jsonl")
        sizes = []
        for step in range(5):
            log.emit("step_begin", step=step)
            for _ in range(20):
                log.span("recv<-r1", "mp.wait", 0.0)
            log.emit("step_end", step=step)
            sizes.append(len(log.events))
            assert len(log.flush()) == sizes[-1]
            assert log.events == []
        assert max(sizes) == 23  # meta + one step; never 5 steps' worth
        loaded = load_events(tmp_path)
        assert [e["idx"] for e in loaded] == list(range(1 + 5 * 22))
        assert race_replay.run_race_check_on_path(tmp_path) == []

    def test_span_is_stamped_at_its_end_and_carries_its_duration(self):
        log = EventRecord(rank=0, world=1)
        before = log.emit("step_begin", step=0)
        log.span("F0", "mp.phase", before["t"])
        span = log.events[-1]
        assert span["kind"] == "span" and span["idx"] == 2
        assert span["t"] >= before["t"]  # idx order is t order
        assert span["dur"] == span["t"] - before["t"]


class TestInstall:
    def test_active_is_none_by_default(self):
        assert events.active() is None and events.protocol() is None

    def test_env_gate_off_installs_nothing(self, monkeypatch):
        monkeypatch.delenv(events.ENV_VAR, raising=False)
        log = events.install(EventRecord.from_env(0, world=2))
        assert log.path is None
        # Spans and faults may be taken; the protocol kinds are not.
        assert events.active() is log and events.protocol() is None

    def test_env_gate_on_installs_per_rank_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(events.ENV_VAR, str(tmp_path / "logs"))
        log = events.install(EventRecord.from_env(3, world=4))
        assert events.active() is log and events.protocol() is log
        log.flush()
        assert (tmp_path / "logs" / "conc-rank3.jsonl").exists()


class TestLoadEvents:
    def test_directory_concatenates_all_ranks(self, tmp_path):
        for rank in (0, 1):
            log = EventRecord(rank=rank, world=2,
                              path=tmp_path / f"conc-rank{rank}.jsonl")
            log.emit("step_end", step=0)
            log.flush()
        loaded = load_events(tmp_path)
        assert {e["rank"] for e in loaded} == {0, 1}
        assert len(loaded) == 4  # meta + step_end per rank

    def test_single_file_load(self, tmp_path):
        log = EventRecord(rank=0, world=1, path=tmp_path / "conc-rank0.jsonl")
        log.flush()
        assert len(load_events(tmp_path / "conc-rank0.jsonl")) == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_events(tmp_path / "nope")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_events(tmp_path)


def _ev(rank, kind, t, **fields):
    return {"kind": kind, "rank": rank, "idx": 0, "t": t, **fields}


class TestSpanView:
    EVENTS = [
        _ev(0, "meta", 0.0, world=2),
        _ev(0, "step_begin", 1.0, step=0),
        _ev(0, "send", 1.1, src=0, dst=1, slot=0, seq=1),
        _ev(0, "span", 1.5, name="F0", cat="mp.phase", dur=0.25),
        _ev(1, "step_begin", 2.0, step=0),
        _ev(1, "span", 2.5, name="recv<-r0", cat="mp.wait", dur=0.5),
        _ev(0, "step_end", 1.6, step=0),
        _ev(0, "step_begin", 3.0, step=1),
        _ev(0, "span", 3.5, name="F0", cat="mp.phase", dur=0.125),
    ]

    def test_spans_are_relative_to_the_ranks_own_step_begin(self):
        assert span_view(self.EVENTS) == {
            0: [{"name": "F0", "cat": "mp.phase", "ts_ms": 250.0,
                 "dur_ms": 250.0},
                {"name": "F0", "cat": "mp.phase", "ts_ms": 375.0,
                 "dur_ms": 125.0}],
            1: [{"name": "recv<-r0", "cat": "mp.wait", "ts_ms": 0.0,
                 "dur_ms": 500.0}],
        }
