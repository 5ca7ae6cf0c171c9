"""DYN002: the closed-form event oracle vs recorded CommEvent streams.

With ``num_microbatches = m`` every site fires ``m`` times on ``batch/m``
rows; the multiset is schedule-independent.  The oracle must scale its
counts and shrink its byte expectations accordingly — and a real
microbatched 1F1B iteration must still diff clean against it.
"""

from collections import Counter

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig
from tests.parallel import event_oracle
from tests.parallel.event_oracle import (
    DEFAULT_LAYOUTS,
    DEFAULT_SCHEMES,
    EventKey,
    check_layout,
    compare_event_streams,
    expected_events,
    observed_events,
    run_spmd_check,
)


@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
@pytest.mark.parametrize("tp,pp", DEFAULT_LAYOUTS)
def test_event_stream_matches_oracle(scheme, tp, pp):
    """Acceptance matrix: {w/o, topk, randomk, quant, ae} × three layouts."""
    assert check_layout(scheme, tp, pp) == []


def test_full_matrix_runner_is_clean():
    assert run_spmd_check() == []


def _key(phase="forward", wire_bytes=128):
    return EventKey("all_reduce", "tp", phase, "none", wire_bytes, 2, 0, "attn")


class TestCompareEventStreams:
    def test_identical_streams_match(self):
        c = Counter({_key(): 2})
        assert compare_event_streams(c, c.copy()) == []

    def test_double_counted_event_detected(self):
        expected = Counter({_key(): 1})
        actual = Counter({_key(): 2})
        (msg,) = compare_event_streams(expected, actual)
        assert "expected 1 event(s), observed 2" in msg

    def test_dropped_backward_detected(self):
        expected = Counter({_key(): 1, _key(phase="backward"): 1})
        actual = Counter({_key(): 1})
        (msg,) = compare_event_streams(expected, actual)
        assert "backward" in msg and "observed 0" in msg

    def test_wrong_bytes_detected_as_two_diffs(self):
        expected = Counter({_key(wire_bytes=128): 1})
        actual = Counter({_key(wire_bytes=96): 1})
        msgs = compare_event_streams(expected, actual)
        assert len(msgs) == 2  # missing the 128-byte event, extra 96-byte one


class TestRegressionsAreCaught:
    """Corrupt a real run's stream and verify the checker notices."""

    def _run(self, scheme="A2", tp=2, pp=2):
        model_cfg = TransformerConfig(vocab_size=60, max_seq_len=16, hidden=32,
                                      num_layers=4, num_heads=4, dropout=0.0)
        config = ModelParallelConfig(model_cfg, tp=tp, pp=pp, scheme=scheme)
        model = ModelParallelBertClassifier(config)
        ids = np.random.default_rng(0).integers(0, 60, size=(2, 8))
        model.loss(ids, np.zeros(2, dtype=np.int64)).backward()
        return expected_events(config, 2, 8), model.tracker

    def test_injected_duplicate_event_flagged(self):
        expected, tracker = self._run()
        tracker.record(tracker.events[0])  # double-count regression
        assert compare_event_streams(expected, observed_events(tracker))

    def test_removed_event_flagged(self):
        expected, tracker = self._run()
        tracker.events.pop()  # dropped-message regression
        assert compare_event_streams(expected, observed_events(tracker))


def config_for(scheme="A2", tp=2, pp=2, schedule="gpipe", m=1):
    mc = TransformerConfig(vocab_size=60, max_seq_len=16, hidden=32,
                           num_layers=4, num_heads=4, dropout=0.0)
    return ModelParallelConfig(mc, tp=tp, pp=pp, scheme=scheme, seed=0,
                               pipeline_schedule=schedule, num_microbatches=m)


class TestExpectedEventsMicrobatched:
    @pytest.mark.parametrize("scheme", ["w/o", "T2", "Q2", "A2"])
    def test_counts_scale_and_bytes_shrink_to_microbatch(self, scheme):
        """m microbatches of batch/m rows = the m=1 multiset with every
        count multiplied by m (same keys: batch/m rows each)."""
        single = expected_events(config_for(scheme), batch=2, seq=8)
        split = expected_events(config_for(scheme, m=2), batch=4, seq=8)
        assert set(split) == set(single)
        for key, count in single.items():
            assert split[key] == 2 * count

    def test_schedule_does_not_change_the_multiset(self):
        gpipe = expected_events(config_for(m=4, schedule="gpipe"), 8, 8)
        onefb = expected_events(config_for(m=4, schedule="1f1b"), 8, 8)
        assert gpipe == onefb

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            expected_events(config_for(m=3), batch=4, seq=8)


class TestMicrobatchedRunsDiffClean:
    @pytest.mark.parametrize("scheme,tp,pp,seq", [
        ("A2", 2, 2, 8), ("Q2", 1, 2, 8), ("R2", 2, 2, 8), ("w/o", 1, 2, 8),
        ("w/o", 1, 2, 9),  # off the default sequence length
    ], ids=["A2-2-2", "Q2-1-2", "R2-2-2", "w/o-1-2", "w/o-1-2-seq9"])
    def test_1f1b_m2_cell_is_clean(self, scheme, tp, pp, seq):
        assert check_layout(scheme, tp, pp, batch=4, seq=seq, schedule="1f1b",
                            num_microbatches=2) == []

    def test_event_count_regression_is_flagged(self, monkeypatch):
        """Drop one expected event: the diff must surface it with the
        schedule/m cell in the message."""
        real = event_oracle.expected_events

        def doctored(config, batch, seq):
            exp = real(config, batch, seq)
            key = next(iter(exp))
            exp[key] -= 1
            return exp

        monkeypatch.setattr(event_oracle, "expected_events", doctored)
        problems = event_oracle.check_layout("w/o", 1, 2, batch=4, schedule="1f1b",
                                             num_microbatches=2)
        assert problems and "schedule=1f1b m=2" in problems[0]
