"""timed(): median/IQR over warmup+rounds with an injectable clock."""

import pytest

from repro.bench.timing import TimingResult, machine_calibration_ms, timed


class SteppingClock:
    """Returns scripted durations: each call advances by the next delta."""

    def __init__(self, deltas_ms):
        self._deltas = iter(deltas_ms)
        self.t = 0.0

    def __call__(self) -> float:
        self.t += next(self._deltas, 1.0) * 1e-3
        return self.t


class TestTimed:
    def test_median_and_iqr(self):
        # 3 rounds -> 6 clock reads; per-round durations 10, 20, 40 ms.
        clock = SteppingClock([0, 10, 0, 20, 0, 40])
        timing = timed(lambda: "out", warmup=0, rounds=3, clock=clock)
        assert timing.result == "out"
        assert timing.rounds == 3
        assert timing.median_ms == pytest.approx(20.0)
        assert timing.iqr_ms == pytest.approx(15.0)  # p75=30, p25=15

    def test_warmup_rounds_not_timed(self):
        calls = []
        clock = SteppingClock([0, 7, 0, 7])
        timing = timed(lambda: calls.append(1), warmup=2, rounds=2, clock=clock)
        assert len(calls) == 4  # warmup executes fn but records nothing
        assert timing.rounds == 2

    def test_args_passed_through(self):
        timing = timed(lambda a, b=0: a + b, 2, b=3, warmup=0, rounds=1)
        assert timing.result == 5

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ValueError):
            timed(lambda: None, rounds=0)
        with pytest.raises(ValueError):
            timed(lambda: None, warmup=-1)

    def test_as_dict_round_trips(self):
        timing = TimingResult(times_ms=[1.0, 2.0, 3.0], result=None)
        d = timing.as_dict()
        assert d["median"] == 2.0 and d["rounds"] == 3
        assert d["times"] == [1.0, 2.0, 3.0]


class TestMachineCalibration:
    def test_positive_and_repeatable_order_of_magnitude(self):
        a = machine_calibration_ms(rounds=2)
        b = machine_calibration_ms(rounds=2)
        assert a > 0 and b > 0
        assert 0.2 < a / b < 5  # same machine: same ballpark

    def test_is_the_fastest_round_not_the_median(self, monkeypatch):
        """Load can only slow the pinned workload, so one noisy round (or
        most of them) must not move the number that stands for the machine."""
        from repro.bench import timing

        monkeypatch.setattr(
            timing, "timed",
            lambda fn, **kw: TimingResult([5.0, 1.5, 9.0, 7.0], result=None))
        assert machine_calibration_ms() == 1.5
