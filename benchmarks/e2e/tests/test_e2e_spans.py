"""Percentile rule and span self-time arithmetic."""

import numpy as np
import pytest

import spans as sp


def test_percentile_rule_is_linear_between_order_statistics():
    # rank (n-1)*q/100 = 9.5 -> halfway between the 10th and 11th of 11
    assert np.percentile(list(range(11)), 95) == pytest.approx(9.5)
    assert np.percentile([40.0, 10.0, 30.0, 20.0], 50) == 25.0


def test_p95_needs_200_samples_for_ten_beyond_it():
    assert sp.samples_beyond(200, 95) == 10
    assert sp.samples_beyond(199, 95) == 9
    assert sp.samples_beyond(1000, 99) == 10
    assert sp.samples_beyond(100, 50) == 50


def _span(name, start, end, parent=None, step=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "step": step}


def test_self_time_is_span_minus_children():
    spans = [_span("step", 0.0, 10.0),
             _span("a", 1.0, 4.0, parent=0),
             _span("b", 5.0, 9.0, parent=0),
             _span("a.inner", 2.0, 3.0, parent=1)]
    assert sp.self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    # Two rank timelines run in parallel under one train_step; one of
    # them is stamped past the parent's end.
    spans = [_span("train_step", 0.0, 10.0),
             _span("rank0", 1.0, 6.0, parent=0),
             _span("rank1", 4.0, 12.0, parent=0)]
    assert sp.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parent_and_step():
    tracer = sp.Tracer()
    with tracer.span("step", 7):
        with tracer.span("optim.step"):
            pass
    outer, inner = tracer.spans
    assert (outer["parent"], outer["step"]) == (None, 7)
    assert (inner["parent"], inner["step"]) == (0, 7)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert sp.median_ms_by_name(tracer.spans).keys() == {"step", "optim.step"}


def test_null_tracer_records_nothing():
    with sp.NULL_TRACER.span("step", 0):
        pass
    assert not sp.NULL_TRACER.spans


def test_chrome_trace_has_one_track_per_rank():
    spans = [_span("step", 0.0, 1.0),
             dict(_span("forward", 0.1, 0.5, parent=0), track="rank 0")]
    doc = sp.chrome_trace(spans, {"workload": "w"})
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["tid"] for e in complete} == {0, 1}
    assert complete[0]["args"]["self_us"] == pytest.approx(0.6e6)
