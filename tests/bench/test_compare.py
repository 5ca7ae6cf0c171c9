"""The drift gate: every metric is deterministic and pinned."""

import copy

import pytest

from repro.bench.compare import drift


def doc(flops=1.0e8, comm=1024, extra_case=None, drop_case=False):
    cases = [
        {
            "id": "backend_step/inproc/tp2pp1/T2",
            "kind": "backend_step",
            "params": {"scheme": "T2", "tp": 2, "pp": 1},
            "deterministic": {"flops": flops,
                              "comm_bytes": {"tp/forward/topk": comm}},
        },
        {
            "id": "sim/tp2pp1/T2",
            "kind": "sim",
            "params": {"scheme": "T2", "tp": 2, "pp": 1},
            "deterministic": {"total_ms": 123.456},
        },
    ]
    if drop_case:
        cases = cases[:1]
    if extra_case:
        cases.append(extra_case)
    return {"schema_version": 2, "cases": cases}


class TestDeterministicGate:
    def test_identical_docs_pass(self):
        assert drift(doc(), doc()) == []

    def test_dropped_metric_fails_gate(self):
        cand = doc()
        del cand["cases"][0]["deterministic"]["flops"]
        assert drift(cand, doc()) == [
            "backend_step/inproc/tp2pp1/T2 :: flops: "
            "baseline=100000000.0 candidate=-"]

    def test_flop_drift_is_a_regression(self):
        assert drift(doc(flops=1.01e8), doc(flops=1.0e8)) == [
            "backend_step/inproc/tp2pp1/T2 :: flops: "
            "baseline=100000000.0 candidate=101000000.0"]

    def test_comm_bytes_drift_is_a_regression(self):
        assert drift(doc(comm=2048), doc(comm=1024)) == [
            "backend_step/inproc/tp2pp1/T2 :: comm_bytes.tp/forward/topk: "
            "baseline=1024 candidate=2048"]

    def test_tiny_float_noise_tolerated(self):
        assert drift(doc(flops=1.0e8 * (1 + 1e-12)), doc(flops=1.0e8)) == []

    def test_wall_clock_field_is_an_unpinned_metric(self):
        """Nothing timed has a place in a pin: a ``wall_ms`` block fails."""
        cand = doc()
        cand["cases"][0]["deterministic"]["wall_ms"] = {"median": 45.0}
        assert drift(cand, doc()) == [
            "backend_step/inproc/tp2pp1/T2 :: wall_ms.median: "
            "baseline=- candidate=45.0"]


class TestCaseSetChanges:
    def test_dropped_case_fails_gate(self):
        assert drift(doc(drop_case=True), doc()) == [
            "sim/tp2pp1/T2 :: -: baseline=case candidate=-"]

    def test_new_case_fails_gate(self):
        extra = {
            "id": "backend_step/inproc/tp4pp1/T2", "kind": "backend_step",
            "params": {"scheme": "T2", "tp": 4, "pp": 1},
            "deterministic": {},
        }
        assert drift(doc(extra_case=extra), doc()) == [
            "backend_step/inproc/tp4pp1/T2 :: -: baseline=- candidate=case"]

    @pytest.mark.parametrize("side", ["candidate", "baseline"])
    def test_duplicate_case_id_raises(self, side):
        dup = doc()
        dup["cases"].append(copy.deepcopy(dup["cases"][1]))
        docs = (dup, doc()) if side == "candidate" else (doc(), dup)
        with pytest.raises(ValueError, match="duplicate case id 'sim/tp2pp1/T2'"):
            drift(*docs)
