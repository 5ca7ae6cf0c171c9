"""The regression gate: every metric is deterministic and pinned."""

from repro.bench.compare import compare_docs


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
    return {"schema_version": 2, "git_sha": "abc", "cases": cases}


class TestDeterministicGate:
    def test_identical_docs_pass(self):
        result = compare_docs(doc(), doc())
        assert result.ok
        assert not result.regressions
        assert {c.status for c in result.checks} == {"ok"}

    def test_dropped_metric_fails_gate(self):
        cand = doc()
        del cand["cases"][0]["deterministic"]["flops"]
        result = compare_docs(cand, doc())
        assert [c.metric for c in result.regressions] == ["flops"]

    def test_flop_drift_is_a_regression(self):
        result = compare_docs(doc(flops=1.01e8), doc(flops=1.0e8))
        assert not result.ok
        (reg,) = [c for c in result.regressions if c.metric == "flops"]
        assert "baseline" in reg.note

    def test_comm_bytes_drift_is_a_regression(self):
        result = compare_docs(doc(comm=2048), doc(comm=1024))
        assert any(c.metric == "comm_bytes.tp/forward/topk"
                   for c in result.regressions)

    def test_tiny_float_noise_tolerated(self):
        result = compare_docs(doc(flops=1.0e8 * (1 + 1e-12)), doc(flops=1.0e8))
        assert result.ok


class TestCaseSetChanges:
    def test_dropped_case_fails_gate(self):
        result = compare_docs(doc(drop_case=True), doc())
        assert not result.ok
        assert any(c.status == "missing" for c in result.regressions)

    def test_new_case_passes_but_is_reported(self):
        extra = {
            "id": "backend_step/inproc/tp4pp1/T2", "kind": "backend_step",
            "params": {"scheme": "T2", "tp": 4, "pp": 1},
            "deterministic": {},
        }
        result = compare_docs(doc(extra_case=extra), doc())
        assert result.ok
        assert any(c.status == "new" for c in result.checks)

    def test_as_rows_shape(self):
        rows = compare_docs(doc(), doc()).as_rows()
        assert rows and set(rows[0]) == {"case", "metric", "baseline",
                                         "candidate", "ratio", "status"}
