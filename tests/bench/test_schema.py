"""BENCH_<sha>.json schema validation (hand-rolled, no jsonschema dep)."""

import copy

import pytest

from repro.bench.schema import SCHEMA_VERSION, BenchSchemaError, validate_bench


def good_doc():
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": "abc1234",
        "created_unix": 1_700_000_000.0,
        "cases": [
            {
                "id": "backend_step/inproc/tp2pp1/T2",
                "kind": "backend_step",
                "params": {"scheme": "T2", "tp": 2, "pp": 1},
                "deterministic": {
                    "flops": 1.0e8,
                    "op_calls": 1000,
                    "comm_bytes": {"tp/forward/topk": 1024},
                },
            },
        ],
    }


class TestValidate:
    def test_accepts_well_formed(self):
        doc = good_doc()
        assert validate_bench(doc) is doc

    @pytest.mark.parametrize("missing", ["schema_version", "git_sha", "cases"])
    def test_rejects_missing_top_level_field(self, missing):
        doc = good_doc()
        del doc[missing]
        with pytest.raises(BenchSchemaError, match=missing):
            validate_bench(doc)

    @pytest.mark.parametrize("missing", ["id", "kind", "params",
                                         "deterministic"])
    def test_rejects_missing_case_field(self, missing):
        doc = good_doc()
        del doc["cases"][0][missing]
        with pytest.raises(BenchSchemaError):
            validate_bench(doc)

    def test_rejects_wrong_types(self):
        doc = good_doc()
        doc["cases"][0]["deterministic"]["flops"] = "many"
        with pytest.raises(BenchSchemaError):
            validate_bench(doc)

    def test_rejects_bad_kind(self):
        doc = good_doc()
        doc["cases"][0]["kind"] = "gpu_step"
        with pytest.raises(BenchSchemaError):
            validate_bench(doc)

    def test_rejects_previous_schema_version(self):
        doc = good_doc()
        doc["schema_version"] = 1
        with pytest.raises(BenchSchemaError, match="schema_version"):
            validate_bench(doc)

    @pytest.mark.parametrize("where", ["top", "case"])
    def test_rejects_wall_clock_fields(self, where):
        """Version 2 has no place for a timing: not in the header, not in a case."""
        doc = good_doc()
        if where == "top":
            doc["machine_calibration_ms"] = 1.5
        else:
            doc["cases"][0]["wall_ms"] = {"median": 45.0, "iqr": 1.0, "rounds": 3}
        with pytest.raises(BenchSchemaError, match="unexpected key"):
            validate_bench(doc)

    def test_rejects_duplicate_case_ids(self):
        doc = good_doc()
        doc["cases"].append(copy.deepcopy(doc["cases"][0]))
        with pytest.raises(BenchSchemaError, match="duplicate"):
            validate_bench(doc)

    def test_rejects_unknown_top_level_key(self):
        doc = good_doc()
        doc["vibes"] = "good"
        with pytest.raises(BenchSchemaError):
            validate_bench(doc)
