"""Schema of ``BENCH_<sha>.json`` and a dependency-free validator.

The schema is written as a (subset of) JSON Schema so it doubles as
documentation and stays loadable by external tooling, but validation is
performed by the small interpreter below — the bench gate must run in CI
and on contributor machines without optional dependencies.

Supported keywords: ``type``, ``required``, ``properties``,
``additionalProperties`` (as a sub-schema or ``False``), ``items``,
``enum``, ``minimum``.  That subset is exactly what the bench document
needs.
"""

from __future__ import annotations

__all__ = ["SCHEMA_VERSION", "BENCH_SCHEMA", "BenchSchemaError", "validate_bench",
           "schema_errors"]

SCHEMA_VERSION = 2

_NUMBER = {"type": "number"}

BENCH_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "git_sha", "cases"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
        "git_sha": {"type": "string"},
        "created_unix": {"type": "number"},
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "params", "deterministic"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "kind": {"type": "string",
                             "enum": ["backend_step", "sim"]},
                    "params": {
                        "type": "object",
                        "required": ["scheme", "tp", "pp"],
                        "properties": {
                            "scheme": {"type": "string"},
                            "tp": {"type": "integer", "minimum": 1},
                            "pp": {"type": "integer", "minimum": 1},
                            "dp": {"type": "integer", "minimum": 1},
                            "sp": {"type": "integer", "minimum": 1},
                            "backend": {"type": "string"},
                            "schedule": {"type": "string",
                                         "enum": ["gpipe", "1f1b"]},
                            "microbatches": {"type": "integer", "minimum": 1},
                        },
                    },
                    # Flat metric name -> number, except comm_bytes which
                    # is a string-keyed byte map (from CommTracker.summary).
                    "deterministic": {
                        "type": "object",
                        "properties": {
                            "comm_bytes": {
                                "type": "object",
                                "additionalProperties": {"type": "integer",
                                                         "minimum": 0},
                            },
                        },
                        "additionalProperties": _NUMBER,
                    },
                },
            },
        },
    },
}


class BenchSchemaError(ValueError):
    """A bench document violated :data:`BENCH_SCHEMA`."""


def _type_ok(value, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise ValueError(f"schema bug: unknown type {expected!r}")


def _validate(value, schema: dict, path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None and not _type_ok(value, expected):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                _validate(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                _validate(sub, extra, f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}.{key}: unexpected key")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]", errors)


def schema_errors(value, schema: dict, *, path: str = "$") -> list[str]:
    """Validate ``value`` against a schema in the supported subset.

    Public, generic entry point for other schema owners (the telemetry
    run registry reuses it) — returns the error list instead of raising
    so callers can wrap it in their own exception type.
    """
    errors: list[str] = []
    _validate(value, schema, path, errors)
    return errors


def validate_bench(doc: dict) -> dict:
    """Validate a bench document; returns it, raises :class:`BenchSchemaError`.

    Beyond the structural schema, case ids must be unique — the compare
    gate matches baseline and candidate by id.
    """
    errors: list[str] = []
    _validate(doc, BENCH_SCHEMA, "$", errors)
    if not errors:
        seen: set[str] = set()
        for case in doc["cases"]:
            cid = case["id"]
            if cid in seen:
                errors.append(f"$.cases: duplicate case id {cid!r}")
            seen.add(cid)
    if errors:
        raise BenchSchemaError(
            "invalid bench document:\n  " + "\n  ".join(errors)
        )
    return doc
