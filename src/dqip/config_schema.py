"""JSON schema for experiment configurations, and the validator that reads it.

The schema owns the config defaults: every optional field with a
``"default"`` takes that value when a config leaves it out.
``python -m dqip.config_schema > docs/config.schema.json`` writes the copy
shipped in ``docs/``.

:func:`validate` implements exactly the draft 2020-12 keywords these schemas
use, with jsonschema's messages, so a run needs no jsonschema.  Of several
errors it reports the shallowest; of those, one from a schema stating no type
the value has (as ``best_match`` ranks them); then the first in schema order.
"""

import json
import numbers

from .errors import ConfigError

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "dqip experiment configuration",
    "type": "object",
    "required": ["experiment", "seed"],
    "additionalProperties": False,
    "properties": {
        "experiment": {
            "enum": [
                "ghz",
                "dqct",
                "compile-pipeline",
                "optimize",
                "dam-brute-force",
                "qcore-properties",
            ]
        },
        "seed": {"type": "integer", "minimum": 0},
        "mode": {"enum": ["exact", "sampled"], "default": "exact"},
        "trials": {"type": "integer", "minimum": 1, "default": 1000},
        "output": {"type": "string"},
        "params": {"type": "object"},
    },
}

PARAM_SCHEMAS = {
    "ghz": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "nodes": {"type": "integer", "minimum": 2, "maximum": 5},
            "copies": {"type": "integer", "minimum": 1, "maximum": 3, "default": 1},
            "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 0.25},
            "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 0.5},
            "edges": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            },
            "strategy": {"enum": ["honest", "all-zero"], "default": "honest"},
            "prover_qubits": {"type": "integer", "minimum": 0, "maximum": 4, "default": 0},
        },
        "required": ["nodes"],
    },
    "dqct": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "nodes": {"type": "integer", "minimum": 2, "maximum": 3},
            "qubits_per_node": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            "states": {"enum": ["equal", "orthogonal", "random"]},
            "copies": {"type": "integer", "minimum": 1, "maximum": 2, "default": 1},
            "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 0.25},
            "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 0.5},
            "probe": {"type": "boolean", "default": False},
            "prover_qubits": {"type": "integer", "minimum": 0, "maximum": 4, "default": 2},
            "restarts": {"type": "integer", "minimum": 1, "default": 5},
            "sweeps": {"type": "integer", "minimum": 1, "default": 50},
        },
        "required": ["nodes", "states"],
    },
    "compile-pipeline": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "protocol": {"type": "string"},
            "instance": {"enum": ["yes", "no"]},
            "pipeline": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["transform"],
                    "properties": {
                        "transform": {
                            "enum": [
                                "pad",
                                "halve-shared",
                                "halve-private",
                                "seven-to-five",
                                "parallel-repeat",
                            ]
                        },
                        "target": {"type": "integer", "minimum": 1},
                        "t": {"type": "integer", "minimum": 1},
                        "repeat_mode": {"enum": ["AND", "majority"]},
                    },
                    "allOf": [
                        {"if": {"properties": {"transform": {"const": kind}}}, "then": {"required": [field]}}
                        for kind, field in (("pad", "target"), ("parallel-repeat", "t"))
                    ],
                },
            },
            "optimize": {"type": "boolean", "default": False},
            "restarts": {"type": "integer", "minimum": 1, "default": 4},
            "sweeps": {"type": "integer", "minimum": 1, "default": 60},
        },
        "required": ["protocol", "instance", "pipeline"],
    },
    "optimize": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "protocol": {"type": "string"},
            "instance": {"enum": ["yes", "no"]},
            "restarts": {"type": "integer", "minimum": 1, "default": 4},
            "sweeps": {"type": "integer", "minimum": 1, "default": 60},
        },
        "required": ["protocol", "instance"],
    },
    "dam-brute-force": {
        "type": "object",
        "additionalProperties": False,
        "properties": {"protocol": {"type": "string"}},
        "required": ["protocol"],
    },
    "qcore-properties": {
        "type": "object",
        "additionalProperties": False,
        "properties": {"samples": {"type": "integer", "minimum": 1, "maximum": 5000, "default": 500}},
    },
}

_BOUNDS = {  # keyword: (fails, message)
    "minimum": (lambda v, b: v < b, "less than the minimum of"),
    "maximum": (lambda v, b: v > b, "greater than the maximum of"),
    "exclusiveMinimum": (lambda v, b: v <= b, "less than or equal to the minimum of"),
    "exclusiveMaximum": (lambda v, b: v >= b, "greater than or equal to the maximum of"),
}
_KEYWORDS = {*_BOUNDS, "type", "enum", "const", "minItems", "maxItems", "items", "required", "properties"}
_KEYWORDS |= {"additionalProperties", "allOf", "if", "then"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": numbers.Number, "integer": int}


def _is(kind: str, value) -> bool:
    """Draft 2020-12's types: a bool is no number, an integral float is an integer."""
    exact = isinstance(value, _TYPES[kind]) and not (isinstance(value, bool) and kind in ("number", "integer"))
    return exact or (kind == "integer" and isinstance(value, float) and value.is_integer())


def _check(schema: dict, value, path: tuple, errors: list):
    """``value`` with each integral float in an integer field made an int; each keyword of ``schema`` it
    fails appends ``(path, message, typed)``, ``typed`` if ``value`` has a type ``schema`` states."""
    is_dict, is_list = isinstance(value, dict), isinstance(value, list)
    typed = "type" in schema and _is(schema["type"], value)
    out = dict(value) if is_dict else list(value) if is_list else value
    for key, arg in schema.items():
        message = None
        if key == "type" and not _is(arg, value):
            message = f"{value!r} is not of type {arg!r}"
        elif key == "enum" and not any(value == e and isinstance(value, bool) == isinstance(e, bool) for e in arg):
            message = f"{value!r} is not one of {arg!r}"
        elif key == "const" and not (value == arg and isinstance(value, bool) == isinstance(arg, bool)):
            message = f"{arg!r} was expected"
        elif key in _BOUNDS and _is("number", value) and _BOUNDS[key][0](value, arg):
            message = f"{value!r} is {_BOUNDS[key][1]} {arg!r}"
        elif key == "minItems" and is_list and len(value) < arg:
            message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and is_list and len(value) > arg:
            message = f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "items" and is_list:
            out = [_check(arg, item, (*path, i), errors) for i, item in enumerate(value)]
        elif key == "required" and is_dict:
            errors.extend((path, f"{name!r} is a required property", typed) for name in arg if name not in value)
        elif key == "properties" and is_dict:
            out.update((k, _check(sub, value[k], (*path, k), errors)) for k, sub in arg.items() if k in value)
        elif key == "additionalProperties" and is_dict and (extra := value.keys() - schema["properties"]):
            listed = ", ".join(map(repr, sorted(extra, key=str))) + (" was" if len(extra) == 1 else " were")
            message = f"Additional properties are not allowed ({listed} unexpected)"
        elif key == "allOf":
            for sub in arg:
                out = _check(sub, out, path, errors)
        elif key == "if" and "then" in schema:
            _check(arg, value, path, trial := [])
            out = out if trial else _check(schema["then"], out, path, errors)
        if message is not None:
            errors.append((path, message, typed))
    return int(out) if schema.get("type") == "integer" and isinstance(out, float) and out.is_integer() else out


def validate(schema: dict, instance):
    """``instance``, checked against ``schema`` and returned with each integral float in an integer
    field made an int; else :class:`ConfigError` ``config field <path>: <message>``."""
    errors: list = []
    value = _check(schema, instance, (), errors)
    if errors:
        path, message, _ = min(errors, key=lambda error: (len(error[0]), error[2]))
        field = "/".join(str(part) for part in path) or "(root)"
        raise ConfigError(f"config field {field}: {message}", fields=[field])
    return value


if __name__ == "__main__":
    print(json.dumps({"config": CONFIG_SCHEMA, "params": PARAM_SCHEMAS}, indent=2, sort_keys=True))
