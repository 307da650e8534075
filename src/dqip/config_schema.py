"""JSON schema for experiment configurations.

The schema owns the config defaults: every optional field with a
``"default"`` takes that value when a config leaves it out.
``python -m dqip.config_schema > docs/config.schema.json`` writes the copy
shipped in ``docs/``.
"""

import json

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

if __name__ == "__main__":
    print(json.dumps({"config": CONFIG_SCHEMA, "params": PARAM_SCHEMAS}, indent=2, sort_keys=True))
