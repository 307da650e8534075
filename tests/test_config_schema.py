"""The config validator (:func:`dqip.config_schema.validate`) against jsonschema, its oracle."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqip
from dqip.cli import _PARAM_DEFAULTS, run_experiment, validate_config
from dqip.config_schema import _KEYWORDS, CONFIG_SCHEMA, PARAM_SCHEMAS
from dqip.errors import ConfigError

SRC = str(Path(dqip.__file__).parents[1])
ANNOTATIONS = {"$schema", "title", "default"}

# One valid config per experiment, stating every field its schema knows.
VALID = {
    "ghz": {
        "nodes": 3,
        "copies": 2,
        "epsilon": 0.25,
        "delta": 0.5,
        "edges": [[0, 1], [1, 2]],
        "strategy": "honest",
        "prover_qubits": 1,
    },
    "dqct": {
        "nodes": 2,
        "qubits_per_node": [1, 1],
        "states": "random",
        "copies": 1,
        "epsilon": 0.25,
        "delta": 0.5,
        "probe": True,
        "prover_qubits": 2,
        "restarts": 2,
        "sweeps": 20,
    },
    "compile-pipeline": {
        "protocol": "coin-guess",
        "instance": "yes",
        "pipeline": [{"transform": "pad", "target": 5}, {"transform": "parallel-repeat", "t": 2, "repeat_mode": "AND"}],
        "optimize": False,
        "restarts": 4,
        "sweeps": 60,
    },
    "optimize": {"protocol": "coin-guess", "instance": "no", "restarts": 4, "sweeps": 60},
    "dam-brute-force": {"protocol": "coin-guess"},
    "qcore-properties": {"samples": 500},
}


def _config(experiment: str) -> dict:
    params = copy.deepcopy(VALID[experiment])
    return {"experiment": experiment, "seed": 3, "mode": "sampled", "trials": 10, "output": "x", "params": params}


WRONG_TYPE = {
    "integer": ["1", 1.5, True],
    "number": ["x", True],
    "string": [5],
    "boolean": [1, "true"],
    "array": [{}],
    "object": [[]],
}
DELETE = object()


def _field_faults(schema: dict, value):
    """(label, relative path, new value or DELETE) for each single fault of one field and below."""
    if "type" in schema:
        yield from ((f"type {bad!r}", (), bad) for bad in WRONG_TYPE[schema["type"]])
    if "enum" in schema:
        yield from (("enum", (), bad) for bad in ("zzz", 7))
    step = 1 if schema.get("type") == "integer" else 0.5
    for key, past in (("minimum", -step), ("maximum", step), ("exclusiveMinimum", 0), ("exclusiveMaximum", 0)):
        if key in schema:
            yield key, (), schema[key] + past
    if "minItems" in schema:
        yield "minItems", (), value[: schema["minItems"] - 1]
    if "maxItems" in schema:
        yield "maxItems", (), value + value[: schema["maxItems"] - len(value) + 1]
    if "items" in schema:
        for i, item in enumerate(value):
            yield from ((label, (i, *path), new) for label, path, new in _field_faults(schema["items"], item))
    if "properties" in schema:
        for name, sub in schema["properties"].items():
            if name in value:
                yield from ((label, (name, *path), new) for label, path, new in _field_faults(sub, value[name]))
        yield from ((f"required {name}", (name,), DELETE) for name in schema.get("required", []))
        yield "unknown key", ("zzz",), 1
    for rule in schema.get("allOf", []):
        if all(value.get(name) == sub["const"] for name, sub in rule["if"]["properties"].items()):
            yield from ((f"then-required {name}", (name,), DELETE) for name in rule["then"]["required"])


def _mutated(config: dict, path: tuple, new):
    if not path:
        return new
    config = copy.deepcopy(config)
    parent = config
    for part in path[:-1]:
        parent = parent[part]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return config


def _cases() -> list[tuple[str, str, dict]]:
    """(id, fault kind, config) for each valid config and each of its single faults."""
    cases = []
    for experiment in VALID:
        config = _config(experiment)
        faults = [*_field_faults(CONFIG_SCHEMA, config)]
        for label, path, new in _field_faults(PARAM_SCHEMAS[experiment], config["params"]):
            faults.append((label, ("params", *path), new))
        cases.append((f"{experiment}-valid", "valid", config))
        for label, path, new in faults:
            case_id = f"{experiment}-{'/'.join(map(str, path))}-{label}"
            cases.append((case_id, label.split(" ")[0], _mutated(config, path, new)))
    return cases


CASES = _cases()


def _oracle(config: dict):
    """(field, message) of the error jsonschema's best_match picks, or None: the reference behaviour."""
    jsonschema = pytest.importorskip("jsonschema")

    def first(schema, instance):
        return jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(instance))

    error = first(CONFIG_SCHEMA, config)
    if error is None:
        experiment = config["experiment"]
        error = first(PARAM_SCHEMAS[experiment], {**_PARAM_DEFAULTS[experiment], **config.get("params", {})})
    if error is None:
        return None
    return "/".join(str(p) for p in error.absolute_path) or "(root)", error.message


@pytest.mark.parametrize("config", [pytest.param(config, id=case_id) for case_id, _, config in CASES])
def test_each_single_fault_gets_jsonschemas_verdict_field_and_message(config):
    expected = _oracle(config)
    try:
        validate_config(config)
        got = None
    except ConfigError as err:
        assert len(err.fields) == 1
        got = err.fields[0], str(err).removeprefix(f"config field {err.fields[0]}: ")
    assert got == expected


def test_the_differential_cases_cover_every_kind_of_fault():
    kinds = {kind for _, kind, _ in CASES}
    assert kinds == {"valid", "type", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"} | {
        "minItems", "maxItems", "required", "then-required", "unknown"
    }
    assert sum(kind == "unknown" for _, kind, _ in CASES) == 14  # the config and params of six experiments, two stages
    edges = [config["params"]["edges"][0] for case_id, _, config in CASES if "edges/0-m" in case_id]
    assert edges == [[0], [0, 1, 0]]


@pytest.mark.parametrize(
    "config, field",
    [
        ({"experiment": "ghz", "seed": 1, "params": {"nodes": 9, "edges": [[0]]}}, "nodes"),  # the shallowest
        ({"experiment": "ghz", "seed": -1, "mode": "x"}, "mode"),  # then from a schema with no type that fits
        # then the first in schema order, where best_match takes the last sibling ("trials")
        ({"experiment": "ghz", "seed": -1, "trials": 0}, "seed"),
    ],
)
def test_of_several_faults_one_is_reported_by_depth_type_and_schema_order(config, field):
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.fields == [field]


def test_every_shipped_schema_passes_the_2020_12_metaschema():
    jsonschema = pytest.importorskip("jsonschema")
    for schema in [CONFIG_SCHEMA, *PARAM_SCHEMAS.values()]:
        jsonschema.Draft202012Validator.check_schema(schema)


def _keywords(schema: dict) -> set:
    """Every keyword ``schema`` uses, at any depth."""
    found = set(schema)
    for key, arg in schema.items():
        if key in ("properties", "allOf"):
            subschemas = arg.values() if key == "properties" else arg
        else:
            subschemas = [arg] if key in ("items", "if", "then") else []
        for sub in subschemas:
            found |= _keywords(sub)
    return found


def test_the_shipped_schemas_use_only_the_keywords_the_validator_implements():
    used = set().union(*map(_keywords, [CONFIG_SCHEMA, *PARAM_SCHEMAS.values()]))
    assert used - ANNOTATIONS == _KEYWORDS
    assert _keywords({"type": "string", "pattern": "^a"}) - ANNOTATIONS - _KEYWORDS == {"pattern"}
    # The validator implements additionalProperties: false only.
    text = json.dumps([CONFIG_SCHEMA, PARAM_SCHEMAS])
    assert text.count('"additionalProperties": false') == text.count('"additionalProperties"')


NO_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None  # any import of it raises
from dqip.cli import main
assert main(["run", sys.argv[1], "--output-dir", sys.argv[3]]) == 0
sys.exit(main(["run", sys.argv[2], "--output-dir", sys.argv[3]]))
"""


def test_a_run_needs_no_jsonschema(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"experiment": "ghz", "seed": 1, "params": {"nodes": 2}}))
    bad.write_text(json.dumps({"experiment": "ghz", "seed": 1, "params": {"nodes": 99}}))
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [sys.executable, "-c", NO_JSONSCHEMA, str(good), str(bad), str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["fields"] == ["nodes"]
    assert (tmp_path / "out" / "good.json").exists()
    code = "import sys, dqip.cli; sys.exit('jsonschema' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Each (config, path, value) puts a schema-valid integral float where the run needs an int.
PIPELINE = {"protocol": "coin-guess", "instance": "yes", "pipeline": [{"transform": "pad", "target": 5}]}
FLOAT_TWINS = {
    "ghz nodes": ({"experiment": "ghz", "seed": 1, "params": {"nodes": 3}}, ("params", "nodes"), 3.0),
    "sampled dqct seed": (
        {"experiment": "dqct", "seed": 1, "mode": "sampled", "trials": 4, "params": {"nodes": 2, "states": "random"}},
        ("seed",),
        1.0,
    ),
    "dqct qubits_per_node": (
        {"experiment": "dqct", "seed": 1, "params": {"nodes": 2, "qubits_per_node": [1, 1], "states": "random"}},
        ("params", "qubits_per_node", 0),
        1.0,
    ),
    "qcore-properties samples": (
        {"experiment": "qcore-properties", "seed": 1, "params": {"samples": 2}},
        ("params", "samples"),
        2.0,
    ),
    "pad target": (
        {"experiment": "compile-pipeline", "seed": 1, "params": PIPELINE},
        ("params", "pipeline", 0, "target"),
        5.0,
    ),
}


@pytest.mark.parametrize("name", sorted(FLOAT_TWINS))
def test_an_integral_float_runs_as_its_integer_twin(name, tmp_path):
    config, path, value = FLOAT_TWINS[name]
    twin = _mutated(config, path, value)
    written = [run_experiment(each, tmp_path / label / "exp") for label, each in (("int", config), ("float", twin))]
    for int_path, float_path in zip(*written):
        assert int_path.read_bytes() == float_path.read_bytes()
