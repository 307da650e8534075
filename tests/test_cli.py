import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dqip
from dqip import qcore
from dqip.cli import main, run_experiment, validate_config
from dqip.errors import CapacityError, ConfigError

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(dqip.__file__).parents[1])  # put on the PYTHONPATH of every subprocess that imports dqip


def run_config(config: dict, tmp_path: Path, name: str = "exp"):
    return run_experiment(config, tmp_path / name)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_schema_rejects_unknown_experiment():
    with pytest.raises(ConfigError) as err:
        validate_config({"experiment": "teleport", "seed": 1})
    assert "experiment" in str(err.value)


def test_schema_rejects_bad_params():
    with pytest.raises(ConfigError) as err:
        validate_config({"experiment": "ghz", "seed": 1, "params": {"nodes": 99, "copies": 1}})
    assert err.value.fields


@pytest.mark.parametrize(
    "stage, field, message",
    [
        ({"transform": "pad"}, "pipeline/1", "'target' is a required property"),
        ({"transform": "parallel-repeat"}, "pipeline/1", "'t' is a required property"),
        ({"transform": "pad", "target": 0}, "pipeline/1/target", "0 is less than the minimum of 1"),
    ],
)
def test_schema_requires_the_parameters_of_each_transform(stage, field, message):
    pipeline = [{"transform": "pad", "target": 5}, stage]
    params = {"protocol": "coin-guess", "instance": "yes", "pipeline": pipeline}
    with pytest.raises(ConfigError) as err:
        validate_config({"experiment": "compile-pipeline", "seed": 1, "params": params})
    assert err.value.fields == [field] and message in str(err.value)


def test_schema_refuses_the_perfect_completeness_stage_before_any_brute_force(tmp_path, brute_force_calls):
    # No pipeline output is a coherent spec, so the stage is not in the schema.
    params = {"protocol": "coin-guess", "instance": "yes", "pipeline": [{"transform": "perfect-completeness"}]}
    with pytest.raises(ConfigError) as err:
        run_config({"experiment": "compile-pipeline", "seed": 1, "params": params}, tmp_path)
    assert err.value.fields == ["pipeline/0/transform"]
    assert brute_force_calls == []


def test_schema_rejects_an_edge_that_is_not_a_pair():
    with pytest.raises(ConfigError) as err:
        validate_config({"experiment": "ghz", "seed": 1, "params": {"nodes": 3, "copies": 1, "edges": [[0, 1, 2]]}})
    assert err.value.fields == ["edges/0"]


def test_defaults_resolved():
    resolved = validate_config({"experiment": "ghz", "seed": 1, "params": {"nodes": 3, "copies": 1}})
    assert resolved["mode"] == "exact"
    assert resolved["params"]["epsilon"] == 0.25


@pytest.mark.parametrize(
    "experiment, given, defaults",
    [
        ("ghz", {"nodes": 3}, {"copies": 1, "epsilon": 0.25, "delta": 0.5, "strategy": "honest", "prover_qubits": 0}),
        (
            "dqct",
            {"nodes": 2, "states": "equal"},
            {"copies": 1, "epsilon": 0.25, "delta": 0.5, "probe": False, "prover_qubits": 2, "restarts": 5, "sweeps": 50},
        ),
        (
            "compile-pipeline",
            {"protocol": "coin-guess", "instance": "yes", "pipeline": []},
            {"optimize": False, "restarts": 4, "sweeps": 60},
        ),
        ("optimize", {"protocol": "coin-guess", "instance": "yes"}, {"restarts": 4, "sweeps": 60}),
        ("dam-brute-force", {"protocol": "coin-guess"}, {}),
        ("qcore-properties", {}, {"samples": 500}),
    ],
)
def test_every_field_left_out_takes_its_schema_default(experiment, given, defaults):
    resolved = validate_config({"experiment": experiment, "seed": 1, "params": given})
    assert resolved == {"experiment": experiment, "seed": 1, "mode": "exact", "trials": 1000, "params": given | defaults}
    # A value the config states wins over the default.
    stated = validate_config({"experiment": experiment, "seed": 1, "mode": "sampled", "trials": 7, "params": given})
    assert (stated["mode"], stated["trials"]) == ("sampled", 7)


def test_schema_in_docs_matches_code():
    from dqip.config_schema import CONFIG_SCHEMA, PARAM_SCHEMAS

    doc = json.loads((Path(__file__).parent.parent / "docs" / "config.schema.json").read_text())
    assert doc["config"] == CONFIG_SCHEMA
    assert doc["params"] == PARAM_SCHEMAS


def _required_with_default(schema, path: str) -> list[str]:
    """Fields of ``schema``, at any depth, that are required and also state a default."""
    if isinstance(schema, list):
        return [hit for i, part in enumerate(schema) for hit in _required_with_default(part, f"{path}[{i}]")]
    if not isinstance(schema, dict):
        return []
    properties = schema.get("properties", {})
    hits = [f"{path}.{name}" for name in schema.get("required", []) if "default" in properties.get(name, {})]
    return hits + [hit for key, part in schema.items() for hit in _required_with_default(part, f"{path}.{key}")]


def test_no_required_field_states_a_default():
    # validate_config fills the defaults in before it validates, so a required
    # field with a default can never be reported missing.
    from dqip.config_schema import CONFIG_SCHEMA, PARAM_SCHEMAS

    assert _required_with_default(CONFIG_SCHEMA, "config") == []
    for experiment, schema in PARAM_SCHEMAS.items():
        assert _required_with_default(schema, experiment) == []


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def test_ghz_experiment_report(tmp_path):
    config = {"experiment": "ghz", "seed": 7, "params": {"nodes": 3, "copies": 1}}
    json_path, csv_path = run_config(config, tmp_path)
    doc = json.loads(json_path.read_text())
    assert doc["results"]["run"]["acceptance_probability"] >= 1 - 1e-9
    assert doc["results"]["output_ghz_fidelity"] >= 1 - 1e-9
    assert csv_path.read_text().startswith("experiment,metric,value")


def test_dqct_equal_states_experiment(tmp_path):
    config = {"experiment": "dqct", "seed": 3, "params": {"nodes": 2, "states": "equal"}}
    json_path, _ = run_config(config, tmp_path)
    doc = json.loads(json_path.read_text())
    assert doc["results"]["run"]["acceptance_probability"] >= 1 - 1e-9


def test_determinism_byte_identical(tmp_path):
    config = {
        "experiment": "dqct",
        "seed": 11,
        "params": {"nodes": 2, "states": "random"},
        "mode": "sampled",
        "trials": 200,
    }
    a_json, a_csv = run_config(dict(config), tmp_path, "a")
    b_json, b_csv = run_config(dict(config), tmp_path, "b")
    assert a_json.read_bytes() == b_json.read_bytes()
    assert a_csv.read_bytes() == b_csv.read_bytes()


def test_compile_pipeline_experiment(tmp_path):
    config = {
        "experiment": "compile-pipeline",
        "seed": 5,
        "params": {
            "protocol": "coin-parity-echo-private",
            "instance": "yes",
            "pipeline": [{"transform": "pad", "target": 5}, {"transform": "halve-shared"}],
        },
    }
    json_path, _ = run_config(config, tmp_path)
    doc = json.loads(json_path.read_text())
    stages = doc["results"]["stages"]
    assert [s["turns"] for s in stages] == [3, 5, 3]
    assert abs(stages[-1]["honest_acceptance"] - 1.0) <= 1e-9


def test_dam_brute_force_experiment(tmp_path):
    config = {"experiment": "dam-brute-force", "seed": 0, "params": {"protocol": "coin-guess"}}
    json_path, _ = run_config(config, tmp_path)
    doc = json.loads(json_path.read_text())
    assert doc["results"]["completeness_exact"] == "1/4"
    assert doc["results"]["soundness"] == 0.0


def test_qcore_properties_experiment(tmp_path):
    config = {"experiment": "qcore-properties", "seed": 1, "params": {"samples": 50}}
    json_path, _ = run_config(config, tmp_path)
    doc = json.loads(json_path.read_text())
    assert doc["results"]["worst_triple_inequality_slack"] <= 1e-8


# Each experiment kind with the number of brute forces its first run makes:
# a catalog entry brute-forces its yes and its no instance once per process.
BRUTE_FORCES_PER_RUN = [
    (
        {
            "experiment": "compile-pipeline",
            "seed": 5,
            "params": {
                "protocol": "coin-guess",
                "instance": "no",
                "pipeline": [{"transform": "pad", "target": 5}, {"transform": "halve-private"}],
            },
        },
        2,
    ),
    (
        {
            "experiment": "optimize",
            "seed": 5,
            "params": {"protocol": "coin-parity-echo-private", "instance": "yes", "restarts": 1, "sweeps": 2},
        },
        2,
    ),
    ({"experiment": "dam-brute-force", "seed": 0, "params": {"protocol": "bipartite-pls"}}, 2),
    ({"experiment": "ghz", "seed": 7, "params": {"nodes": 2, "copies": 1}}, 0),
    ({"experiment": "dqct", "seed": 3, "params": {"nodes": 2, "states": "random", "prover_qubits": 0}}, 0),
    ({"experiment": "qcore-properties", "seed": 1, "params": {"samples": 20}}, 0),
]


@pytest.mark.parametrize(
    "config, calls", BRUTE_FORCES_PER_RUN, ids=[config["experiment"] for config, _ in BRUTE_FORCES_PER_RUN]
)
def test_a_process_brute_forces_each_catalog_instance_once(tmp_path, brute_force_calls, config, calls):
    first = run_config(config, tmp_path, "first")
    assert brute_force_calls == [config["params"].get("protocol")] * calls
    brute_force_calls.clear()
    second = run_config(config, tmp_path, "second")
    assert brute_force_calls == []
    assert [path.read_bytes() for path in first] == [path.read_bytes() for path in second]


def test_csv_is_projection_of_json(tmp_path):
    config = {"experiment": "ghz", "seed": 7, "params": {"nodes": 3, "copies": 1}}
    json_path, csv_path = run_config(config, tmp_path)
    doc = json.loads(json_path.read_text())

    def leaves(value, path=""):
        if isinstance(value, bool) or isinstance(value, (int, float)):
            yield path, float(value)
        elif isinstance(value, dict):
            for key in value:
                yield from leaves(value[key], f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            if value and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
                for i, v in enumerate(value):
                    yield f"{path}[{i}]", float(v)

    json_scalars = dict(leaves(doc["results"]))
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    csv_scalars = {metric: float(value) for _, metric, value in rows}
    assert csv_scalars == {k: v for k, v in json_scalars.items() if k in csv_scalars}
    assert set(csv_scalars) == set(json_scalars)


# ---------------------------------------------------------------------------
# Golden files
# ---------------------------------------------------------------------------


def test_report_golden_file(tmp_path):
    config = {"experiment": "dam-brute-force", "seed": 0, "params": {"protocol": "bipartite-pls"}}
    json_path, _ = run_config(config, tmp_path)
    golden = GOLDEN / "dam-brute-force-report.json"
    assert json_path.read_text() == golden.read_text()


def test_protocol_spec_golden_file():
    from dqip.dam import catalog_entry
    from dqip.protocol import spec_to_json
    from dqip.transforms import dam_to_dqip

    entry = catalog_entry("bipartite-pls")
    compiled = dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
    doc = json.dumps(spec_to_json(compiled.spec), sort_keys=True, indent=2) + "\n"
    golden = GOLDEN / "bipartite-spec.json"
    assert doc == golden.read_text()


def test_ghz_and_closeness_spec_golden_files():
    # The closeness test extends the pGHZ script; both specs are pinned,
    # including the no-op swap step of node 1, which holds no input qubits.
    from dqip.dqct import build_pdqct, make_instance
    from dqip.ghz import GhzProtocolParams, build_pghz
    from dqip.network import path_graph
    from dqip.protocol import spec_to_json

    params = GhzProtocolParams(copies=2, prover_qubits=1)
    instance = make_instance(path_graph(3), (2, 0, 1), "random", seed=0)
    for name, compiled in (
        ("pghz-spec.json", build_pghz(path_graph(3), params)),
        ("pdqct-spec.json", build_pdqct(instance, params)),
    ):
        doc = json.dumps(spec_to_json(compiled.spec), sort_keys=True, indent=2) + "\n"
        assert doc == (GOLDEN / name).read_text(), name


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------


def test_cli_run_and_env_override(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"experiment": "ghz", "seed": 1, "params": {"nodes": 3, "copies": 1}}))
    monkeypatch.setenv("DQIP_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", str(config_path)]) == 0
    assert (tmp_path / "out" / "cfg.json").exists()


def test_cli_config_error_is_machine_readable(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"experiment": "ghz", "seed": 1, "params": {"copies": 1}}))
    code = main(["run", str(config_path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


@pytest.mark.parametrize(
    "text, field",
    [
        ("[1, 2]", "(root)"),  # not an object: nothing may read a field before the schema refuses it
        (json.dumps({"experiment": "ghz", "seed": 1, "output": 5, "params": {"nodes": 3}}), "output"),
        ("not json", None),
        (None, None),  # no such file
    ],
    ids=["array", "output-5", "not-json", "missing"],
)
def test_cli_run_refuses_a_config_before_reading_it(tmp_path, capsys, text, field):
    config_path = tmp_path / "cfg.json"
    if text is not None:
        config_path.write_text(text)
    assert main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["fields"] == ([field] if field else [])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", [None, "x"])
def test_cli_run_refuses_a_report_that_would_overwrite_its_config(tmp_path, monkeypatch, capsys, output):
    # `dqip run x.json` from the config's own directory, with no `output` or
    # with the config's stem as `output`, would write x.json over the config.
    config = {"experiment": "ghz", "seed": 1, "params": {"nodes": 3}}
    config_path = tmp_path / "x.json"
    config_path.write_text(json.dumps(config if output is None else {**config, "output": output}))
    before = config_path.read_bytes()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DQIP_OUTPUT_DIR", raising=False)
    assert main(["run", "x.json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["fields"] == ["output"] and "overwrite" in err["message"]
    assert config_path.read_bytes() == before and not (tmp_path / "x.csv").exists()
    assert main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 0  # elsewhere it runs
    assert config_path.read_bytes() == before


def test_cli_run_keeps_a_dotted_output_name(tmp_path, monkeypatch, capsys):
    # The reports are <output>.json and <output>.csv, so a dot in the name
    # stays and "run.v2" and "run.v3" write apart; the overwrite guard reads
    # the same names, so run.v2.json with output "run.v2" is refused in its
    # own directory.
    config = {"experiment": "ghz", "seed": 1, "params": {"nodes": 3, "copies": 1}}
    for output in ("run.v2", "run.v3"):
        config_path = tmp_path / f"cfg-{output}.json"
        config_path.write_text(json.dumps({**config, "output": output}))
        assert main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 0
    names = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert names == ["run.v2.csv", "run.v2.json", "run.v3.csv", "run.v3.json"]
    config_path = tmp_path / "run.v2.json"
    config_path.write_text(json.dumps({**config, "output": "run.v2"}))
    before = config_path.read_bytes()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DQIP_OUTPUT_DIR", raising=False)
    assert main(["run", "run.v2.json"]) == 2
    assert "overwrite" in json.loads(capsys.readouterr().err)["message"]
    assert config_path.read_bytes() == before and not (tmp_path / "run.v2.csv").exists()


def test_cli_dqct_qubits_per_node_of_the_wrong_length_is_a_config_error(tmp_path, capsys):
    params = {"nodes": 3, "qubits_per_node": [1, 1], "states": "random", "copies": 1}
    config_path = tmp_path / "short.json"
    config_path.write_text(json.dumps({"experiment": "dqct", "seed": 1, "params": params}))
    assert main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["fields"] == ["qubits_per_node"]
    assert "qubits_per_node" in err["message"]


@pytest.mark.parametrize(
    "experiment, params, field, message",
    [
        ("optimize", {"protocol": "no-such-protocol", "instance": "yes"}, "protocol", "no-such-protocol"),
        ("dqct", {"nodes": 2, "qubits_per_node": [0, 0], "states": "random", "copies": 1}, "qubits_per_node",
         "no node holds an input qubit"),
        ("ghz", {"nodes": 3, "copies": 1, "edges": [[0, 1], [1, 3]]}, "edges", "unknown node"),
        ("ghz", {"nodes": 4, "copies": 1, "edges": [[0, 1], [2, 3]]}, "edges", "disconnected"),
    ],
)
def test_cli_schema_valid_config_the_run_refuses_names_the_field(tmp_path, capsys, experiment, params, field, message):
    config_path = tmp_path / "refused.json"
    config_path.write_text(json.dumps({"experiment": experiment, "seed": 1, "params": params}))
    assert main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["fields"] == [field]
    assert f"config field {field}:" in err["message"] and message in err["message"]


def test_dqct_probe_builds_and_runs_the_protocol_once(tmp_path, monkeypatch):
    from dqip import cli, dqct

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module in (cli, dqct):
        monkeypatch.setattr(module, "build_pdqct", counted("build", dqct.build_pdqct))
    monkeypatch.setattr(cli, "execute_exact", counted("exact", cli.execute_exact))
    monkeypatch.setattr(cli, "execute_sampled", counted("sampled", cli.execute_sampled))
    params = {"nodes": 2, "qubits_per_node": [1, 1], "states": "random", "probe": True,
              "restarts": 1, "sweeps": 2}
    run_config({"experiment": "dqct", "seed": 3, "params": params}, tmp_path)
    assert calls == ["build", "exact"]
    calls.clear()
    run_config({"experiment": "dqct", "seed": 3, "mode": "sampled", "trials": 4, "params": params}, tmp_path)
    assert calls == ["build", "sampled", "exact"]


@pytest.mark.parametrize(
    "protocol, pipeline, field",
    [
        ("coin-guess", [{"transform": "halve-shared"}], "pipeline/0"),
        ("coin-guess", [{"transform": "pad", "target": 4}], "pipeline/0"),
        ("coin-guess", [{"transform": "pad", "target": 7}, {"transform": "halve-private"}], "pipeline/1"),
        ("coin-guess", [{"transform": "pad", "target": 5}, {"transform": "seven-to-five"}], "pipeline/1"),
        ("bipartite-pls", [{"transform": "pad", "target": 5}, {"transform": "halve-shared"}], "pipeline/1"),
    ],
)
def test_cli_stage_that_cannot_apply_is_a_config_error(tmp_path, capsys, protocol, pipeline, field):
    # Each config passes the schema; the stage's transform refuses its input.
    params = {"protocol": protocol, "instance": "yes", "pipeline": pipeline}
    config = {"experiment": "compile-pipeline", "seed": 1, "params": params}
    config_path = tmp_path / "stage.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    kind = pipeline[int(field.split("/")[1])]["transform"]
    assert err["error"] == "config" and err["fields"] == [field]
    assert field in err["message"] and kind in err["message"]


def _run_capped(tmp_path: Path, name: str, config: dict) -> tuple[subprocess.CompletedProcess, Path]:
    """``dqip run`` of ``config`` in a subprocess with 3 GiB of address space, so a missing
    check fails fast with a raw MemoryError instead of touching host memory."""
    resource = pytest.importorskip("resource")
    limit = 3 * 2**30
    config_path = tmp_path / "configs" / f"{name}.json"  # not where the report goes: it would overwrite the config
    config_path.parent.mkdir(exist_ok=True)
    config_path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "dqip.cli", "run", str(config_path), "--output-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": SRC},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc, tmp_path / f"{name}.json"


def test_cli_oversized_dense_gate_is_a_typed_error(tmp_path):
    # Both configs pass the schema.  ghz nodes=5, copies=2 (15 qubits) runs:
    # its honest gate is factored, not a 16 GiB matrix.  dqct with four input
    # qubits per node and two copies needs 25 qubits and is refused before
    # any state exists.
    dqct = {"nodes": 2, "qubits_per_node": [4, 4], "states": "random", "copies": 2, "probe": True}
    proc, _ = _run_capped(tmp_path, "big-dqct", {"experiment": "dqct", "seed": 1, "params": dqct})
    assert proc.returncode == 1, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "CapacityError"
    assert re.search(r"layout needs 25 qubits, above the ceiling of 22", err["message"])

    config = {"experiment": "ghz", "seed": 1, "params": {"nodes": 5, "copies": 2}}
    proc, report_path = _run_capped(tmp_path, "big-ghz", config)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(report_path.read_text())["results"]
    assert abs(results["run"]["acceptance_probability"] - 1.0) <= 1e-9
    assert abs(results["output_ghz_fidelity"] - 1.0) <= 1e-9


def test_cli_oversized_closeness_inputs_are_a_typed_error(tmp_path):
    # The schema caps no entry of qubits_per_node: two 31-qubit inputs would
    # take 64 GiB, and their 69-qubit layout is refused before either is drawn.
    dqct = {"nodes": 2, "qubits_per_node": [30, 1], "states": "random"}
    proc, _ = _run_capped(tmp_path, "huge-inputs", {"experiment": "dqct", "seed": 1, "params": dqct})
    assert proc.returncode == 1, proc.stderr
    assert "MemoryError" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "CapacityError"
    assert "layout needs 69 qubits, above the ceiling of 22" in err["message"]


def test_cli_closeness_layout_above_the_ceiling_is_refused_before_the_inputs_are_drawn(tmp_path, monkeypatch):
    # Two 12-qubit inputs take 512 MiB, within the byte budget, but their
    # layout needs 55 qubits: the run is refused with no input drawn.
    drawn = []
    monkeypatch.setattr(qcore, "haar_state", lambda *args: drawn.append(args))
    dqct = {"nodes": 2, "qubits_per_node": [12, 12], "states": "random"}
    with pytest.raises(CapacityError, match="layout needs 55 qubits, above the ceiling of 22"):
        run_config({"experiment": "dqct", "seed": 1, "params": dqct}, tmp_path)
    assert drawn == []


def test_cli_repeated_pipeline_see_saw_runs_under_the_memory_cap(tmp_path):
    # The record walk that feeds the see-saw carries no state vectors, so the
    # 2,560 live branches at the verification measurement cost no 16-qubit
    # vectors; every leaf of this no-instance fails its predicate, so the
    # see-saw holds none either.  Under a 3 GiB address-space cap the run must
    # finish or fail with a typed error, never with a raw MemoryError.
    config = {
        "experiment": "compile-pipeline",
        "seed": 1,
        "params": {
            "protocol": "coin-guess",
            "instance": "no",
            "optimize": True,
            "pipeline": [{"transform": "parallel-repeat", "t": 2, "repeat_mode": "majority"}],
        },
    }
    proc, report_path = _run_capped(tmp_path, "repeat", config)
    assert proc.returncode == 0, proc.stderr
    assert "MemoryError" not in proc.stderr
    results = json.loads(report_path.read_text())["results"]
    assert results["seesaw_best"] == 0.0 and results["seesaw_sweeps"] == [[0.0]]
    assert [stage["turns"] for stage in results["stages"]] == [3, 3]


def test_cli_listings(capsys):
    assert main(["list-dam"]) == 0
    out = capsys.readouterr().out
    assert "bipartite-pls" in out and "c=1" in out
    assert main(["list-protocols"]) == 0
    out = capsys.readouterr().out
    assert "ghz-verify" in out and "closeness" in out


def test_listing_protocols_brute_forces_nothing():
    # A fresh process, so no catalog entry is memoised before the listing.
    code = (
        "from dqip import cli, dam\n"
        "calls = []\n"
        "real = dam.brute_force_value\n"
        "dam.brute_force_value = lambda *args: calls.append(args) or real(*args)\n"
        "assert cli.main(['list-protocols']) == 0\n"
        "print(len(calls))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    *listing, calls = proc.stdout.splitlines()
    assert "dqip[coin-guess]" in "\n".join(listing)
    assert calls == "0"


def test_console_entry_point_runs():
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "dqip.cli", "list-dam"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "coin-guess" in proc.stdout


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2"}])
def test_importing_dqip_pins_blas_to_one_thread_unless_set(preset):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names} | preset | {"PYTHONPATH": SRC}
    code = f"import os, sys, dqip; assert 'numpy' in sys.modules; print(*(os.environ[n] for n in {names!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [preset.get(name, "1") for name in names]
