"""Batch experiment runner.

Commands::

    dqip run <config.json> [--output-dir DIR]
    dqip verify-suite [--output-dir DIR]
    dqip list-protocols
    dqip list-dam

``run`` validates the config against the shipped JSON schema (no jsonschema
needed: :mod:`dqip.config_schema`) before it reads any field, runs the named
experiment and writes ``<output>.json`` plus a flat ``<output>.csv`` of
scalar results; a report that would overwrite the config is refused.  All
randomness is derived from the config seed, so a config always produces
byte-identical reports.  The output directory can be overridden with the
``DQIP_OUTPUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import qcore
from .config_schema import CONFIG_SCHEMA, PARAM_SCHEMAS, validate
from .dam import catalog_entry, catalog_names, toy_protocols
from .dqct import _swap_test_layout, build_pdqct, closeness_bound, input_trace_distance, make_instance, soundness_probe
from .errors import ConfigError, DqipError, ShapeError, ValidationError
from .ghz import GhzProtocolParams, all_zero_cheat, build_pghz, ghz_fidelity, pghz_layout
from .network import build_network, path_graph
from .prover import OptimizerConfig, seesaw_optimize
from .protocol import execute_exact, execute_sampled
from .reporting import report_document, report_paths, write_report
from .seeding import substream
from .transforms import (
    dam_to_dqip,
    halve_turns_private,
    halve_turns_shared,
    pad_to_turns,
    parallel_repeat,
    seven_to_five,
)


def _defaults(schema: dict) -> dict:
    """The ``"default"`` of each property of ``schema`` that states one."""
    return {key: prop["default"] for key, prop in schema["properties"].items() if "default" in prop}


_CONFIG_DEFAULTS = _defaults(CONFIG_SCHEMA)
_PARAM_DEFAULTS = {name: _defaults(schema) for name, schema in PARAM_SCHEMAS.items()}


def validate_config(config: dict) -> dict:
    """``config`` with its defaults filled in, through :func:`config_schema.validate`."""
    config = validate(CONFIG_SCHEMA, config)
    experiment = config["experiment"]
    params = validate(PARAM_SCHEMAS[experiment], {**_PARAM_DEFAULTS[experiment], **config.get("params", {})})
    return {**_CONFIG_DEFAULTS, **config, "params": params}


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def _graph_from(params: dict):
    if "edges" not in params:
        return path_graph(params["nodes"])
    try:
        return build_network(params["nodes"], [tuple(e) for e in params["edges"]])
    except ValidationError as err:
        raise ConfigError(f"config field edges: {err}", fields=["edges"]) from err


def _catalog_entry(params: dict):
    try:
        return catalog_entry(params["protocol"])
    except ValidationError as err:
        raise ConfigError(f"config field protocol: {err}", fields=["protocol"]) from err


def _catalog_instance(params: dict):
    """The catalog entry that ``params`` names, its yes or no instance and that instance's value."""
    entry = _catalog_entry(params)
    if params["instance"] == "yes":
        return entry, entry.yes_instance, entry.yes
    return entry, entry.no_instance, entry.no


def _optimizer_config(config: dict) -> OptimizerConfig:
    params = config["params"]
    return OptimizerConfig(restarts=params["restarts"], sweeps=params["sweeps"], seed=config["seed"])


def _run_or_sample(spec, strategy, config):
    if config["mode"] == "sampled":
        return execute_sampled(spec, strategy, trials=config["trials"], seed=config["seed"])
    return execute_exact(spec, strategy, collect_output=spec.output_registers is not None)


def _ghz_params(config: dict) -> GhzProtocolParams:
    params = config["params"]
    return GhzProtocolParams(
        copies=params["copies"],
        epsilon=params["epsilon"],
        delta=params["delta"],
        seed=config["seed"],
        prover_qubits=params["prover_qubits"],
    )


def _experiment_ghz(config: dict) -> dict:
    params = config["params"]
    ghz_params = _ghz_params(config)
    compiled = build_pghz(_graph_from(params), ghz_params)
    strategy = compiled.honest
    if params["strategy"] == "all-zero":
        strategy = all_zero_cheat(compiled.spec, ghz_params)
    report = _run_or_sample(compiled.spec, strategy, config)
    results = {
        "run": report,
        "compile_report": compiled.report,
        "fidelity_target": 1 - params["epsilon"],
    }
    if report.output_state is not None:
        results["output_ghz_fidelity"] = ghz_fidelity(report.output_state)
    return results


def _experiment_dqct(config: dict) -> dict:
    params = config["params"]
    graph = _graph_from(params)
    qubits = tuple(params.get("qubits_per_node", [1] * graph.node_count))
    if len(qubits) != graph.node_count:
        raise ConfigError(
            f"config field qubits_per_node: lists {len(qubits)} nodes, expected {graph.node_count}",
            fields=["qubits_per_node"],
        )
    if not sum(qubits):
        raise ConfigError("config field qubits_per_node: no node holds an input qubit", fields=["qubits_per_node"])
    ghz_params = _ghz_params(config)
    _swap_test_layout(graph, qubits, pghz_layout(graph, ghz_params))  # refuse a wide one before the draw
    instance = make_instance(graph, qubits, params["states"], seed=config["seed"])
    compiled = build_pdqct(instance, ghz_params)
    report = _run_or_sample(compiled.spec, compiled.honest, config)
    acc = report.acceptance_probability
    results = {
        "run": report,
        "compile_report": compiled.report,
        "overlap_squared": instance.overlap_squared(),
        "input_trace_distance": input_trace_distance(instance),
        "distance_bound_at_honest": closeness_bound(min(acc, 1.0), params["epsilon"]),
    }
    if params["probe"]:
        exact = report if config["mode"] == "exact" else execute_exact(compiled.spec, compiled.honest)
        probe = soundness_probe(instance, compiled, exact.acceptance_probability, _optimizer_config(config))
        trace = probe.pop("trace")
        results["probe"] = probe
        results["probe"]["sweep_acceptance"] = trace.sweep_acceptance
    return results


def _experiment_compile_pipeline(config: dict) -> dict:
    params = config["params"]
    entry, instance, value = _catalog_instance(params)
    compiled = dam_to_dqip(entry.protocol, instance, value)
    c, s = float(entry.completeness), float(entry.soundness)
    stages = [_stage_record("dam_to_dqip", compiled)]
    for i, stage in enumerate(params["pipeline"]):
        kind = stage["transform"]
        try:
            compiled = _apply_stage(compiled, stage, c, s)
        except (ShapeError, ConfigError) as err:
            if isinstance(err, ConfigError) and err.fields:
                raise
            field = f"pipeline/{i}"
            raise ConfigError(f"config field {field}: {kind} cannot apply: {err}", fields=[field]) from err
        stages.append(_stage_record(kind, compiled))
    results = {"classical_completeness": c, "classical_soundness": s, "stages": stages}
    if params["optimize"]:
        trace = seesaw_optimize(compiled.spec, _optimizer_config(config), honest=compiled.honest)
        results["seesaw_best"] = trace.best_acceptance
        results["seesaw_sweeps"] = trace.sweep_acceptance
    return results


def _stage_record(kind: str, compiled) -> dict:
    return {
        "transform": kind,
        "turns": compiled.spec.num_turns,
        "honest_acceptance": execute_exact(compiled.spec, compiled.honest).acceptance_probability,
        "report": compiled.report,
    }


def _apply_stage(compiled, stage: dict, c: float, s: float):
    kind = stage["transform"]
    if kind == "pad":
        return pad_to_turns(compiled.spec, compiled.honest, stage["target"])
    if kind == "halve-shared":
        return halve_turns_shared(compiled.spec, compiled.honest, completeness=c, soundness=s)
    if kind == "halve-private":
        return halve_turns_private(compiled.spec, compiled.honest, completeness=c, soundness=s)
    if kind == "seven-to-five":
        return seven_to_five(compiled.spec, compiled.honest, completeness=c, soundness=s)
    return parallel_repeat(compiled.spec, compiled.honest, stage["t"], stage.get("repeat_mode", "AND"))


def _experiment_optimize(config: dict) -> dict:
    params = config["params"]
    entry, instance, value = _catalog_instance(params)
    compiled = dam_to_dqip(entry.protocol, instance, value)
    trace = seesaw_optimize(compiled.spec, _optimizer_config(config), honest=compiled.honest)
    return {
        "best_acceptance": trace.best_acceptance,
        "restarts": trace.restarts,
        "sweep_acceptance": trace.sweep_acceptance,
        "classical_value": float(value.optimal_acceptance),
    }


def _experiment_dam(config: dict) -> dict:
    entry = _catalog_entry(config["params"])
    yes, no = entry.yes, entry.no
    return {
        "completeness": float(yes.optimal_acceptance),
        "completeness_exact": str(yes.optimal_acceptance),
        "soundness": float(no.optimal_acceptance),
        "soundness_exact": str(no.optimal_acceptance),
        "enumerated": yes.enumerated + no.enumerated,
    }


def _experiment_qcore(config: dict) -> dict:
    samples = config["params"]["samples"]
    lower, upper, triple = qcore.fvdg_slacks(substream(config["seed"], "cli.qcore-properties"), samples)
    return {
        "samples": samples,
        "worst_fvdg_lower_slack": lower,
        "worst_fvdg_upper_slack": upper,
        "worst_triple_inequality_slack": triple,
        "tolerance": 1e-8,
    }


EXPERIMENTS = {
    "ghz": _experiment_ghz,
    "dqct": _experiment_dqct,
    "compile-pipeline": _experiment_compile_pipeline,
    "optimize": _experiment_optimize,
    "dam-brute-force": _experiment_dam,
    "qcore-properties": _experiment_qcore,
}


def run_experiment(config: dict, stem: Path) -> tuple[Path, Path]:
    """Validate, execute and write a report; returns (json path, csv path)."""
    resolved = validate_config(config)
    results = EXPERIMENTS[resolved["experiment"]](resolved)
    doc = report_document(resolved["experiment"], resolved, results)
    return write_report(doc, stem)


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def _output_stem(config: dict, config_path: Path, output_dir: str | None) -> Path:
    """The report stem of a validated ``config``: its ``output`` or the config's own stem, in ``output_dir``,
    ``$DQIP_OUTPUT_DIR`` or ``.``; refused when either report would overwrite the config."""
    stem = Path(output_dir or os.environ.get("DQIP_OUTPUT_DIR") or ".") / (config.get("output") or config_path.stem)
    if config_path.resolve() in {path.resolve() for path in report_paths(stem)}:
        raise ConfigError(f"config field output: a report on {stem} would overwrite the config", fields=["output"])
    return stem


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dqip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--output-dir", default=None)

    verify_p = sub.add_parser("verify-suite", help="run the acceptance-criteria battery")
    verify_p.add_argument("--output-dir", default=None)

    sub.add_parser("list-protocols", help="list named protocol constructions")
    sub.add_parser("list-dam", help="list the classical protocol catalog")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            try:
                config = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as err:  # a missing file, or one that is not JSON
                raise ConfigError(f"config {args.config} is not a readable JSON file: {err}") from err
            stem = _output_stem(validate_config(config), args.config, args.output_dir)
            json_path, csv_path = run_experiment(config, stem)
            print(f"wrote {json_path} and {csv_path}")
            return 0
        if args.command == "verify-suite":
            from .acceptance import results_document, run_all

            results, total = run_all(printer=print)
            directory = args.output_dir or os.environ.get("DQIP_OUTPUT_DIR")
            if directory:
                doc = results_document(results, total)
                out = Path(directory) / "verify-suite.json"
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
                print(f"wrote {out}")
            return 0 if all(r.passed for r in results) else 1
        if args.command == "list-protocols":
            print("ghz-verify          5-turn GHZ verification (experiment: ghz)")
            print("closeness           5-turn distributed closeness test (experiment: dqct)")
            for name in catalog_names():
                print(f"dqip[{name}]".ljust(36) + "compiled classical protocol (compile-pipeline)")
            return 0
        if args.command == "list-dam":
            for entry in toy_protocols():
                print(
                    f"{entry.name:<28} turns={entry.protocol.turns} "
                    f"c={entry.completeness} s={entry.soundness}"
                )
            return 0
    except ConfigError as err:
        json.dump({"error": "config", "message": str(err), "fields": err.fields}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except DqipError as err:
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
