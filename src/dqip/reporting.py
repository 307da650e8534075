"""Deterministic JSON/CSV report writing.

Reports embed the fully resolved configuration and the package version and
contain no timestamps or machine identifiers, so a config run twice yields
byte-identical files.  The CSV is a flat projection of every numeric scalar
in the JSON document: one ``experiment,metric,value`` row per leaf.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__


def jsonify(value):
    """Recursively convert arrays, numpy scalars and objects with ``to_json`` to JSON types."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[float(z.real), float(z.imag)] for z in value.reshape(-1)]
        return [float(x) for x in value.reshape(-1)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if hasattr(value, "to_json"):
        return jsonify(value.to_json())
    return value


def report_document(experiment: str, config: dict, results: dict) -> dict:
    return {
        "format": "dqip-report/1",
        "version": __version__,
        "experiment": experiment,
        "config": jsonify(config),
        "results": jsonify(results),
    }


def scalar_rows(doc: dict) -> list[tuple[str, str, float]]:
    """Flatten every numeric leaf of the results into CSV rows."""
    experiment = doc.get("experiment", "unknown")
    rows: list[tuple[str, str, float]] = []

    def walk(value, path: str) -> None:
        if isinstance(value, bool):
            rows.append((experiment, path, float(value)))
        elif isinstance(value, (int, float)):
            rows.append((experiment, path, float(value)))
        elif isinstance(value, dict):
            for key in sorted(value):
                walk(value[key], f"{path}.{key}" if path else str(key))
        elif isinstance(value, list):
            # Matrices and amplitude dumps are not scalar metrics.
            if value and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
                for i, v in enumerate(value):
                    rows.append((experiment, f"{path}[{i}]", float(v)))

    walk(doc.get("results", {}), "")
    return rows


def report_paths(stem: Path) -> tuple[Path, Path]:
    """``<stem>.json`` and ``<stem>.csv``: the suffix is appended, so a dot in the stem's name stays."""
    stem = Path(stem)
    return stem.with_name(stem.name + ".json"), stem.with_name(stem.name + ".csv")


def write_report(doc: dict, stem: Path) -> tuple[Path, Path]:
    """Write ``<stem>.json`` and the matching ``<stem>.csv`` projection."""
    json_path, csv_path = report_paths(stem)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    lines = ["experiment,metric,value"]
    for experiment, metric, value in scalar_rows(doc):
        lines.append(f"{experiment},{metric},{value!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    return json_path, csv_path
