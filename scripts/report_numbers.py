#!/usr/bin/env python3
"""Where the numbers of two sets of ``dqip run`` reports differ, and by how much.

Compares two directories of reports kept by ``report_hashes.py --out`` and
prints one line for each report whose bytes differ: the largest absolute
change over the numbers in it, where that change is, the two values, and the
same for the paths that contain each name in ``KEYS``.

    python scripts/report_hashes.py --src OTHER/src --out BASE
    python scripts/report_hashes.py --out HEAD
    python scripts/report_numbers.py BASE HEAD

A JSON report is compared leaf by leaf at the same key path (for example
``results.probe.sweep_acceptance[1][3]``), a CSV report cell by cell, each
row labelled by its cells that are not numbers.  Leaves present on one side
only, and changed values that are not numbers, are counted as structural
changes.  A report that only one side holds is named as such.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

# The see-saw's results: its best value and its sweep histories, as the dqct
# and compile-pipeline reports name them.
KEYS = ("best_acceptance", "sweep_acceptance", "seesaw_best", "seesaw_sweeps")


def leaves(path: Path) -> dict:
    """Every leaf of a JSON or CSV report, by its path."""
    if path.suffix == ".json":
        found: dict = {}

        def walk(obj, at: str) -> None:
            if isinstance(obj, dict):
                for key, value in obj.items():
                    walk(value, f"{at}.{key}" if at else str(key))
            elif isinstance(obj, list):
                for j, value in enumerate(obj):
                    walk(value, f"{at}[{j}]")
            else:
                found[at] = obj

        walk(json.loads(path.read_text()), "")
        return found
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, found = rows[0], {}
    for r, row in enumerate(rows[1:], 1):
        values = [_number(cell) for cell in row]
        label = ",".join(cell for cell, value in zip(row, values) if value is None) or f"row {r}"
        for column, cell, value in zip(header, row, values):
            if value is not None:
                found[f"{label}:{column}"] = value
    return found


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(base: dict, head: dict, keys=KEYS) -> tuple[tuple, dict, int]:
    """The largest change ``(size, path, base value, head value)``, the largest per key name, and the
    count of structural changes."""
    largest, per_key, structural = (0.0, "", None, None), {key: (0.0, "", None, None) for key in keys}, 0
    for at in sorted(base.keys() | head.keys()):
        if at not in base or at not in head:
            structural += 1
            continue
        old, new = base[at], head[at]
        if not (_is_number(old) and _is_number(new)):
            structural += old != new
            continue
        change = (abs(new - old), at, old, new)
        largest = max(largest, change, key=lambda c: c[0])
        for key in keys:
            if key in at:
                per_key[key] = max(per_key[key], change, key=lambda c: c[0])
    return largest, per_key, structural


def _describe(change: tuple) -> str:
    size, at, old, new = change
    return f"{size:.3g} at {at} ({old!r} -> {new!r})" if at else "0"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="reports of the checkout compared against")
    parser.add_argument("head", type=Path, help="reports of the compared checkout")
    args = parser.parse_args(argv)
    for name in sorted({path.name for side in (args.base, args.head) for path in side.iterdir()}):
        base, head = args.base / name, args.head / name
        if not (base.exists() and head.exists()):
            print(f"{name}  only in {'base' if base.exists() else 'head'}", flush=True)
            continue
        if base.read_bytes() == head.read_bytes():
            continue
        largest, per_key, structural = compare(leaves(base), leaves(head))
        line = f"{name}  largest change {_describe(largest)}"
        line += "".join(f"; {key}: {_describe(change)}" for key, change in per_key.items())
        print(line + (f"; {structural} structural changes" if structural else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
