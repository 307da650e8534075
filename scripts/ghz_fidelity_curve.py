#!/usr/bin/env python3
"""Measured (acceptance, output-fidelity) curve of the GHZ verification.

Runs the honest prover and the all-zero cheat for a range of copy counts N
and writes one CSV row per run: more test copies push a cheating prover's
conditional output fidelity toward the honest value while its acceptance
decays.  Use this to pick N for a target (epsilon, delta) pair.
"""

import argparse
import csv
import sys
from pathlib import Path

from dqip.ghz import GhzProtocolParams, all_zero_cheat, build_pghz, ghz_fidelity
from dqip.network import path_graph
from dqip.protocol import execute_exact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--max-copies", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("ghz_fidelity_curve.csv"))
    args = parser.parse_args(argv)

    rows = []
    for copies in range(1, args.max_copies + 1):
        params = GhzProtocolParams(copies=copies)
        compiled = build_pghz(path_graph(args.nodes), params)
        for label, strategy in (
            ("honest", compiled.honest),
            ("all-zero", all_zero_cheat(compiled.spec, params)),
        ):
            report = execute_exact(compiled.spec, strategy, collect_output=True)
            fidelity = ghz_fidelity(report.output_state) if report.output_state is not None else 0.0
            rows.append(
                {
                    "nodes": args.nodes,
                    "copies": copies,
                    "strategy": label,
                    "acceptance": report.acceptance_probability,
                    "output_fidelity": fidelity,
                }
            )
            print(
                f"n={args.nodes} N={copies} {label:>8}: "
                f"acceptance={report.acceptance_probability:.6f} fidelity={fidelity:.6f}"
            )

    with args.out.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
