#!/usr/bin/env python3
"""Closeness-testing sweep: acceptance vs input overlap, with bounds.

For a ladder of input pairs interpolating from identical to orthogonal,
runs the honest protocol and an adversarial see-saw probe, and records the
trace-distance bound implied by each measured acceptance next to the true
input distance.  The bound column should always dominate the distance
column; the gap shows how much slack the epsilon parameter leaves.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from dqip.dqct import DqctInstance, build_pdqct, closeness_bound, input_trace_distance, soundness_probe
from dqip.ghz import GhzProtocolParams
from dqip.network import path_graph
from dqip.protocol import execute_exact
from dqip.prover import OptimizerConfig


def interpolated_instance(graph, angle: float) -> DqctInstance:
    total = graph.node_count
    psi = np.zeros(2**total, dtype=complex)
    psi[0] = 1.0
    phi = np.zeros(2**total, dtype=complex)
    phi[0], phi[-1] = np.cos(angle), np.sin(angle)
    return DqctInstance(graph, (1,) * total, psi, phi)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--probe", action="store_true", help="also run the adversarial see-saw")
    parser.add_argument("--out", type=Path, default=Path("dqct_soundness_sweep.csv"))
    args = parser.parse_args(argv)

    graph = path_graph(2)
    params = GhzProtocolParams(copies=1, epsilon=args.epsilon, prover_qubits=2)
    rows = []
    for step in range(args.steps + 1):
        angle = (np.pi / 2) * step / args.steps
        instance = interpolated_instance(graph, angle)
        compiled = build_pdqct(instance, params)
        honest = execute_exact(compiled.spec, compiled.honest).acceptance_probability
        row = {
            "overlap_squared": instance.overlap_squared(),
            "honest_acceptance": honest,
            "input_distance": input_trace_distance(instance),
            "bound_at_honest": closeness_bound(honest, args.epsilon),
        }
        if args.probe:
            probe = soundness_probe(instance, compiled, honest, OptimizerConfig(restarts=3, sweeps=40, seed=1))
            row["best_acceptance"] = probe["best_acceptance"]
            row["bound_at_best"] = probe["distance_bound_at_best"]
        rows.append(row)
        print(", ".join(f"{k}={v:.6f}" for k, v in row.items()))

    with args.out.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
