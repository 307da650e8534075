#!/usr/bin/env python3
"""Walk a classical protocol through the full turn-reduction chain.

Compiles a 3-turn classical toy to a quantum protocol, pads it, halves it
with a shared coin, reduces the padded 7-turn version to 5 turns, halves the
padded 5-turn version with private coins, and runs the adversarial optimizer
against every stage's no-instance, printing the measured values next to the
(1+c)/2 and (1+sqrt(s))/2 predictions.

Usage: python scripts/turn_reduction_demo.py [--restarts N] [--sweeps N]
"""

import argparse
import sys

from dqip.dam import catalog_entry
from dqip.protocol import execute_exact
from dqip.prover import OptimizerConfig, seesaw_optimize
from dqip.transforms import (
    dam_to_dqip,
    halve_turns_private,
    halve_turns_shared,
    halved_completeness,
    halved_soundness,
    pad_to_turns,
    seven_to_five,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default="coin-parity-echo-private")
    parser.add_argument("--restarts", type=int, default=4)
    parser.add_argument("--sweeps", type=int, default=60)
    args = parser.parse_args(argv)

    entry = catalog_entry(args.protocol)
    c, s = float(entry.completeness), float(entry.soundness)
    print(f"{entry.name}: classical completeness {c}, soundness {s}")
    config = OptimizerConfig(restarts=args.restarts, sweeps=args.sweeps, seed=2)

    for label, target, reduce in (
        ("shared halving 5 -> 3", 5, halve_turns_shared),
        ("leader coin 7 -> 5", 7, seven_to_five),
        ("private halving 5 -> 5", 5, halve_turns_private),
    ):
        yes = dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
        padded = pad_to_turns(yes.spec, yes.honest, target)
        reduced = reduce(padded.spec, padded.honest, completeness=c, soundness=s)
        honest = execute_exact(reduced.spec, reduced.honest).acceptance_probability
        print(f"\n{label}: {padded.spec.num_turns} turns -> {reduced.spec.num_turns}")
        print(f"  honest acceptance {honest:.10f} (predicted {halved_completeness(c):.10f})")

        no = dam_to_dqip(entry.protocol, entry.no_instance, entry.no)
        padded_no = pad_to_turns(no.spec, no.honest, target)
        reduced_no = reduce(padded_no.spec, padded_no.honest, soundness=s)
        trace = seesaw_optimize(reduced_no.spec, config, honest=reduced_no.honest)
        print(f"  best cheating found {trace.best_acceptance:.10f} (bound {halved_soundness(s):.10f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
