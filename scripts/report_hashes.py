#!/usr/bin/env python3
"""SHA-256 of the JSON and CSV reports of a fixed list of ``dqip run`` configs.

A change that should not move any result can be checked in one command on
two checkouts: the printed lines must be identical.

    python scripts/report_hashes.py                       # this checkout's src/
    python scripts/report_hashes.py --src OTHER/src       # another checkout's

The configs cover the ghz experiment (exact; sampled with the honest
prover, which accepts every trial, and with the all-zero cheat, whose
accept count moves with any change of the sampler's draws; the all-zero
cheat exact, one prover qubit, and 16 qubits, whose branches hold slices of
2^16-entry states after the measurements), the closeness-test soundness probe at dqct seeds
1400000-1400007 and, on 13 qubits with two copies (a wider see-saw trie), at
seed 1400002, the sampled 17-qubit closeness test, exact closeness
tests without prover qubits (a star delivery small enough to apply through
its dense form) and on three nodes, the three compile pipelines of the
benchmark and both halvings of coin-guess padded to 9 turns (more idle
identities and pair turns), all with the see-saw on, parallel repetition
(AND and majority),
optimize, dam-brute-force and qcore-properties.  Each line reads
``<sha256>  <report file name>``.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = {"nodes": 2, "qubits_per_node": [1, 1], "states": "random", "epsilon": 0.25, "probe": True,
         "prover_qubits": 2, "restarts": 2, "sweeps": 20}
PIPELINES = {
    "pad-halve-shared": [{"transform": "pad", "target": 5}, {"transform": "halve-shared"}],
    "pad-seven-to-five": [{"transform": "pad", "target": 7}, {"transform": "seven-to-five"}],
    "pad-halve-private": [{"transform": "pad", "target": 5}, {"transform": "halve-private"}],
    "pad9-halve-shared": [{"transform": "pad", "target": 9}, {"transform": "halve-shared"}],
    "pad9-halve-private": [{"transform": "pad", "target": 9}, {"transform": "halve-private"}],
}

CONFIGS = {
    "ghz-exact": {"experiment": "ghz", "seed": 1, "params": {"nodes": 4, "copies": 2}},
    "ghz-sampled": {"experiment": "ghz", "seed": 2, "mode": "sampled", "trials": 200,
                    "params": {"nodes": 3, "copies": 2}},
    "ghz-sampled-all-zero": {"experiment": "ghz", "seed": 2, "mode": "sampled", "trials": 200,
                             "params": {"nodes": 3, "copies": 2, "strategy": "all-zero"}},
    "ghz-all-zero": {"experiment": "ghz", "seed": 3, "params": {"nodes": 3, "copies": 1, "strategy": "all-zero"}},
    "ghz-prover-qubit": {"experiment": "ghz", "seed": 4, "params": {"nodes": 3, "copies": 1, "prover_qubits": 1}},
    "ghz-16": {"experiment": "ghz", "seed": 1, "params": {"nodes": 4, "copies": 3}},
    **{f"dqct-probe-{seed}": {"experiment": "dqct", "seed": seed, "params": PROBE}
       for seed in range(1_400_000, 1_400_008)},
    "dqct-probe-copies-2": {"experiment": "dqct", "seed": 1_400_002, "params": {**PROBE, "copies": 2}},
    "dqct-sampled-17": {"experiment": "dqct", "seed": 1000, "mode": "sampled", "trials": 12,
                        "params": {"nodes": 2, "qubits_per_node": [3, 3], "states": "random", "prover_qubits": 0}},
    "dqct-exact-dense": {"experiment": "dqct", "seed": 5,
                         "params": {"nodes": 2, "qubits_per_node": [1, 1], "states": "random", "prover_qubits": 0}},
    "dqct-exact-3-nodes": {"experiment": "dqct", "seed": 6,
                           "params": {"nodes": 3, "qubits_per_node": [1, 0, 1], "states": "random"}},
    **{f"pipeline-{name}": {"experiment": "compile-pipeline", "seed": 1,
                            "params": {"protocol": "coin-guess", "instance": "yes", "pipeline": stages,
                                       "optimize": True}}
       for name, stages in PIPELINES.items()},
    **{f"repeat-{mode}": {"experiment": "compile-pipeline", "seed": 1,
                          "params": {"protocol": "coin-guess", "instance": "no",
                                     "pipeline": [{"transform": "parallel-repeat", "t": 2, "repeat_mode": mode}]}}
       for mode in ("AND", "majority")},
    "optimize": {"experiment": "optimize", "seed": 1, "params": {"protocol": "coin-parity-echo-private",
                                                                 "instance": "no"}},
    "dam-brute-force": {"experiment": "dam-brute-force", "seed": 1, "params": {"protocol": "bipartite-pls"}},
    "qcore-properties": {"experiment": "qcore-properties", "seed": 1, "params": {"samples": 100}},
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding the dqip package to run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from dqip import cli  # from --src, which now leads sys.path

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dqip was imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as out_dir:
        for name, config in CONFIGS.items():
            for path in cli.run_experiment(config, Path(out_dir) / name):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
