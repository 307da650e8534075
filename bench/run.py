"""dqip benchmark: one workload per invocation, end to end or traced by layer.

    python3 bench/run.py --workload seesaw --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload pipeline --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload ghz --seed 1 --smoke

Run from the root of a checkout.  Each workload runs closed-loop (one
client, one op at a time) in fresh worker processes that import dqip from
the checkout's ``src``.  One worker sets up and goes on to the timed phase,
a fixed number of ops sized to last about ``--seconds``.  With ``--trace 0``
set-up is also measured in one fresh process before it and one after it,
and reported as the median of the three.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``failed`` counts ops that hit a known fault of
the program on fixed inputs; ``correct`` is false, and the exit code 1, when
any other check fails or an op raises.  ``--smoke`` runs one set-up and one
op with every check on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS_AROUND = 1  # fresh set-up-only processes before and again after the timed one
TIME_LIMIT_S = 170.0
WORKLOADS = ("seesaw", "ghz", "sampled", "pipeline")  # named here so the parent never imports dqip


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spawned-at", repr(spawned_at), "--out", str(OUT_DIR),
    ]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker ran past the {TIME_LIMIT_S:.0f} s limit") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer_metrics(result: dict) -> tuple[dict, list[str]]:
    """Median of each layer metric over the traced ops; counts must repeat exactly
    across the traced ops that had the same inputs."""
    from tracing import COUNT_METRICS, LAYER_METRICS

    layers, errors = result["layers"], []
    for name in COUNT_METRICS:
        seen: dict[int, set] = {}
        for layer in layers:
            seen.setdefault(layer["inputs"], set()).add(layer[name])
        if any(len(values) > 1 for values in seen.values()):
            errors.append(f"count {name} differs across ops with the same inputs: {seen}")
    values = {name: statistics.median(layer[name] for layer in layers) for name in LAYER_METRICS if name in layers[0]}
    values["trace.overhead_ms"] = statistics.median(result["traced_ms"]) - statistics.median(result["op_ms"])
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one set-up and one op, every check on")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if not (ROOT / "src" / "dqip" / "__init__.py").is_file():
            raise BenchError(f"no dqip sources under {ROOT / 'src'}; run from a checkout of the repository")
        around = 0 if args.smoke or args.trace else SETUP_RUNS_AROUND
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(around)]
        result = run_worker(args, deadline, setup_only=False)
        setups.append(result["setup_s"])
        setups += [run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(around)]
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    if not result["op_ms"] or (args.trace and not result["layers"]):
        print("bench: no timed op completed", file=sys.stderr)
        return 1

    errors = list(result["errors"])
    if args.trace:
        metrics, count_errors = per_layer_metrics(result)
        errors += count_errors
    else:
        op_ms = result["op_ms"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {result['attempted']} ops, {result['failed']} failed, "
          f"setups {setups}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
