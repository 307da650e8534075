"""One workload in one fresh process: set up, warm up, run the timed phase.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread, a fixed
``PYTHONHASHSEED`` and ``PYTHONPATH`` set to the checkout's ``src``.  Prints
one JSON line with the raw measurements.  Set-up time runs from the moment
``run.py`` started this process (``--spawned-at``, read from the
system-wide monotonic clock) to the start of the first timed op, so it
covers interpreter start, imports, instance construction and the warm-up
op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def timed_op_count(workload, seconds: float, smoke: bool, trace: bool) -> int:
    """A fixed count of whole rounds that fills ``seconds`` on the reference machine.

    A traced run alternates untraced and traced ops, so its count is even.  A
    smoke run makes one op, or one of each kind when traced.
    """
    if smoke:
        return 2 if trace else 1
    rounds = max(1, round(seconds * 1000 / workload.nominal_op_ms / workload.round_size))
    if trace:
        rounds = max(1, rounds // 2) * 2
    return rounds * workload.round_size


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import dqip

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(dqip.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dqip was imported from {dqip.__file__}, not from {src}")

    from workloads import WORKLOADS, CheckError, KnownFault

    workload = WORKLOADS[args.workload](args.seed, args.out / args.workload)
    warm = workload.op(0)
    try:
        workload.check(warm, workload.expect(0))
    except KnownFault:
        pass  # counted when the same inputs come round in the timed phase
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    count = timed_op_count(workload, args.seconds, args.smoke, bool(args.trace))
    op_ms: list[float] = []
    traced_ms: list[float] = []
    layers: list[dict] = []
    outcomes: list[tuple] = []
    failed, errors = 0, []
    phase_start = time.perf_counter()
    for index in range(1, count + 1):
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.start_op()
        start = time.perf_counter()
        try:
            outcomes.append((index, workload.op(index)))
        except Exception as err:  # the program crashed: the op failed and the run is not correct
            failed += 1
            errors.append(f"op {index} raised {type(err).__name__}: {err}")
            traceback.print_exc()
            continue
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000
            layer = tracer.stop_op() if traced else None
        if traced:
            traced_ms.append(elapsed_ms)
            layers.append({"inputs": workload.inputs_key(index), **layer})
        else:
            op_ms.append(elapsed_ms)
    phase_s = time.perf_counter() - phase_start

    # Checked after the timed phase, so the checks are never timed.
    for index, outcome in outcomes:
        try:
            workload.check(outcome, workload.expect(index))
        except CheckError as err:
            errors.append(f"op {index}: {err}")
        except KnownFault as err:
            failed += 1
            print(f"op {index} failed: {err}", file=sys.stderr)
    try:
        workload.finish()
    except CheckError as err:
        errors.append(str(err))

    result = {
        "setup_s": setup_s,
        "attempted": count,
        "failed": failed,
        "errors": errors,
        "op_ms": op_ms,
        "ops_per_s": len(outcomes) / phase_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine_info(),
    }
    if tracer is not None:
        result["traced_ms"] = traced_ms
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
