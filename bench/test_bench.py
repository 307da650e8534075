"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

The smoke tests run the same command as a measurement, one op per workload
with every check on.  The check tests give each workload's check a wrong
expected value and require it to fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from tracing import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS, CheckError, KnownFault  # noqa: E402


def run_bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = run_bench("--workload", workload, "--seed", "3", "--smoke")
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_counts_repeat_across_runs(workload):
    first, second = (run_bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "1") for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


# (op indices, expected key, wrong value): each one a plausible mistake.
WRONG = {
    "seesaw": ([1], "honest_acceptance", lambda v: v + 1e-6),
    "ghz": ([1], "ghz_fidelity", lambda v: v - 1e-6),
    # The orthogonal-input ops of a round, p = 1/2, pooled by the check.
    "sampled": (range(1, WORKLOADS["sampled"].round_size, 3), "acceptance", lambda v: 0.95),
    "pipeline": ([1], "classical_value", lambda v: Fraction(1, 2)),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_check_fails_on_a_wrong_expected_value(workload, tmp_path):
    indices, key, wrong = WRONG[workload]
    bench = WORKLOADS[workload](seed=3, out_dir=tmp_path)
    ops = [(bench.op(index), bench.expect(index)) for index in indices]
    for outcome, expected in ops:
        bench.check(outcome, expected)
    bench.finish()
    bench = WORKLOADS[workload](seed=3, out_dir=tmp_path)
    with pytest.raises(CheckError):
        for outcome, expected in ops:
            bench.check(outcome, {**expected, key: wrong(expected[key])})
        bench.finish()


def test_seesaw_counterexample_is_a_known_fault(tmp_path):
    bench = WORKLOADS["seesaw"](seed=1, out_dir=tmp_path)  # op 1 of seed 1 is dqct seed 1400002
    with pytest.raises(KnownFault):
        bench.check(bench.op(1), bench.expect(1))


def test_refuses_to_run_without_the_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in BENCH_DIR.glob("*.py"):
        (bare / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ghz", "--seed", "1"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
