import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dqip import qcore
from dqip.corpus import coin_check_honest, coin_check_spec
from dqip.dqct import build_pdqct, make_instance
from dqip.errors import CapacityError, ShapeError, ValidationError
from dqip.ghz import GhzProtocolParams
from dqip.network import path_graph
from dqip.prover import (
    OptimizerConfig,
    exact_single_message_max,
    seesaw_optimize,
)
from dqip.protocol import ProverTurn, ReplySlot, VerifierTurn, collect_paths, execute_exact
from dqip.transforms import halve_turns_shared

from specs import prover_blind_spec, random_clean_spec


E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def test_single_message_accept_zero():
    value, vec = exact_single_message_max(coin_check_spec([E0]))
    assert abs(value - 1.0) <= 1e-10
    assert abs(abs(vec[0]) - 1.0) <= 1e-8


def test_single_message_incompatible_demands():
    value, _ = exact_single_message_max(coin_check_spec([E0, E1]))
    assert abs(value - 0.5) <= 1e-10


def test_single_message_zero_plus_pair():
    # Top eigenvalue of (|0><0| + |+><+|)/2 is (1 + 1/sqrt(2)) / 2.
    value, _ = exact_single_message_max(coin_check_spec([E0, PLUS]))
    assert abs(value - (1 + 1 / np.sqrt(2)) / 2) <= 1e-10


def test_single_message_shape_errors():
    spec, _ = random_clean_spec(0)  # two prover turns
    with pytest.raises(ShapeError):
        exact_single_message_max(spec)


@pytest.mark.parametrize("change", ["replies", "second"])
def test_single_message_refuses_a_turn_with_replies_or_after_a_verifier_turn(change):
    spec = coin_check_spec([E0, PLUS])
    if change == "replies":
        turns = (replace(spec.turns[0], replies=(ReplySlot("guess", 2, (0,)),)), *spec.turns[1:])
    else:
        turns = (VerifierTurn(), *spec.turns)
    with pytest.raises(ShapeError, match="exact_single_message_max"):
        exact_single_message_max(replace(spec, turns=turns))


def test_seesaw_refuses_to_freeze_every_prover_turn():
    spec, honest = random_clean_spec(0)
    prover_turns = tuple(i for i, turn in enumerate(spec.turns, 1) if isinstance(turn, ProverTurn))
    assert len(prover_turns) == 2
    with pytest.raises(ShapeError, match="pinned every prover block"):
        seesaw_optimize(spec, OptimizerConfig(restarts=1, sweeps=1), honest=honest, freeze_turns=prover_turns)


def test_seesaw_flat_on_prover_independent_spec():
    spec, honest = prover_blind_spec()
    trace = seesaw_optimize(spec, OptimizerConfig(restarts=2, sweeps=10, seed=3), honest=honest)
    exact = execute_exact(spec, honest).acceptance_probability
    assert abs(trace.best_acceptance - exact) <= 1e-9
    for history in trace.sweep_acceptance:
        assert max(history) - min(history) <= 1e-9


@pytest.mark.parametrize("vectors", [[E0], [E0, E1], [E0, PLUS]])
def test_seesaw_matches_single_message_spectral_max(vectors):
    spec = coin_check_spec(vectors)
    value, _ = exact_single_message_max(spec)
    trace = seesaw_optimize(
        spec, OptimizerConfig(restarts=3, sweeps=200, seed=11), honest=coin_check_honest()
    )
    assert trace.best_acceptance <= value + 1e-8
    assert abs(trace.best_acceptance - value) <= 1e-6


def test_seesaw_monotone_and_bounded_on_random_specs():
    for seed in range(4):
        spec, honest = random_clean_spec(seed, coin=(seed % 2 == 0))
        trace = seesaw_optimize(spec, OptimizerConfig(restarts=3, sweeps=60, seed=seed), honest=honest)
        assert trace.best_acceptance <= 1 + 1e-9
        honest_value = execute_exact(spec, honest).acceptance_probability
        assert trace.best_acceptance >= honest_value - 1e-9
        for history in trace.sweep_acceptance:
            for before, after in zip(history, history[1:]):
                assert after >= before - 1e-9


def test_seesaw_strategy_reproducible_and_executable():
    spec, honest = random_clean_spec(1)
    cfg = OptimizerConfig(restarts=2, sweeps=40, seed=5)
    t1 = seesaw_optimize(spec, cfg, honest=honest)
    t2 = seesaw_optimize(spec, cfg, honest=honest)
    assert t1.best_acceptance == t2.best_acceptance
    # The returned strategy reproduces its claimed acceptance in the executor.
    report = execute_exact(spec, t1.best_strategy)
    assert abs(report.acceptance_probability - t1.best_acceptance) <= 1e-9


def test_optimizer_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(sweeps=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(restarts=0)


def test_seesaw_refuses_vectors_over_the_budget_before_the_first_sweep(monkeypatch):
    # Two coin paths of 5 qubits (512 bytes a vector), each through two prover
    # blocks: 2 witnesses, 4 suffixes and 3 trie fronts at once (the prefix
    # both coin branches share up to turn 3, one branch's front past its
    # turn-3 block, and the front being computed).
    spec, honest = random_clean_spec(0, coin=True)
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 9 * 512 - 1)
    with pytest.raises(CapacityError) as err:
        seesaw_optimize(spec, OptimizerConfig(restarts=1, sweeps=2, seed=1), honest=honest)
    assert "see-saw of 'random-clean-0' over 2 paths, 4 block suffixes and 3 trie fronts" in str(err.value)
    assert err.value.requested == 9 * 512
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 9 * 512)
    seesaw_optimize(spec, OptimizerConfig(restarts=1, sweeps=2, seed=1), honest=honest)


def test_seesaw_refusal_of_the_honest_start_names_the_spec_and_the_turn():
    # Shared halving of a 6-node random spec puts 13 qubits in turn 1.
    compiled = halve_turns_shared(*random_clean_spec(0, turns=5, nodes=6))
    with pytest.raises(CapacityError) as err:
        seesaw_optimize(compiled.spec, OptimizerConfig(restarts=1, sweeps=1, seed=1), honest=compiled.honest)
    message = str(err.value)
    assert "dense 8192x8192 operator for the honest gate of turn 1" in message
    assert repr(compiled.spec.name) in message


def test_seesaw_refuses_a_haar_block_it_cannot_draw_under_a_memory_cap():
    # Without the honest start, restart 0 draws a Haar block on turn 1's 13
    # qubits.  The matrix alone fits the 1 GiB budget, but the draw holds
    # about four times its size; under a 3 GiB address-space cap it must be
    # refused before it allocates, never end in a raw MemoryError.
    resource = pytest.importorskip("resource")
    limit = 3 * 2**30
    code = (
        "from specs import random_clean_spec\n"
        "from dqip.errors import CapacityError\n"
        "from dqip.prover import OptimizerConfig, seesaw_optimize\n"
        "from dqip.transforms import halve_turns_shared\n"
        "compiled = halve_turns_shared(*random_clean_spec(0, turns=5, nodes=6))\n"
        "try:\n"
        "    seesaw_optimize(compiled.spec, OptimizerConfig(restarts=1, sweeps=1, seed=1))\n"
        "except CapacityError as err:\n"
        "    print(err.requested)\n"
        "    print(err)\n"
    )
    path = os.pathsep.join([str(Path(qcore.__file__).parents[1]), str(Path(__file__).parent)])  # dqip and specs
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0 and "MemoryError" not in proc.stderr, proc.stderr
    requested, message = proc.stdout.splitlines()
    assert int(requested) == qcore.HAAR_PEAK_MATRICES * 16 * 4**13
    assert "a Haar block of turn 1 in the see-saw of 'halved-sh[random-clean-0]'" in message


def test_seesaw_classifies_each_recorded_op_once(classified):
    # The closeness-test probe the benchmark runs: the record walk classifies
    # each fixed operator once (also those of predicate-failing leaves, which
    # are dropped), and the see-saw only adds the adjoints of the recorded ops.
    # The process table of read-only gates is emptied before each walk, so the
    # see-saw's own record walk classifies what the first one did.
    instance = make_instance(path_graph(2), (1, 1), "random", seed=1_400_000)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, seed=1_400_000, prover_qubits=2))
    paths, _ = collect_paths(compiled.spec, compiled.honest)
    walk = len(classified)
    recorded = {id(op) for path in paths for op in path.ops + path.accept if isinstance(op, qcore.StructuredOp)}
    assert 0 < len(recorded) <= walk
    classified.clear()
    qcore.StructuredOp._shared.clear()
    seesaw_optimize(compiled.spec, OptimizerConfig(restarts=2, sweeps=3, seed=1), honest=compiled.honest)
    keys = [(id(matrix), targets) for matrix, targets in classified]
    assert len(keys) == len(set(keys))
    assert len(keys) == walk + len(recorded)
