import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dqip import prover, qcore
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


def test_single_message_refuses_a_prover_register_that_does_not_start_at_zero():
    # Seeded, the prover's block is no preparation: a basis message would not be what it sends.
    spec = replace(coin_check_spec([E0, PLUS]), initial_factors=((("M:0",), PLUS),))
    with pytest.raises(ShapeError, match=r"registers at \|0...0> before its turn"):
        exact_single_message_max(spec)


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
    # blocks: 2 witnesses, 4 suffixes and 2 trie fronts at once (the prefix
    # both coin branches share up to turn 3, and the front being computed).
    # Each path's tail (its two 2-qubit verification ops, then the two 1-qubit
    # accept projectors both paths share) spans 4 qubits, too wide for a
    # dense accept form on 5, so each form is T then T^dag: the adjoints of
    # its own 2-qubit ops (2 * 256 bytes) and one composite of the four
    # projector applications on 2 qubits (256 bytes), and the shared
    # projectors' adjoints once (2 * 64 bytes).  The backward half also
    # applies the adjoints of the two 2-qubit ops between the blocks
    # (2 * 256 bytes): 10 operators and 2,176 bytes in all.
    spec, honest = random_clean_spec(0, coin=True)
    requested = 8 * 512 + 2 * (2 * 256 + 256) + 2 * 64 + 2 * 256
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", requested - 1)
    with pytest.raises(CapacityError) as err:
        seesaw_optimize(spec, OptimizerConfig(restarts=1, sweeps=2, seed=1), honest=honest)
    message = "over 2 paths, 4 block suffixes and 2 trie fronts, with 10 compiled fixed operators"
    assert f"see-saw of 'random-clean-0' {message}" in str(err.value)
    assert err.value.requested == requested
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", requested)
    seesaw_optimize(spec, OptimizerConfig(restarts=1, sweeps=2, seed=1), honest=honest)


def seeded_halving():
    """Shared halving of a 6-node random spec, which puts 13 qubits in turn 1, with the prover's
    register P seeded to |+>: turn 1's block is then no preparation, so the see-saw needs it dense."""
    compiled = halve_turns_shared(*random_clean_spec(0, turns=5, nodes=6))
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    return replace(compiled.spec, initial_factors=((("P",), plus),)), compiled.honest


def test_seesaw_runs_a_13_qubit_preparation_block_as_a_unit_state():
    # Unseeded, turn 1's 13-qubit block meets |0...0>: a unit vector of 8192
    # entries, with no dense honest gate and no Haar QR.
    compiled = halve_turns_shared(*random_clean_spec(0, turns=5, nodes=6))
    trie = prover._Trie(compiled.spec, compiled.honest.reply)
    (turn1,) = (key for key in trie.blocks if key[0] == 1)
    assert len(trie.blocks[turn1]) == 13 and turn1 in trie.preparations
    for honest in (compiled.honest, None):
        trace = seesaw_optimize(compiled.spec, OptimizerConfig(restarts=1, sweeps=3, seed=1), honest=honest)
        assert trace.best_gates[turn1].shape == (2**13,)
        assert 0 <= trace.best_acceptance <= 1 + 1e-9
        for before, after in zip(trace.sweep_acceptance[0], trace.sweep_acceptance[0][1:]):
            assert after >= before - 1e-9


def test_seesaw_refusal_of_the_honest_start_names_the_spec_and_the_turn():
    spec, honest = seeded_halving()
    with pytest.raises(CapacityError) as err:
        seesaw_optimize(spec, OptimizerConfig(restarts=1, sweeps=1, seed=1), honest=honest)
    message = str(err.value)
    assert "dense 8192x8192 operator for the honest gate of turn 1" in message
    assert repr(spec.name) in message


def run_capped(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` with 3 GiB of address space and dqip and ``specs`` on its path, so a missing
    check fails fast with a raw MemoryError instead of touching host memory."""
    resource = pytest.importorskip("resource")
    limit = 3 * 2**30
    path = os.pathsep.join([str(Path(qcore.__file__).parents[1]), str(Path(__file__).parent)])  # dqip and specs
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_seesaw_refuses_a_haar_block_it_cannot_draw_under_a_memory_cap():
    # Without the honest start, restart 0 draws a Haar block on turn 1's 13
    # qubits (seeded, so no preparation).  The matrix alone fits the 1 GiB
    # budget, but the draw holds about four times its size; under a 3 GiB
    # address-space cap it must be refused before it allocates, never end in
    # a raw MemoryError.
    proc = run_capped(
        "from dataclasses import replace\n"
        "import numpy as np\n"
        "from specs import random_clean_spec\n"
        "from dqip.errors import CapacityError\n"
        "from dqip.prover import OptimizerConfig, seesaw_optimize\n"
        "from dqip.transforms import halve_turns_shared\n"
        "compiled = halve_turns_shared(*random_clean_spec(0, turns=5, nodes=6))\n"
        "spec = replace(compiled.spec, initial_factors=((('P',), np.ones(2, dtype=complex) / 2**0.5),))\n"
        "try:\n"
        "    seesaw_optimize(spec, OptimizerConfig(restarts=1, sweeps=1, seed=1))\n"
        "except CapacityError as err:\n"
        "    print(err.requested)\n"
        "    print(err)\n"
    )
    assert proc.returncode == 0 and "MemoryError" not in proc.stderr, proc.stderr
    requested, message = proc.stdout.splitlines()
    assert int(requested) == qcore.HAAR_PEAK_MATRICES * 16 * 4**13
    assert "a Haar block of turn 1 in the see-saw of 'halved-sh[random-clean-0]'" in message


def test_seesaw_of_a_14_qubit_reduction_finishes_under_a_memory_cap():
    # The shared halving of a random 5-turn dAM no-instance (s = 3/4) has 14
    # qubits, all in turn 1's block: a preparation, so no 16384 x 16384 gate.
    # Under a 3 GiB address-space cap the see-saw must never end in a raw
    # MemoryError; it finishes (in about 2 s at about 110 MB), below the
    # halving's soundness bound (1 + sqrt(s))/2.
    proc = run_capped(
        "from specs import random_dam\n"
        "from dqip.dam import brute_force_value\n"
        "from dqip.errors import CapacityError\n"
        "from dqip.network import path_graph\n"
        "from dqip.prover import OptimizerConfig, seesaw_optimize\n"
        "from dqip.transforms import dam_to_dqip, halve_turns_shared\n"
        "dam, instance = random_dam(0, 5), path_graph(2, ['0', '1'])\n"
        "value = brute_force_value(dam, instance)\n"
        "compiled = dam_to_dqip(dam, instance, value)\n"
        "halved = halve_turns_shared(compiled.spec, compiled.honest)\n"
        "print(halved.spec.layout.total_qubits, float(value.optimal_acceptance))\n"
        "try:\n"
        "    config = OptimizerConfig(restarts=2, sweeps=20, seed=1)\n"
        "    trace = seesaw_optimize(halved.spec, config, honest=halved.honest)\n"
        "    print(repr(trace.best_acceptance))\n"
        "except CapacityError as err:\n"
        "    print('CapacityError', err)\n"
    )
    assert proc.returncode == 0 and "MemoryError" not in proc.stderr, proc.stderr
    header, outcome = proc.stdout.splitlines()
    qubits, s = header.split()
    assert int(qubits) == 14 and float(s) == 0.75
    assert not outcome.startswith("CapacityError"), outcome
    assert float(outcome) <= (1 + np.sqrt(0.75)) / 2 + 1e-9


def test_seesaw_classifies_each_recorded_op_once(classified):
    # The closeness-test probe the benchmark runs: the record walk classifies
    # each fixed operator once (also those of predicate-failing leaves, which
    # are dropped), and the see-saw only adds what its trie compiles: the
    # fused composites (at most one per fixed-op node of the trie), the accept
    # forms (at most one per path) and the adjoints its backward half applies
    # (at most one per recorded op: a composite's stands for two or more), as
    # many as the trie plans.  The process table of read-only gates is emptied
    # before each walk, so the see-saw's own record walk classifies what the
    # first one did.
    instance = make_instance(path_graph(2), (1, 1), "random", seed=1_400_000)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, seed=1_400_000, prover_qubits=2))
    paths, _ = collect_paths(compiled.spec, compiled.honest)
    walk = len(classified)
    recorded = {id(op) for path in paths for op in path.ops + path.accept if isinstance(op, qcore.StructuredOp)}
    assert 0 < len(recorded) <= walk
    trie = prover._Trie(compiled.spec, compiled.honest.reply)
    planned = trie.operators
    trie.compile()
    own = {id(op) for path in trie.paths for op in path.ops + path.accept if isinstance(op, qcore.StructuredOp)}
    nodes = [op for op in trie.op if isinstance(op, qcore.StructuredOp)]
    composites = {id(op) for op in nodes if id(op) not in own}
    forms = {id(op) for form in trie.accept for op in form if id(op) not in own}
    assert 0 < len(composites) <= len(nodes) and 0 < len(forms) <= len(paths)
    assert 0 < len(trie._adjoints) <= len(recorded)
    assert planned == len(composites) + len(forms) + len(trie._adjoints)
    classified.clear()
    qcore.StructuredOp._shared.clear()
    seesaw_optimize(compiled.spec, OptimizerConfig(restarts=2, sweeps=3, seed=1), honest=compiled.honest)
    keys = [(id(matrix), targets) for matrix, targets in classified]
    assert len(keys) == len(set(keys))
    assert len(keys) == walk + planned
