"""The trie walk against the per-path replays it replaced.

``per_path_sweep`` replays every recorded path in full: a backward pass per
path, a lazily advanced forward front per path, and a fresh replay of the
finals after the updates (``_final_vectors``, which ``per_path_forward``
also uses for each restart's starting value).  The trie walk merges shared
prefixes but does the same arithmetic in the same order, so both must give
equal sweep histories (starting values included), equal best gates and
equal single-message optima, compared with ``==``.
"""

import numpy as np
import pytest

from dqip import prover, qcore
from dqip.corpus import coin_check_spec, two_check_spec
from dqip.dam import catalog_entry
from dqip.dqct import build_pdqct, make_instance
from dqip.errors import CapacityError
from dqip.ghz import GhzProtocolParams
from dqip.network import allocate_layout, build_network, path_graph
from dqip.protocol import (
    Measurement,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    VerificationPhase,
    VerifierTurn,
    collect_paths,
    conditional_step,
    first_qubit_zero_accept,
    static_step,
)
from dqip.prover import OptimizerConfig, _step, exact_single_message_max, seesaw_optimize
from dqip.qcore import StructuredOp, _keep_block
from dqip.seeding import substream
from dqip.transforms import dam_to_dqip, halve_turns_private, pad_to_turns

from specs import random_clean_spec


def _final_vectors(paths, initial, gates) -> list[np.ndarray]:
    """Each path's final vector under ``gates``, each path replayed from ``initial`` on its own."""
    finals = []
    for path in paths:
        vec = initial
        for op in path.ops:
            vec = _step(vec, op, gates)
        for op in path.accept:
            vec = op.apply(vec)
        finals.append(vec)
    return finals


def per_path_forward(trie, gates, finals, suffixes=None) -> None:
    """The evaluating trie walk, replayed per path; sweeps go through ``per_path_sweep``."""
    assert suffixes is None
    finals[:] = _final_vectors(trie.paths, trie.initial, gates)


def per_path_sweep(trie, witnesses, gates) -> None:
    """One sweep that replays each path on its own, with the trie's inputs."""
    paths, initial, order, blocks = trie.paths, trie.initial, trie.order, trie.blocks
    adjoints = {key: np.ascontiguousarray(gate.conj().T) for key, gate in gates.items()}
    suffixes = []
    for path, a in zip(paths, witnesses):
        vec = a
        for op in reversed(path.accept):
            vec = op.adjoint().apply(vec)
        suffix = {}
        for pos in range(len(path.ops) - 1, -1, -1):
            op = path.ops[pos]
            if isinstance(op, StructuredOp):
                vec = op.adjoint().apply(vec)
            else:
                suffix[pos] = vec
                vec = _step(vec, op, adjoints)
        suffixes.append(suffix)

    fronts = [initial] * len(paths)
    cursor = [0] * len(paths)

    def advance(i, stop):
        while cursor[i] < stop:
            fronts[i] = _step(fronts[i], paths[i].ops[cursor[i]], gates)
            cursor[i] += 1

    positions = {key: [] for key in order}
    for i, path in enumerate(paths):
        for pos, op in enumerate(path.ops):
            if not isinstance(op, StructuredOp) and op[0] in positions:
                positions[op[0]].append((i, pos))

    for key in order:
        qubits = blocks[key]
        dim = 2 ** len(qubits)
        m = np.zeros((dim, dim), dtype=np.complex128)
        for i, pos in positions[key]:
            advance(i, pos)
            x = _keep_block(fronts[i], qubits)
            y = _keep_block(suffixes[i][pos], qubits)
            m += paths[i].weight * (x @ y.conj().T)
        gates[key] = prover._polar_maximizer(m)
        for i, pos in positions[key]:
            advance(i, pos + 1)
    witnesses[:] = _final_vectors(paths, initial, gates)


def assert_same_as_per_path(monkeypatch, spec, config, **kwargs):
    trie = seesaw_optimize(spec, config, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(prover, "_sweep", per_path_sweep)
        patch.setattr(prover, "_forward", per_path_forward)
        oracle = seesaw_optimize(spec, config, **kwargs)
    assert trie.sweep_acceptance == oracle.sweep_acceptance
    assert trie.best_acceptance == oracle.best_acceptance
    assert trie.best_gates.keys() == oracle.best_gates.keys()
    for key, gate in trie.best_gates.items():
        assert np.array_equal(gate, oracle.best_gates[key]), key
    return trie


@pytest.mark.parametrize("coin", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_trie_sweep_matches_per_path_on_random_specs(monkeypatch, seed, coin):
    spec, honest = random_clean_spec(seed, coin=coin)
    assert_same_as_per_path(monkeypatch, spec, OptimizerConfig(restarts=3, sweeps=30, seed=seed), honest=honest)


@pytest.mark.parametrize("coin", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_evaluating_walk_matches_per_path_replay(seed, coin):
    # Without suffixes the walk leaves the gates alone and only fills ``finals``.
    spec, honest = random_clean_spec(seed, coin=coin)
    paths, initial = collect_paths(spec, honest)
    blocks = prover._block_table(paths)
    order = sorted(blocks, key=lambda key: (key[0], repr(key[1])))
    trie = prover._Trie(paths, initial, blocks, order)
    rng = substream(seed, "tests.evaluating_walk")
    gates = {key: qcore.haar_matrix(len(qubits), rng, "test gate") for key, qubits in blocks.items()}
    before = {key: gate.copy() for key, gate in gates.items()}
    finals = [None] * len(paths)
    prover._forward(trie, gates, finals)
    expected = _final_vectors(paths, initial, gates)
    assert len(finals) == len(expected) == len(paths)
    for got, want in zip(finals, expected):
        assert np.array_equal(got, want)
    assert gates.keys() == before.keys()
    assert all(np.array_equal(gates[key], before[key]) for key in gates)


@pytest.mark.parametrize(
    "seed, freeze_turns", [(1_400_000, ()), (1_400_001, ()), (1_400_002, ()), (1_400_000, (1,))]
)
def test_trie_sweep_matches_per_path_on_the_dqct_probe(monkeypatch, seed, freeze_turns):
    # The benchmark's seesaw config: 11 qubits, one Haar restart at the sweep
    # cap; with turn 1 frozen, the trie applies its blocks as fixed ops.
    instance = make_instance(path_graph(2), (1, 1), "random", seed=seed)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, seed=seed, prover_qubits=2))
    config = OptimizerConfig(restarts=2, sweeps=20, seed=seed)
    assert_same_as_per_path(monkeypatch, compiled.spec, config, honest=compiled.honest, freeze_turns=freeze_turns)


@pytest.mark.parametrize("which", ["yes", "no"])
def test_trie_sweep_matches_per_path_on_private_halving(monkeypatch, which):
    entry = catalog_entry("coin-parity-echo-private")
    instance, value = (entry.yes_instance, entry.yes) if which == "yes" else (entry.no_instance, entry.no)
    compiled = dam_to_dqip(entry.protocol, instance, value)
    padded = pad_to_turns(compiled.spec, compiled.honest, 5)
    halved = halve_turns_private(
        padded.spec, padded.honest, completeness=float(entry.completeness), soundness=float(entry.soundness)
    )
    paths, _ = collect_paths(halved.spec, ProverStrategy("skeleton", lambda *_: None, halved.honest.reply))
    blocks = prover._block_table(paths)
    trie = prover._Trie(paths, None, blocks, sorted(blocks, key=lambda key: (key[0], repr(key[1]))))
    assert len(trie.parent) - 1 < sum(len(path.ops) for path in paths)  # prefixes are shared
    config = OptimizerConfig(restarts=2, sweeps=8, seed=5)
    assert_same_as_per_path(monkeypatch, halved.spec, config, honest=halved.honest)


def private_outcome_spec():
    """Node 0 measures a |+> qubit and keeps the outcome from the prover.

    The two outcomes' selectors are different fixed ops ahead of the same
    turn-3 block key, so that key sits on two trie nodes.  The outcome then
    picks the node's verification gate, and a second private measurement
    splits each branch again: four paths, two through each trie node.
    """
    rng = substream(7, "tests.private_outcome_spec")
    graph = build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=1, node_private=2, node_message=1)
    prover_regs = ("P", "M:0")
    checks = {(b,): (qcore.haar_matrix(2, rng, "test gate"), ["V:0[0]", "M:0"]) for b in (0, 1)}
    turns = (
        ProverTurn(acts_on=prover_regs, delivers=(("M:0", 0),)),
        VerifierTurn(
            steps=(static_step(0, qcore.H, ["V:0[1]"]),),
            measurements=(Measurement("coin", 0, lambda view: ["V:0[1]"]),),
            sends=("M:0",),
        ),
        ProverTurn(acts_on=prover_regs, delivers=(("M:0", 0),)),
    )
    spec = ProtocolSpec(
        name="private-outcome",
        graph=graph,
        layout=layout,
        turns=turns,
        verification=VerificationPhase(
            steps=(conditional_step(0, ["coin"], checks),),
            measurements=(Measurement("echo", 0, lambda view: ["M:0"]),),
            accepts=(first_qubit_zero_accept(0, "V:0"),),
        ),
    )
    gates = {1: qcore.haar_matrix(2, rng, "test gate"), 3: qcore.haar_matrix(2, rng, "test gate")}
    return spec, ProverStrategy("haar", lambda turn, view: gates[turn])


def test_trie_sweep_sums_one_block_over_two_trie_nodes_in_path_order(monkeypatch):
    spec, honest = private_outcome_spec()
    paths, initial = collect_paths(spec, honest)
    blocks = prover._block_table(paths)
    order = sorted(blocks, key=lambda key: (key[0], repr(key[1])))
    trie = prover._Trie(paths, initial, blocks, order)
    assert len(paths) == 4 and [key[0] for key in order] == [1, 3]
    # One block key on two trie nodes; its block matrix sums the four paths
    # in path order, not node by node.
    late = trie.visits[order[1]]
    assert [i for i, _ in late] == [0, 1, 2, 3]
    assert late[0][1] == late[1][1] != late[2][1] == late[3][1]
    assert_same_as_per_path(monkeypatch, spec, OptimizerConfig(restarts=3, sweeps=25, seed=2), honest=honest)


E0, E1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize(
    "spec",
    [
        # The optimizer-sanity corpus; the last is also the perfect-completeness no-instance.
        coin_check_spec([E0], name="sm-zero"),
        coin_check_spec([E0, E1], name="sm-incompatible"),
        coin_check_spec([E0, PLUS], name="sm-tilted"),
        two_check_spec(E0, PLUS, name="sm-quantum-coin"),
        two_check_spec(E0, E1, name="sm-quantum-orth"),
    ],
    ids=lambda spec: spec.name,
)
def test_single_message_max_matches_per_path(monkeypatch, spec):
    value, vec = exact_single_message_max(spec)
    with monkeypatch.context() as patch:
        patch.setattr(prover, "_forward", per_path_forward)
        oracle_value, oracle_vec = exact_single_message_max(spec)
    assert value == oracle_value
    assert np.array_equal(vec, oracle_vec)


def test_single_message_max_checks_its_finals_against_the_dense_budget(monkeypatch):
    # The spec's own steps are built first, under the real limit.
    spec = two_check_spec(E0, E1, name="sm-quantum-orth")
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 0)
    with pytest.raises(CapacityError, match="single-message optimum of 'sm-quantum-orth'"):
        exact_single_message_max(spec)
