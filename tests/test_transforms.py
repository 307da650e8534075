import dataclasses
import json
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqip import protocol, qcore
from dqip.corpus import coin_check_honest, coin_check_spec, two_check_spec
from dqip.dam import catalog_entry
from dqip.errors import CapacityError, ConfigError, ShapeError, ValidationError
from dqip.network import path_graph, spanning_tree, tree_label_replies, tree_labels_hold
from dqip.protocol import (
    Broadcast,
    ProverStrategy,
    ProverTurn,
    execute_exact,
    register_measurement,
    variable_marginal,
)
from dqip.prover import OptimizerConfig, exact_single_message_max, seesaw_optimize
from dqip.transforms import (
    _basis_completion,
    _prover_regs,
    dam_to_dqip,
    halve_turns_private,
    halve_turns_shared,
    halved_completeness,
    halved_soundness,
    pad_to_turns,
    parallel_repeat,
    perfect_completeness,
    seven_to_five,
)

from specs import random_clean_spec

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

SEESAW = OptimizerConfig(restarts=4, sweeps=60, seed=17)

# (reduction, input turn count) pairs: both halvings at l = 1 and l = 2, and 7 -> 5.
REDUCTIONS = [
    (halve_turns_shared, 5),
    (seven_to_five, 7),
    (halve_turns_private, 5),
    (halve_turns_shared, 9),
    (halve_turns_private, 9),
]


def _lying(strategy: ProverStrategy, lies: dict) -> ProverStrategy:
    """``strategy`` with the replies to the slots that ``lies`` names replaced by its values."""

    def reply(slot_name, view):
        return lies[slot_name] if slot_name in lies else strategy.reply_fn(slot_name, view)

    return ProverStrategy("lying", strategy.gate_fn, reply)


@pytest.fixture(scope="module")
def parity_echo():
    entry = catalog_entry("coin-parity-echo-private")
    return {
        "entry": entry,
        "yes": dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes),
        "no": dam_to_dqip(entry.protocol, entry.no_instance, entry.no),
        "c": float(entry.completeness),
        "s": float(entry.soundness),
    }


@pytest.fixture(scope="module")
def coin_guess():
    entry = catalog_entry("coin-guess")
    return {
        "entry": entry,
        "yes": dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes),
        "c": float(entry.completeness),
    }


# ---------------------------------------------------------------------------
# dAM -> dQIP
# ---------------------------------------------------------------------------


def test_bipartite_compiles_to_perfect_completeness():
    entry = catalog_entry("bipartite-pls")
    yes = dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
    assert abs(execute_exact(yes.spec, yes.honest).acceptance_probability - 1.0) <= 1e-9


def test_bipartite_no_instance_unwinnable_even_quantumly():
    entry = catalog_entry("bipartite-pls")
    no = dam_to_dqip(entry.protocol, entry.no_instance, entry.no)
    value, _ = exact_single_message_max(no.spec)
    assert value <= float(entry.soundness) + 1e-10


def test_dam_simulation_honest_matches_classical_value(parity_echo, coin_guess):
    assert abs(
        execute_exact(parity_echo["yes"].spec, parity_echo["yes"].honest).acceptance_probability
        - parity_echo["c"]
    ) <= 1e-9
    assert abs(
        execute_exact(coin_guess["yes"].spec, coin_guess["yes"].honest).acceptance_probability
        - coin_guess["c"]
    ) <= 1e-9


def test_dam_simulation_structure(parity_echo):
    spec = parity_echo["yes"].spec
    assert spec.num_turns == 3
    assert [i for i, t in enumerate(spec.turns, 1) if isinstance(t, ProverTurn)] == [1, 3]
    report = parity_echo["yes"].report
    assert report.message_qubits_per_node == {0: 1, 1: 1}


def test_dam_simulation_soundness_via_seesaw(parity_echo):
    trace = seesaw_optimize(parity_echo["no"].spec, SEESAW, honest=parity_echo["no"].honest)
    assert trace.best_acceptance <= parity_echo["s"] + 1e-6


def test_building_a_pipeline_converts_no_matrix_to_json(monkeypatch):
    # Steps keep their matrices as arrays; only the serializer converts them.
    converted = []
    original = protocol.matrix_to_json

    def counting(mat):
        converted.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(protocol, "matrix_to_json", counting)
    entry = catalog_entry("coin-guess")
    compiled = dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
    padded = pad_to_turns(compiled.spec, compiled.honest, 5)
    halved = halve_turns_private(padded.spec, padded.honest, completeness=float(entry.completeness))
    assert converted == []
    json.dumps(protocol.spec_to_json(halved.spec))  # raises on an array left unconverted
    assert converted


def test_shared_randomness_dam_rejected():
    from dqip.dam import coin_parity_echo
    from dqip.network import path_graph

    # The shape is refused before the value is read, so no value is needed.
    with pytest.raises(ShapeError):
        dam_to_dqip(coin_parity_echo("shared"), path_graph(2, ["0", "0"]), None)


# ---------------------------------------------------------------------------
# Padding and shared halving
# ---------------------------------------------------------------------------


def test_padding_preserves_value(parity_echo):
    padded = pad_to_turns(parity_echo["yes"].spec, parity_echo["yes"].honest, 9)
    assert padded.spec.num_turns == 9
    assert abs(execute_exact(padded.spec, padded.honest).acceptance_probability - 1.0) <= 1e-9
    with pytest.raises(ShapeError):
        pad_to_turns(parity_echo["yes"].spec, parity_echo["yes"].honest, 4)


def _padded(compiled, target):
    padded = pad_to_turns(compiled.spec, compiled.honest, target)
    return padded.spec, padded.honest


# Each source of identity operators, and the (prover gate, node unit)
# identities an exact honest run of it applies.
IDENTITY_SOURCES = {
    "dam Merlin gate": (lambda yes: yes, (1, 0)),
    "pad idle prover gate": (lambda yes: pad_to_turns(yes.spec, yes.honest, 5), (2, 0)),
    "halve-shared idle units": (lambda yes: halve_turns_shared(*_padded(yes, 5)), (2, 4)),
    "seven-to-five idle units": (lambda yes: seven_to_five(*_padded(yes, 7)), (4, 6)),
    "halve-private idle units": (lambda yes: halve_turns_private(*_padded(yes, 5)), (1, 4)),
}


@pytest.mark.parametrize("source", IDENTITY_SOURCES)
def test_identity_operators_apply_as_nothing(coin_guess, source, monkeypatch):
    # The dam's identity Merlin gate, pad's idle prover gate and the halvings'
    # idle node units and their adjoints are identities: the walk gets its
    # input state back (the same amplitudes, free qubits and fixed bits, so an
    # identity on fixed qubits frees none), and the op builds no table.
    build, (gates, units) = IDENTITY_SOURCES[source]
    compiled = build(coin_guess["yes"])
    applied, ops = [], []
    apply, cached = protocol._State.apply, qcore.StructuredOp.cached

    def recording(state, op, matrix, qubits):
        applied.append((matrix, qubits, state, apply(state, op, matrix, qubits)))
        return applied[-1][3]

    def kept(cache, matrix, targets):
        ops.append(cached(cache, matrix, targets))
        return ops[-1]

    monkeypatch.setattr(protocol._State, "apply", recording)
    monkeypatch.setattr(qcore.StructuredOp, "cached", kept)
    execute_exact(compiled.spec, compiled.honest)
    identities = [(qubits, state, out) for matrix, qubits, state, out in applied if np.array_equal(matrix, np.eye(len(matrix)))]
    assert all(out.vec is state.vec and (out.free, out.bits) == (state.free, state.bits) for _, state, out in identities)
    assert all(op._table is None and np.array_equal(op.matrix, np.eye(len(op.matrix))) for op in ops if op.kind == "identity")
    prover = set(compiled.spec.layout.expand(_prover_regs(compiled.spec)))
    kinds = Counter("gate" if set(qubits) <= prover else "unit" for qubits, _, _ in identities)
    assert (kinds["gate"], kinds["unit"]) == (gates, units)


@pytest.mark.parametrize(
    "transform, turns",
    [
        (lambda spec, honest: pad_to_turns(spec, honest, 7), 5),
        (lambda spec, honest: parallel_repeat(spec, honest, 1), 5),
        (perfect_completeness, 3),
        (halve_turns_shared, 5),
        (seven_to_five, 7),
        (halve_turns_private, 5),
    ],
)
def test_transforms_refuse_a_spec_with_seeded_registers(transform, turns):
    # A clean spec starts in |0...0>: the output would run from |0...0> and
    # lose the seed (padding read 0.187 for a seeded value of 0.263).
    spec, honest = random_clean_spec(0, turns=turns)
    seeded = dataclasses.replace(spec, initial_factors=((("V:0[0]",), E1),))
    assert abs(
        execute_exact(seeded, honest).acceptance_probability - execute_exact(spec, honest).acceptance_probability
    ) > 0.01
    with pytest.raises(ShapeError, match=r"seeds registers \['V:0\[0\]'\]"):
        transform(seeded, honest)


@pytest.mark.parametrize(
    "transform, turns",
    [
        (lambda spec, honest: pad_to_turns(spec, honest, 7), 5),
        (lambda spec, honest: parallel_repeat(spec, honest, 1), 5),
        (perfect_completeness, 3),
        (halve_turns_shared, 5),
        (seven_to_five, 7),
        (halve_turns_private, 5),
    ],
)
@pytest.mark.parametrize("where", ["turn", "verification"])
def test_transforms_refuse_a_measurement_among_a_clean_specs_steps(transform, turns, where):
    # Node units, rewrites and copies read every step as a unitary; a
    # measurement listed among them is refused before any of them runs.
    spec, honest = random_clean_spec(0, turns=turns)
    measure = register_measurement("m", 0, "V:0")
    if where == "turn":
        first, turn, *rest = spec.turns
        spec = dataclasses.replace(spec, turns=(first, dataclasses.replace(turn, steps=turn.steps + (measure,)), *rest))
        match = "classical events before verification"
    else:
        spec = dataclasses.replace(spec, verification=dataclasses.replace(spec.verification, steps=(measure,)))
        match = "measurements among the verification's steps"
    with pytest.raises(ShapeError, match=match):
        transform(spec, honest)


@pytest.mark.parametrize("target,out_turns", [(5, 3), (9, 5)])
def test_halve_shared_turn_arithmetic(parity_echo, target, out_turns):
    padded = pad_to_turns(parity_echo["yes"].spec, parity_echo["yes"].honest, target)
    halved = halve_turns_shared(padded.spec, padded.honest)
    assert halved.spec.num_turns == out_turns
    assert halved.report.input_turns == target


def test_halve_shared_completeness_identity(parity_echo, coin_guess):
    for bundle in (parity_echo["yes"], coin_guess["yes"]):
        c = execute_exact(bundle.spec, bundle.honest).acceptance_probability
        padded = pad_to_turns(bundle.spec, bundle.honest, 5)
        halved = halve_turns_shared(padded.spec, padded.honest, completeness=c)
        out = execute_exact(halved.spec, halved.honest).acceptance_probability
        assert abs(out - halved_completeness(c)) <= 1e-9
        assert abs(halved.report.predicted_completeness - halved_completeness(c)) <= 1e-12


def test_halve_shared_soundness(parity_echo):
    padded = pad_to_turns(parity_echo["no"].spec, parity_echo["no"].honest, 5)
    halved = halve_turns_shared(padded.spec, padded.honest, soundness=parity_echo["s"])
    trace = seesaw_optimize(halved.spec, SEESAW, honest=halved.honest)
    assert trace.best_acceptance <= halved_soundness(parity_echo["s"]) + 1e-6


def test_halve_shared_message_accounting(parity_echo):
    padded = pad_to_turns(parity_echo["yes"].spec, parity_echo["yes"].honest, 5)
    halved = halve_turns_shared(padded.spec, padded.honest)
    f_in = padded.report.message_qubits_per_node
    g_in = padded.report.private_qubits_per_node
    for u, size in halved.report.message_qubits_per_node.items():
        assert size == f_in[u] + g_in[u]


def test_halve_shared_shape_guard(parity_echo):
    with pytest.raises(ShapeError):
        halve_turns_shared(parity_echo["yes"].spec, parity_echo["yes"].honest)


# ---------------------------------------------------------------------------
# Seven to five
# ---------------------------------------------------------------------------


def test_seven_to_five_completeness(parity_echo, coin_guess):
    for bundle in (parity_echo["yes"], coin_guess["yes"]):
        c = execute_exact(bundle.spec, bundle.honest).acceptance_probability
        padded = pad_to_turns(bundle.spec, bundle.honest, 7)
        five = seven_to_five(padded.spec, padded.honest, completeness=c)
        assert five.spec.num_turns == 5
        out = execute_exact(five.spec, five.honest).acceptance_probability
        assert abs(out - halved_completeness(c)) <= 1e-9


def test_seven_to_five_soundness(parity_echo):
    padded = pad_to_turns(parity_echo["no"].spec, parity_echo["no"].honest, 7)
    five = seven_to_five(padded.spec, padded.honest, soundness=parity_echo["s"])
    trace = seesaw_optimize(five.spec, SEESAW, honest=five.honest)
    assert trace.best_acceptance <= halved_soundness(parity_echo["s"]) + 1e-6


def test_seven_to_five_flipped_echo_rejected(parity_echo):
    padded = pad_to_turns(parity_echo["yes"].spec, parity_echo["yes"].honest, 7)
    five = seven_to_five(padded.spec, padded.honest)

    def flipped_reply(slot_name, view, _inner=five.honest.reply_fn):
        if slot_name == "becho:1":
            return 1 - view["b"]
        return _inner(slot_name, view)

    cheat = ProverStrategy("flipped-echo", five.honest.gate_fn, flipped_reply)
    report = execute_exact(five.spec, cheat)
    # Node 1 disagrees with node 0 (and the leader anchor): both reject.
    assert report.acceptance_probability <= 1e-12


def test_seven_to_five_of_a_genuine_seven_turn_input_runs_under_a_memory_cap():
    # A random 7-turn dAM compiles to 20 qubits, and its two nodes' accept
    # projectors span 12 of them.  The exact run reads each accept mass as the
    # squared norm of the leaf's slice with the accept ops applied, so it
    # holds no operator on those 12 qubits: a 4096 x 4096 A^dag A alone would
    # take 256 MiB.  Under a 1 GiB address-space cap it must finish and keep
    # (1+c)/2.
    resource = pytest.importorskip("resource")
    limit = 2**30
    code = (
        "from specs import random_dam\n"
        "from dqip.dam import brute_force_value\n"
        "from dqip.network import path_graph\n"
        "from dqip.protocol import execute_exact\n"
        "from dqip.transforms import dam_to_dqip, seven_to_five\n"
        "dam, instance = random_dam(0), path_graph(2, ['0', '0'])\n"
        "value = brute_force_value(dam, instance)\n"
        "compiled = dam_to_dqip(dam, instance, value)\n"
        "five = seven_to_five(compiled.spec, compiled.honest)\n"
        "assert five.spec.layout.total_qubits == 20\n"
        "print(value.optimal_acceptance, execute_exact(five.spec, five.honest).acceptance_probability)\n"
    )
    path = os.pathsep.join([str(Path(qcore.__file__).parents[1]), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    c, accept = proc.stdout.split()
    assert c == "49/64"
    assert abs(float(accept) - halved_completeness(49 / 64)) <= 1e-9


def test_seven_to_five_requires_seven_turns(parity_echo):
    with pytest.raises(ShapeError):
        seven_to_five(parity_echo["yes"].spec, parity_echo["yes"].honest)


# ---------------------------------------------------------------------------
# Private halving
# ---------------------------------------------------------------------------


def test_halve_private_turn_count_and_completeness(parity_echo, coin_guess):
    for bundle in (parity_echo["yes"], coin_guess["yes"]):
        c = execute_exact(bundle.spec, bundle.honest).acceptance_probability
        padded = pad_to_turns(bundle.spec, bundle.honest, 5)
        halved = halve_turns_private(padded.spec, padded.honest, completeness=c)
        assert halved.spec.num_turns == 5  # 2l + 3 with l = 1
        out = execute_exact(halved.spec, halved.honest).acceptance_probability
        assert abs(out - halved_completeness(c)) <= 1e-9


def test_halve_private_coin_marginal_uniform(parity_echo):
    padded = pad_to_turns(parity_echo["yes"].spec, parity_echo["yes"].honest, 5)
    halved = halve_turns_private(padded.spec, padded.honest)
    for u in range(2):
        p0 = variable_marginal(halved.spec, halved.honest, f"coin:{u}", 0)
        assert abs(p0 - 0.5) <= 1e-10


def test_halve_private_all_zero_coin_cheat(parity_echo):
    # A prover that distributes |0^n> instead of the fanned-out Bell state:
    # the root's retained half still flips, so consistency caps acceptance
    # by the shared-coin optimum.
    padded = pad_to_turns(parity_echo["no"].spec, parity_echo["no"].honest, 5)
    halved = halve_turns_private(padded.spec, padded.honest, soundness=parity_echo["s"])

    def zero_coin_gate(turn_index, view, _inner=halved.honest.gate_fn):
        if turn_index == 3:
            mat = _inner(turn_index, view)
            return np.eye(mat.shape[0], dtype=np.complex128)
        return _inner(turn_index, view)

    cheat = ProverStrategy("zero-coins", zero_coin_gate, halved.honest.reply_fn)
    value = execute_exact(halved.spec, cheat).acceptance_probability
    shared_bound = halved_soundness(parity_echo["s"])
    assert value <= shared_bound + 1e-6


@pytest.mark.parametrize(
    "lies",
    [
        {"dist:2": 0},
        {"parent:2": 2},
        {"leader:1": 1},
        {"parent:0": 0},
        tree_label_replies(spanning_tree(path_graph(3), 2)),
    ],
    ids=["dist:2", "parent:2", "leader:1", "parent:0", "rooted-at-2"],
)
def test_halve_private_rejects_a_lying_tree_label(lies):
    # The honest labels name the tree rooted at node 0 on the 3-node path.  The
    # last lie is a consistent tree rooted at node 2, which every label names:
    # only the leader's check that it names itself catches it.
    spec, honest = random_clean_spec(0, turns=5, nodes=3)
    halved = halve_turns_private(spec, honest)
    assert execute_exact(halved.spec, halved.honest).acceptance_probability > 0.5
    cheat = _lying(halved.honest, lies)
    assert execute_exact(halved.spec, cheat).acceptance_probability == 0.0


def test_halve_private_soundness_seesaw(parity_echo):
    padded = pad_to_turns(parity_echo["no"].spec, parity_echo["no"].honest, 5)
    halved = halve_turns_private(padded.spec, padded.honest, soundness=parity_echo["s"])
    trace = seesaw_optimize(halved.spec, OptimizerConfig(restarts=3, sweeps=50, seed=5), honest=halved.honest)
    assert trace.best_acceptance <= halved_soundness(parity_echo["s"]) + 1e-6


def _echo_predicate(graph, view, u, leader=0):
    """The 7 -> 5 accept predicate, one neighbor and one field at a time."""
    for v in graph.neighbors(u):
        for name in ("becho", "leader"):
            if view[f"recv:{v}"][name] != view[f"{name}:{u}"]:
                return False
    return u != leader or (view[f"becho:{u}"] == view["b"] and view[f"leader:{u}"] == leader)


def _coin_predicate(graph, view, u, root=0):
    """The private halving's accept predicate, one neighbor at a time."""
    received = {v: view[f"recv:{v}"] for v in graph.neighbors(u)}
    for got in received.values():
        if got["coin"] != view[f"coin:{u}"]:
            return False
    return tree_labels_hold(graph, root, u, view, received)


@pytest.mark.parametrize("nodes", [2, 3, 4])
@pytest.mark.parametrize(
    "reduce, turns, fields, reference",
    [
        (seven_to_five, 7, ("becho", "leader"), _echo_predicate),
        (halve_turns_private, 5, ("coin", "leader", "parent", "dist"), _coin_predicate),
    ],
    ids=["seven-to-five", "halve-private"],
)
def test_reduction_predicates_equal_the_per_field_loop(reduce, turns, fields, reference, nodes):
    # Random transcripts around the honest ones: mostly agreeing echoes, coins
    # and leader labels, now and then one that differs or one lying tree label.
    # Only the leader sees the coin b.  The input's accepts have no predicate,
    # so the output's predicate is the reduction's own check.
    rng = np.random.default_rng(nodes)
    spec = reduce(*random_clean_spec(0, turns=turns, nodes=nodes)).spec
    graph, accepts = spec.graph, spec.verification.accepts
    verdicts = set()
    for _ in range(300):
        bit = int(rng.integers(2))
        values = dict(tree_label_replies(spanning_tree(graph, 0)))
        for u in range(nodes):
            values[f"becho:{u}"] = values[f"coin:{u}"] = bit if rng.random() < 0.85 else 1 - bit
            if rng.random() < 0.1:
                values[f"leader:{u}"] = int(rng.integers(nodes))
        if rng.random() < 0.1:
            values[f"{('parent', 'dist')[int(rng.integers(2))]}:{int(rng.integers(nodes))}"] = int(rng.integers(nodes))
        bundles = {v: {name: values[f"{name}:{v}"] for name in fields} | {"inner": None} for v in range(nodes)}
        for accept in accepts:
            u = accept.node
            view = values | {f"recv:{v}": bundles[v] for v in graph.neighbors(u)} | ({"b": bit} if u == 0 else {})
            verdict = accept.predicate(view)
            assert verdict == reference(graph, view, u)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Perfect completeness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "v1,c_expect",
    [(PLUS, 0.75), (np.array([np.sqrt(0.2), np.sqrt(0.8)], dtype=complex), 0.6), (E0, 1.0)],
)
def test_perfect_completeness_reaches_one(v1, c_expect):
    spec = two_check_spec(E0, v1)
    honest = coin_check_honest()
    c = execute_exact(spec, honest).acceptance_probability
    assert abs(c - c_expect) <= 1e-9
    compiled = perfect_completeness(spec, honest)
    assert compiled.spec.num_turns == spec.num_turns + 4
    out = execute_exact(compiled.spec, compiled.honest).acceptance_probability
    assert abs(out - 1.0) <= 1e-9


def test_perfect_completeness_two_nodes():
    spec, honest = random_clean_spec(0)
    compiled = perfect_completeness(spec, honest)
    out = execute_exact(compiled.spec, compiled.honest).acceptance_probability
    assert abs(out - 1.0) <= 1e-9


def test_perfect_completeness_refuses_an_uncompute_gate_it_cannot_hold_under_a_memory_cap():
    # On three nodes the prover's last turn holds 14 qubits: the uncompute
    # gate's two basis completions and their product are three 16384 x 16384
    # matrices (12 GiB).  Under a 3 GiB address-space cap the transform must
    # refuse them before the honest replay, never end in a raw MemoryError.
    resource = pytest.importorskip("resource")
    limit = 3 * 2**30
    code = (
        "from specs import random_clean_spec\n"
        "from dqip.errors import CapacityError\n"
        "from dqip.transforms import perfect_completeness\n"
        "try:\n"
        "    perfect_completeness(*random_clean_spec(0, nodes=3))\n"
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
    assert int(requested) == 3 * 16 * 4**14
    assert "perfect_completeness uncompute gate of 'perfect[random-clean-0]' on 14 held qubits" in message


def test_basis_completion_is_unitary_and_keeps_its_inputs():
    rng = np.random.default_rng(5)
    dim = 32
    for given in (0, 1, 5, dim):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        inputs = np.linalg.qr(z)[0][:, :given]
        mat = _basis_completion(list(inputs.T), dim)
        assert mat.shape == (dim, dim)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) <= 1e-10
        assert np.array_equal(mat[:, :given], inputs)


def test_perfect_completeness_soundness_bound():
    no_spec = two_check_spec(E0, E1, name="no")
    honest = coin_check_honest()
    s, _ = exact_single_message_max(no_spec)
    c_yes = 0.75
    delta = c_yes - s
    compiled = perfect_completeness(no_spec, honest, c=c_yes, soundness=s)
    trace = seesaw_optimize(
        compiled.spec, OptimizerConfig(restarts=5, sweeps=100, seed=21), honest=compiled.honest
    )
    assert trace.best_acceptance <= 1 - delta**2 + 1e-6
    # The optimizer should find the interference cheat, not stop at s.
    assert trace.best_acceptance >= s + 0.1


def test_perfect_completeness_validation():
    spec = two_check_spec(E0, PLUS)
    honest = coin_check_honest()
    with pytest.raises(ValidationError):
        perfect_completeness(spec, honest, c=0.0)
    with pytest.raises(ShapeError):
        perfect_completeness(coin_check_spec([E0, E1]), honest)  # classical coin


def test_dense_gate_builders_check_the_budget_before_allocating(monkeypatch):
    # coin-guess: the turn-1 Merlin gate acts on P (2 qubits) and both M
    # registers; the OR fan-out of one node acts on P, one ancilla and out:0.
    entry = catalog_entry("coin-guess")
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 16 * 4**4 - 1)
    with pytest.raises(CapacityError, match="dam_to_dqip Merlin gate of turn 1 on 4 qubits") as err:
        dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
    assert err.value.requested == 16 * 4**4

    spec = two_check_spec(E0, PLUS)
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 16 * 4**2 - 1)
    with pytest.raises(CapacityError, match="perfect_completeness OR fan-out on 2 qubits") as err:
        perfect_completeness(spec, coin_check_honest(), c=0.75)
    assert err.value.requested == 16 * 4**2


# ---------------------------------------------------------------------------
# Parallel repetition
# ---------------------------------------------------------------------------


def test_parallel_repeat_identity_at_t1():
    spec = two_check_spec(E0, PLUS)
    honest = coin_check_honest()
    base = execute_exact(spec, honest).acceptance_probability
    for mode in ("AND", "majority"):
        rep = parallel_repeat(spec, honest, 1, mode)
        assert abs(execute_exact(rep.spec, rep.honest).acceptance_probability - base) <= 1e-10


def test_parallel_repeat_and_power_law():
    spec = two_check_spec(E0, PLUS)
    honest = coin_check_honest()
    base = execute_exact(spec, honest).acceptance_probability
    for t in (2, 3):
        rep = parallel_repeat(spec, honest, t, "AND")
        out = execute_exact(rep.spec, rep.honest).acceptance_probability
        assert abs(out - base**t) <= 1e-8


def test_parallel_repeat_always_reject():
    entry = catalog_entry("bipartite-pls")
    no = dam_to_dqip(entry.protocol, entry.no_instance, entry.no)
    for mode in ("AND", "majority"):
        rep = parallel_repeat(no.spec, no.honest, 2, mode)
        assert execute_exact(rep.spec, rep.honest).acceptance_probability <= 1e-12


def test_parallel_repeat_validation():
    spec = two_check_spec(E0, PLUS)
    honest = coin_check_honest()
    with pytest.raises(ValidationError):
        parallel_repeat(spec, honest, 0, "AND")
    with pytest.raises(ValidationError):
        parallel_repeat(spec, honest, 2, "XOR")


@pytest.mark.parametrize("reduce, turns", REDUCTIONS)
def test_reductions_name_a_missing_node_register(reduce, turns):
    # bipartite-pls keeps its state in message registers only: no node has V:u.
    entry = catalog_entry("bipartite-pls")
    compiled = dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)
    padded = pad_to_turns(compiled.spec, compiled.honest, turns)
    assert not padded.spec.layout.has("V:0")
    with pytest.raises(ConfigError) as err:
        reduce(padded.spec, padded.honest)
    assert reduce.__name__ in str(err.value) and "'V:0'" in str(err.value)


@pytest.mark.parametrize("nodes", [2, 3])
@pytest.mark.parametrize("reduce, turns", REDUCTIONS)
def test_reductions_halve_the_value_of_random_specs(reduce, turns, nodes):
    # Haar gates in every turn: a wrong forward/backward pairing past turn 3 moves the value.
    for seed in (0, 1):
        spec, honest = random_clean_spec(seed, turns=turns, nodes=nodes)
        c = execute_exact(spec, honest).acceptance_probability
        out = reduce(spec, honest)
        out_turns = {halve_turns_shared: (turns + 1) // 2, seven_to_five: 5, halve_turns_private: (turns + 5) // 2}
        assert out.spec.num_turns == out_turns[reduce]
        value = execute_exact(out.spec, out.honest).acceptance_probability
        assert abs(value - halved_completeness(c)) <= 1e-9
        if reduce is halve_turns_private:
            for u in range(nodes):
                assert abs(variable_marginal(out.spec, out.honest, f"coin:{u}", 0) - 0.5) <= 1e-10


@pytest.mark.parametrize(
    "reduce, turns, nodes",
    [(halve_turns_shared, 5, 7), (halve_turns_shared, 9, 7), (seven_to_five, 7, 7), (halve_turns_private, 5, 6)],
)
def test_reductions_of_wide_random_specs_build_no_operator_on_every_qubit(reduce, turns, nodes, monkeypatch):
    # 15, 15, 15 and 13 input qubits, so a dense honest prefix would take 16 GiB
    # or 1 GiB.  Every dense operator of the compile and the exact runs is
    # built by circuit_matrix, and none spans every input qubit.
    widths = []
    build = qcore.circuit_matrix

    def recording(num_qubits, factors, what, **options):
        widths.append(num_qubits)
        return build(num_qubits, factors, what, **options)

    monkeypatch.setattr(qcore, "circuit_matrix", recording)
    spec, honest = random_clean_spec(0, turns=turns, nodes=nodes)
    c = execute_exact(spec, honest).acceptance_probability
    out = reduce(spec, honest)
    assert isinstance(out.honest.gate_fn(1, {}), qcore.FactoredOp)
    assert abs(execute_exact(out.spec, out.honest).acceptance_probability - halved_completeness(c)) <= 1e-9
    assert widths and max(widths) < spec.layout.total_qubits


def test_private_halving_past_the_layout_ceiling_is_a_typed_error():
    spec, honest = random_clean_spec(0, turns=5, nodes=7)
    with pytest.raises(CapacityError, match="layout needs 23 qubits, above the ceiling of 22"):
        halve_turns_private(spec, honest)


def _bundle_reading(spec):
    """``spec`` whose nodes broadcast ``("bundle", u)`` and whose accept callbacks log each view they read."""
    calls = []

    def logged(inner):
        def predicate(view):
            calls.append(("predicate", inner.node, dict(view)))
            return True

        def projector(view):
            calls.append(("projector", inner.node, dict(view)))
            return inner.projector(view)

        return dataclasses.replace(inner, predicate=predicate, projector=projector)

    ver = dataclasses.replace(
        spec.verification,
        broadcasts=tuple(Broadcast(u, lambda view, _u=u: ("bundle", _u)) for u in range(spec.graph.node_count)),
        accepts=tuple(logged(a) for a in spec.verification.accepts),
    )
    return dataclasses.replace(spec, verification=ver), calls


def _received(view) -> dict:
    return {key: val for key, val in view.items() if key.startswith("recv:")}


# Each reduction's branch bit as node u reads it: 0 is the forward branch.
BRANCH_KEYS = {
    halve_turns_shared: lambda u: "r",
    seven_to_five: lambda u: f"becho:{u}",
    halve_turns_private: lambda u: f"coin:{u}",
}


@pytest.mark.parametrize("reduce, turns", REDUCTIONS[:3])
def test_reductions_hand_the_input_accept_its_own_view_on_the_forward_branch_only(reduce, turns):
    spec, honest = random_clean_spec(2, turns=turns, nodes=3)
    spec, calls = _bundle_reading(spec)
    out = reduce(spec, honest)
    execute_exact(out.spec, out.honest)
    assert {kind for kind, _, _ in calls} == {"predicate", "projector"}
    for kind, u, view in calls:
        assert view[BRANCH_KEYS[reduce](u)] == 0, kind
        assert _received(view) == {f"recv:{v}": ("bundle", v) for v in spec.graph.neighbors(u)}, kind


@pytest.mark.parametrize("mode", ["AND", "majority"])
def test_repetition_hands_each_copy_its_entry_of_every_bundle(mode):
    spec, honest = random_clean_spec(2)
    spec, calls = _bundle_reading(spec)
    ver = parallel_repeat(spec, honest, 2, mode).spec.verification
    assert ver.broadcasts[1].fn({}) == (("bundle", 1), ("bundle", 1))
    view = {"recv:1": ("copy 0", "copy 1"), "acc:0:r0": 1, "acc:0:r1": 1}
    assert ver.accepts[0].predicate(view)
    if mode == "AND":
        ver.accepts[0].projector(view)
    else:  # each copy's projector is a check of node 0
        for check in ver.checks[:2]:
            assert check.nodes == (0,)
            check.resolve(view)
    got = [(kind, u, _received(view)) for kind, u, view in calls]
    assert got == [(kind, 0, {"recv:1": f"copy {i}"}) for kind in ("predicate", "projector") for i in range(2)]
