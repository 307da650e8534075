"""The trie walk against the per-path replays it replaced, and the path compilation against the recorded paths.

``per_path_sweep`` replays every compiled path in full (its head's ops,
preparation blocks as columns and fused fixed ops included, then its accept
form): a backward pass per path, a lazily advanced forward front per path,
one block update at a time, and a fresh replay of the finals after the
updates (``per_path_forward``, which also gives each restart's starting
value).  The trie walk merges shared prefixes and updates a turn's blocks
together but does the same arithmetic in the same order, so both must give
equal sweep histories (starting values included), equal best gates and
equal single-message optima, compared with ``==``.  The compiled paths are
checked against the recorded ones separately: fused ops bit for bit,
accept forms and preparation updates within 1e-12.
"""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

from dqip import prover, qcore
from dqip.corpus import coin_check_spec, two_check_spec
from dqip.dam import catalog_entry
from dqip.dqct import build_pdqct, make_instance
from dqip.errors import CapacityError, ValidationError
from dqip.ghz import GhzProtocolParams
from dqip.network import allocate_layout, build_network, path_graph
from dqip.protocol import (
    Measurement,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    VerificationPhase,
    VerifierTurn,
    conditional_step,
    execute_exact,
    first_qubit_zero_accept,
    static_step,
)
from dqip.prover import OptimizerConfig, exact_single_message_max, seesaw_optimize
from dqip.qcore import StructuredOp, _keep_block
from dqip.seeding import substream
from dqip.transforms import dam_to_dqip, halve_turns_private, pad_to_turns

from specs import random_clean_spec


def _step(vec, op, gates):
    """One compiled op: a fixed op, or a block (a preparation when its gate is a unit vector)."""
    if isinstance(op, StructuredOp):
        return op.apply(vec)
    key, qubits = op
    gate = gates[key]
    return (prover._apply_preparation if gate.ndim == 1 else prover.apply_matrix_vec)(vec, gate, qubits)


def _unstep(vec, op, adjoints, adjoint):
    """The adjoint of one compiled op, given the blocks' adjoint gates (a preparation's own vector)."""
    if isinstance(op, StructuredOp):
        return adjoint(op).apply(vec)
    key, qubits = op
    gate = adjoints[key]
    return (prover._unapply_preparation if gate.ndim == 1 else prover.apply_matrix_vec)(vec, gate, qubits)


def compiled_ops(trie, i) -> list:
    return [trie.op[node] for node in trie.chains[i]]


def random_gates(trie, rng) -> dict:
    """A Haar state for each preparation block, a Haar unitary for each other block."""
    def gate(key, q):
        return qcore.haar_state(q, rng) if key in trie.preparations else qcore.haar_matrix(q, rng, "test gate")

    return {key: gate(key, len(qubits)) for key, qubits in trie.blocks.items()}


def recorded_split(trie, i) -> tuple[list, list]:
    """Path ``i``'s recorded ops and accept ops, identities dropped, cut where the ops its accept form folds
    begin: after its last prover block, or after the fixed ops that follow it and that another path with a
    chain-form tail shares."""
    path = trie.paths[i]
    ops = [op for op in (*path.ops, *path.accept) if not isinstance(op, StructuredOp) or op.kind != "identity"]
    cut = len(ops) - len(trie.tails[i])
    last = max((pos for pos, op in enumerate(ops) if not isinstance(op, StructuredOp)), default=-1)
    assert cut > last and all(isinstance(op, StructuredOp) for op in ops[last + 1 : cut])
    return ops[:cut], ops[cut:]


def dqct_probe(seed):
    instance = make_instance(path_graph(2), (1, 1), "random", seed=seed)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, seed=seed, prover_qubits=2))
    return compiled.spec, compiled.honest


def per_path_forward(trie, gates, finals, suffixes=None, fronts_out=None) -> list[float]:
    """The evaluating trie walk, replayed per path: each compiled head from the initial state on its own,
    then its accept form; sweeps go through ``per_path_sweep``."""
    assert suffixes is None
    values = []
    for i, path in enumerate(trie.paths):
        z = trie.initial
        for op in compiled_ops(trie, i):
            z = _step(z, op, gates)
        ez = z
        for op in trie.accept[i]:
            ez = op.apply(ez)
        finals[i] = ez
        if fronts_out is not None:
            fronts_out[i] = z
        values.append(path.weight * float(np.vdot(z, ez).real))
    return values


def per_path_sweep(trie, witnesses, gates) -> list[float]:
    """One sweep that replays each compiled path on its own, with the trie's inputs, a block at a time."""
    paths, initial, order, blocks = trie.paths, trie.initial, trie.order, trie.blocks
    adjoints = {key: gate if gate.ndim == 1 else np.ascontiguousarray(gate.conj().T) for key, gate in gates.items()}
    adjoint = functools.cache(lambda op: StructuredOp(np.ascontiguousarray(op.matrix.conj().T), op.targets))
    ops = [compiled_ops(trie, i) for i in range(len(paths))]
    suffixes = []
    for path_ops, a in zip(ops, witnesses):
        vec = a
        suffix = {}
        for pos in range(len(path_ops) - 1, -1, -1):
            if not isinstance(path_ops[pos], StructuredOp):
                suffix[pos] = vec
            vec = _unstep(vec, path_ops[pos], adjoints, adjoint)
        suffixes.append(suffix)

    fronts = [initial] * len(paths)
    cursor = [0] * len(paths)

    def advance(i, stop):
        while cursor[i] < stop:
            fronts[i] = _step(fronts[i], ops[i][cursor[i]], gates)
            cursor[i] += 1

    positions = {key: [] for key in order}
    for i, path_ops in enumerate(ops):
        for pos, op in enumerate(path_ops):
            if not isinstance(op, StructuredOp) and op[0] in positions:
                positions[op[0]].append((i, pos))

    for key in order:
        qubits = blocks[key]
        dim = 2 ** len(qubits)
        if key in trie.preparations:
            s = np.zeros(dim, dtype=np.complex128)
            for i, pos in positions[key]:
                advance(i, pos)
                y = _keep_block(suffixes[i][pos], qubits)
                s += paths[i].weight * (y @ qcore.outcome_slice(fronts[i], qubits, 0).conj())
            norm = np.linalg.norm(s)
            if norm > 0:
                gates[key] = s / norm
        else:
            m = np.zeros((dim, dim), dtype=np.complex128)
            for i, pos in positions[key]:
                advance(i, pos)
                x = _keep_block(fronts[i], qubits)
                y = _keep_block(suffixes[i][pos], qubits)
                m += paths[i].weight * (x @ y.conj().T)
            gates[key] = prover._polar_maximizer(m)
        for i, pos in positions[key]:
            advance(i, pos + 1)
    return per_path_forward(trie, gates, witnesses)


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
    trie = prover._Trie(spec, honest.reply_fn).compile()
    rng = substream(seed, "tests.evaluating_walk")
    gates = random_gates(trie, rng)
    before = {key: gate.copy() for key, gate in gates.items()}
    finals, fronts = [None] * len(trie.paths), [None] * len(trie.paths)
    values = prover._forward(trie, gates, finals, fronts_out=fronts)
    expected, expected_fronts = [None] * len(trie.paths), [None] * len(trie.paths)
    assert values == per_path_forward(trie, gates, expected, fronts_out=expected_fronts)
    for got, want in zip(finals + fronts, expected + expected_fronts):
        assert np.array_equal(got, want)
    assert gates.keys() == before.keys()
    assert all(np.array_equal(gates[key], before[key]) for key in gates)


@pytest.mark.parametrize(
    "seed, freeze_turns", [(1_400_000, ()), (1_400_001, ()), (1_400_002, ()), (1_400_000, (1,))]
)
def test_trie_sweep_matches_per_path_on_the_dqct_probe(monkeypatch, seed, freeze_turns):
    # The benchmark's seesaw config: 11 qubits, one Haar restart at the sweep
    # cap; with turn 1 frozen, the trie applies its blocks as fixed ops.
    spec, honest = dqct_probe(seed)
    config = OptimizerConfig(restarts=2, sweeps=20, seed=seed)
    assert_same_as_per_path(monkeypatch, spec, config, honest=honest, freeze_turns=freeze_turns)


def private_halving(which):
    entry = catalog_entry("coin-parity-echo-private")
    instance, value = (entry.yes_instance, entry.yes) if which == "yes" else (entry.no_instance, entry.no)
    compiled = dam_to_dqip(entry.protocol, instance, value)
    padded = pad_to_turns(compiled.spec, compiled.honest, 5)
    return halve_turns_private(
        padded.spec, padded.honest, completeness=float(entry.completeness), soundness=float(entry.soundness)
    )


@pytest.mark.parametrize("which", ["yes", "no"])
def test_trie_sweep_matches_per_path_on_private_halving(monkeypatch, which):
    halved = private_halving(which)
    trie = prover._Trie(halved.spec, halved.honest.reply)
    assert len(trie.parent) - 1 < sum(len(chain) for chain in trie.chains)  # prefixes are shared
    config = OptimizerConfig(restarts=2, sweeps=8, seed=5)
    assert_same_as_per_path(monkeypatch, halved.spec, config, honest=halved.honest)


@pytest.mark.parametrize("which", ["yes", "no"])
def test_shared_tail_ops_of_chain_form_paths_stay_in_the_trie(which):
    # The halving's tails span more than half of its 11 qubits, too wide for a
    # dense E, and its paths share their first fixed ops after the last block.
    # Each such path's accept form folds only what follows its longest
    # recorded prefix in common with another such path.
    halved = private_halving(which)
    trie = prover._Trie(halved.spec, halved.honest.reply)
    n = trie.num_qubits

    def same(a, b):
        return a is b if isinstance(a, StructuredOp) else a == b

    ops, lasts, wide = [], [], []
    for i, path in enumerate(trie.paths):
        ops.append([op for op in path.ops if not isinstance(op, StructuredOp) or op.kind != "identity"])
        lasts.append(max(pos for pos, op in enumerate(ops[i]) if not isinstance(op, StructuredOp)))
        tail = [*ops[i][lasts[i] + 1 :], *(op for op in path.accept if op.kind != "identity")]
        if 4 ** len(set().union(*(op.targets for op in tail))) > 2**n:
            wide.append(i)
    assert len(wide) >= 2
    moved = 0
    for i in wide:
        common = 0
        for j in wide:
            if j != i:
                k = 0
                while k < min(len(ops[i]), len(ops[j])) and same(ops[i][k], ops[j][k]):
                    k += 1
                common = max(common, k)
        head, tail = recorded_split(trie, i)
        assert len(head) == max(lasts[i] + 1, common)
        moved += len(head) - lasts[i] - 1
    assert moved > 0

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
    trie = prover._Trie(spec, honest.reply_fn)
    order = trie.order
    assert len(trie.paths) == 4 and [key[0] for key in order] == [1, 3]
    # One block key on two trie nodes; its block matrix sums the four paths
    # in path order, not node by node.
    late = trie.visits[order[1]]
    assert [i for i, _ in late] == [0, 1, 2, 3]
    assert late[0][1] == late[1][1] != late[2][1] == late[3][1]
    assert_same_as_per_path(monkeypatch, spec, OptimizerConfig(restarts=3, sweeps=25, seed=2), honest=honest)


def test_a_block_whose_registers_change_for_one_view_is_refused():
    # Turn 3 meets the same prover view on both outcomes of the private
    # measurement; an acts_on that answers differently the second time gives
    # one block key two qubit orders.
    spec, honest = private_outcome_spec()
    answers = itertools.cycle([["P", "M:0"], ["M:0", "P"]])
    turn3 = replace(spec.turns[2], acts_on=lambda view: next(answers))
    with pytest.raises(ValidationError, match="inconsistent targets"):
        seesaw_optimize(replace(spec, turns=(*spec.turns[:2], turn3)), OptimizerConfig(restarts=1), honest=honest)


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


def late_preparation_spec(step: bool):
    """Turn 1's block acts on P and M:0[0]; turn 3's on M:0[1] alone, which only the verifier's turn-2
    ``step`` (H on it) touches before: without the step, turn 3's block is a preparation after another
    updated block, so the backward half contracts a suffix with its vector."""
    graph = build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=1, node_private=2, node_message=2)
    steps = (static_step(0, qcore.CNOT, ["M:0[0]", "V:0[0]"]),)
    turns = (
        ProverTurn(acts_on=("P", "M:0[0]"), delivers=(("M:0", 0),)),
        VerifierTurn(steps=steps + ((static_step(0, qcore.H, ["M:0[1]"]),) if step else ()), sends=("M:0",)),
        ProverTurn(acts_on=("M:0[1]",), delivers=(("M:0", 0),)),
    )
    phase = VerificationPhase(
        steps=(static_step(0, qcore.H, ["M:0[1]"]), static_step(0, qcore.CNOT, ["M:0[1]", "V:0[1]"])),
        accepts=(first_qubit_zero_accept(0, "V:0"),),
    )
    return ProtocolSpec(name=f"late-preparation-{step}", graph=graph, layout=layout, turns=turns, verification=phase)


def test_preparation_blocks_are_detected():
    spec, honest = private_outcome_spec()
    trie = prover._Trie(spec, honest.reply_fn)
    turn1, turn3 = trie.order
    assert trie.preparations == {turn1}  # turn 3 meets the qubits turn 1 acted on
    # An initial factor on the block's qubits: they need not start at |0>.
    seeded = replace(spec, initial_factors=((("P",), PLUS),))
    assert prover._Trie(seeded, honest.reply_fn).preparations == frozenset()
    # A fixed op before the block on its qubits, and without it.
    late, early = (prover._Trie(late_preparation_spec(step)) for step in (True, False))
    assert [key[0] for key in late.preparations] == [1]
    assert sorted(key[0] for key in early.preparations) == [1, 3]


@pytest.mark.parametrize("step", [False, True])
def test_trie_sweep_matches_per_path_with_a_late_preparation(monkeypatch, step):
    config = OptimizerConfig(restarts=3, sweeps=25, seed=4)
    trace = assert_same_as_per_path(monkeypatch, late_preparation_spec(step), config)
    for history in trace.sweep_acceptance:
        assert all(after >= before - 1e-9 for before, after in zip(history, history[1:]))


PREPARATION_SPECS = [*(("random-clean", seed) for seed in range(4)), ("dqct", 1_400_000), ("dqct", 1_400_002)]
FUSION_SPECS = [*PREPARATION_SPECS[:5], ("dqct", 1_400_001), ("late-preparation", 0)]


def spec_of(kind, seed):
    if kind == "late-preparation":
        return late_preparation_spec(False), ProverStrategy("skeleton", lambda *_: None)
    return random_clean_spec(seed) if kind == "random-clean" else dqct_probe(seed)


@pytest.mark.parametrize("kind, seed", PREPARATION_SPECS)
def test_preparation_update_is_column_0_of_the_dense_polar_update(monkeypatch, kind, seed):
    # The same fronts and suffixes through the dense polar update: its block
    # matrix is rank one, |0><s|, so its column 0 is the normalised witness.
    spec, honest = spec_of(kind, seed)
    update, checked = prover._update, []

    def both(trie, keys, fronts, suffixes, gates):
        columns = {}
        for key in (key for key in keys if key in trie.preparations):
            qubits = trie.blocks[key]
            m = np.zeros((2 ** len(qubits),) * 2, dtype=np.complex128)
            for i, node in trie.visits[key]:
                x = _keep_block(fronts[trie.parent[node]], qubits)
                m += trie.paths[i].weight * (x @ _keep_block(suffixes[i, key], qubits).conj().T)
            columns[key] = prover._polar_maximizer(m)[:, 0]
        update(trie, keys, fronts, suffixes, gates)
        for key, column in columns.items():
            assert np.max(np.abs(gates[key] - column)) <= 1e-12
            checked.append(key)

    monkeypatch.setattr(prover, "_update", both)
    seesaw_optimize(spec, OptimizerConfig(restarts=2, sweeps=4, seed=seed), honest=honest)
    assert checked


@pytest.mark.parametrize("kind, seed", FUSION_SPECS)
def test_fused_paths_replay_bit_identically_to_the_recorded_ones(kind, seed):
    spec, honest = spec_of(kind, seed)
    trie = prover._Trie(spec, honest.reply_fn).compile()
    n = trie.initial.size.bit_length() - 1
    rng = substream(seed, "tests.fused_paths")
    gates = random_gates(trie, rng)
    recorded = {id(op) for path in trie.paths for op in path.ops + path.accept if isinstance(op, StructuredOp)}
    composites = [op for op in trie.op[1:] if isinstance(op, StructuredOp) and id(op) not in recorded]
    for op in composites + [op for form in trie.accept for op in form]:
        assert 4 ** len(op.targets) <= 2**n
    if kind == "dqct":
        assert composites  # the probe's adjacent permutations and selectors fuse
    start = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    for i, path in enumerate(trie.paths):
        want = got = start
        for op in recorded_split(trie, i)[0]:
            want = _step(want, op, gates)
        for op in compiled_ops(trie, i):
            got = _step(got, op, gates)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, seed", [("random-clean", 0), ("dqct", 1_400_000), ("dqct", 1_400_002)])
@pytest.mark.parametrize("coin", [False, True])
def test_accept_form_reads_the_squared_norm_of_the_tail(kind, seed, coin):
    # Dense forms (the probe's tails span 3 of 11 qubits) and chains of T then
    # T^dag (the random spec's span 4 of 5 qubits).
    spec, honest = random_clean_spec(seed, coin=coin) if kind == "random-clean" else dqct_probe(seed)
    trie = prover._Trie(spec, honest.reply_fn).compile()
    rng = substream(seed, "tests.accept_form")
    forms = set()
    for i, path in enumerate(trie.paths):
        z = rng.standard_normal(trie.initial.size) + 1j * rng.standard_normal(trie.initial.size)
        z /= np.linalg.norm(z)
        tz = ez = z
        tail = recorded_split(trie, i)[1]
        for op in tail:
            tz = op.apply(tz)
        for op in trie.accept[i]:
            ez = op.apply(ez)
        back = tz
        for op in reversed(tail):
            back = trie.adjoint(op).apply(back)
        assert abs(np.vdot(z, ez).real - np.vdot(tz, tz).real) <= 1e-12
        assert np.max(np.abs(ez - back)) <= 1e-12
        forms.add(len(trie.accept[i]) == 1)  # one dense E
    assert forms == ({True} if kind == "dqct" else {False})


def test_stacked_polar_update_equals_the_per_block_one():
    rng = substream(3, "tests.stacked_polar")
    for dim, count in [(2, 3), (4, 4), (16, 8), (64, 2)]:
        stack = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
        stacked = prover._polar_maximizer(stack)
        for b in range(count):
            assert np.array_equal(stacked[b], prover._polar_maximizer(stack[b]))


@pytest.mark.parametrize("seed", [1_400_000, 1_400_002])
def test_dqct_probe_best_strategy_reproduces_its_acceptance(seed):
    spec, honest = dqct_probe(seed)
    trace = seesaw_optimize(spec, OptimizerConfig(restarts=2, sweeps=20, seed=seed), honest=honest)
    prepared = [key for key, gate in trace.best_gates.items() if gate.ndim == 1]
    assert [key[0] for key in prepared] == [1]
    (key,) = prepared
    unitary = trace.best_strategy.gate_fn(key[0], dict(key[1]))
    assert np.max(np.abs(unitary[:, 0] - trace.best_gates[key])) <= 1e-12
    assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(len(unitary)))) <= 1e-12
    report = execute_exact(spec, trace.best_strategy)
    assert abs(report.acceptance_probability - trace.best_acceptance) <= 1e-9
