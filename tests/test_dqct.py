import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dqip import protocol, qcore
from dqip.dqct import (
    DqctInstance,
    build_pdqct,
    closeness_bound,
    input_trace_distance,
    make_instance,
    soundness_probe,
)
from dqip.errors import CapacityError, ValidationError
from dqip.ghz import GhzProtocolParams
from dqip.network import path_graph
from dqip.prover import OptimizerConfig, seesaw_optimize
from dqip.protocol import _Executor, _Sample, execute_exact, execute_sampled
from dqip.seeding import substream

G2 = path_graph(2)
PARAMS = GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=0)


def honest_value(instance, params=PARAMS):
    compiled = build_pdqct(instance, params)
    return execute_exact(compiled.spec, compiled.honest).acceptance_probability


def test_equal_states_accept_surely():
    assert abs(honest_value(make_instance(G2, (1, 1), "equal", seed=1)) - 1.0) <= 1e-9


def test_orthogonal_states_accept_half():
    assert abs(honest_value(make_instance(G2, (1, 1), "orthogonal", seed=2)) - 0.5) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_random_states_swap_test_identity(seed):
    inst = make_instance(G2, (1, 1), "random", seed=seed)
    expected = 0.5 + 0.5 * inst.overlap_squared()
    assert abs(honest_value(inst) - expected) <= 1e-9


def test_larger_shapes():
    inst3 = make_instance(path_graph(3), (1, 1, 1), "random", seed=7)
    assert abs(honest_value(inst3) - (0.5 + 0.5 * inst3.overlap_squared())) <= 1e-9
    inst_wide = make_instance(G2, (2, 1), "random", seed=8)
    assert abs(honest_value(inst_wide) - (0.5 + 0.5 * inst_wide.overlap_squared())) <= 1e-9
    with_copies = GhzProtocolParams(copies=2, epsilon=0.25)
    inst = make_instance(G2, (1, 1), "random", seed=9)
    assert abs(honest_value(inst, with_copies) - (0.5 + 0.5 * inst.overlap_squared())) <= 1e-9


def test_instance_validation():
    with pytest.raises(ValidationError):
        DqctInstance(G2, (1,), np.array([1, 0], dtype=complex), np.array([1, 0], dtype=complex))
    with pytest.raises(ValidationError):
        DqctInstance(G2, (1, 1), np.ones(4, dtype=complex), np.ones(4, dtype=complex) / 2)
    with pytest.raises(ValidationError):
        make_instance(G2, (1, 1), "weird")


# ---------------------------------------------------------------------------
# closeness_bound
# ---------------------------------------------------------------------------


def test_inputs_over_the_dense_budget_are_refused_before_the_draw(monkeypatch):
    # Two 10-qubit inputs hold 2 * 16 * 2^10 bytes: one byte less refuses them.
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 2 * 16 * 2**10 - 1)
    with pytest.raises(CapacityError, match="closeness-test inputs on 10 qubits each") as err:
        make_instance(G2, (5, 5), "random", seed=1)
    assert err.value.requested == 2 * 16 * 2**10
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 2 * 16 * 2**10)
    assert make_instance(G2, (5, 5), "random", seed=1).total_qubits == 10


def test_closeness_bound_formula():
    eps = 0.01
    assert abs(closeness_bound(0.5, eps) - (1.0 + eps)) <= 1e-12
    assert abs(closeness_bound(1.0, eps) - eps) <= 1e-12
    assert abs(closeness_bound(0.9, eps) - (np.sqrt(0.2) + eps)) <= 1e-12


def test_closeness_bound_monotone_decreasing():
    values = [closeness_bound(a, 0.01) for a in np.linspace(0.0, 1.0, 21)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    with pytest.raises(ValidationError):
        closeness_bound(1.1, 0.01)
    with pytest.raises(ValidationError):
        closeness_bound(0.5, 0.0)


# ---------------------------------------------------------------------------
# Communication accounting and soundness probes
# ---------------------------------------------------------------------------


def test_communication_independent_of_input_size():
    small = build_pdqct(make_instance(G2, (1, 1), "random", seed=1), PARAMS)
    wide = build_pdqct(make_instance(G2, (2, 2), "random", seed=1), PARAMS)
    for key in ("quantum_message_qubits_per_node", "classical_broadcast_fields_per_edge"):
        assert small.spec.metadata[key] == wide.spec.metadata[key]
    # The turn-1 quantum delivery per node is N+1 qubits for both shapes.
    assert small.report.message_qubits_per_node == wide.report.message_qubits_per_node


def test_equal_states_seesaw_reaches_one():
    inst = make_instance(G2, (1, 1), "equal", seed=1)
    compiled = build_pdqct(inst, GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=2))
    honest = execute_exact(compiled.spec, compiled.honest).acceptance_probability
    probe = soundness_probe(inst, compiled, honest, OptimizerConfig(restarts=3, sweeps=40, seed=3))
    assert abs(probe["best_acceptance"] - 1.0) <= 1e-6
    assert probe["ceiling"] >= probe["best_acceptance"] - 1e-9


def test_orthogonal_with_ideal_ghz_capped_at_half():
    inst = make_instance(G2, (1, 1), "orthogonal", seed=2)
    compiled = build_pdqct(inst, GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=2))
    trace = seesaw_optimize(
        compiled.spec,
        OptimizerConfig(restarts=4, sweeps=60, seed=13),
        honest=compiled.honest,
        freeze_turns=(1,),
    )
    assert trace.best_acceptance <= 0.5 + 1e-6


def test_random_pair_stays_under_ceiling():
    inst = make_instance(G2, (1, 1), "random", seed=3)
    params = GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=2)
    compiled = build_pdqct(inst, params)
    honest = execute_exact(compiled.spec, compiled.honest).acceptance_probability
    probe = soundness_probe(inst, compiled, honest, OptimizerConfig(restarts=4, sweeps=50, seed=11))
    assert probe["honest_acceptance"] == honest
    assert probe["best_acceptance"] <= probe["ceiling"] + 1e-6
    # Theorem restated on measured values: the input distance obeys the
    # bound implied by the measured acceptance.
    assert probe["input_trace_distance"] <= probe["distance_bound_at_best"] + 1e-6


def test_input_distance_against_inner_product():
    inst = make_instance(G2, (1, 1), "random", seed=4)
    direct = np.sqrt(1 - inst.overlap_squared())
    assert abs(input_trace_distance(inst) - direct) <= 1e-10


@pytest.mark.parametrize("qubits", [(1, 1), (1, 3), (3, 3), (1, 1, 1), (1, 2, 3), (3, 3, 3)])
@pytest.mark.parametrize("kind", ["equal", "orthogonal", "random"])
def test_input_distance_matches_the_density_matrix_oracle(qubits, kind):
    inst = make_instance(path_graph(len(qubits)), qubits, kind, seed=sum(qubits))
    rho, sigma = (qcore.DensityOperator(inst.total_qubits, np.outer(v, v.conj())) for v in (inst.psi, inst.phi))
    assert abs(input_trace_distance(inst) - qcore.trace_distance(rho, sigma)) <= 1e-12


def test_input_distance_stays_accurate_near_zero():
    # phi = cos(t) psi + sin(t) psi_perp is sin(t) away from psi.  Read from
    # the vectors, the distance is off by rounding of the amplitudes alone;
    # sqrt(1 - |<psi|phi>|^2) is off by more than half of it below t = 1e-8.
    rng = substream(3, "tests.near-zero-distance")
    psi, raw = qcore.haar_state(4, rng), qcore.haar_state(4, rng)
    perp = raw - np.vdot(psi, raw) * psi
    perp /= np.linalg.norm(perp)
    for t in (1e-5, 1e-9, 1e-12):
        inst = DqctInstance(G2, (2, 2), psi, np.cos(t) * psi + np.sin(t) * perp)
        assert abs(input_trace_distance(inst) - np.sin(t)) <= 1e-15, t
        assert t > 1e-8 or abs(np.sqrt(max(0.0, 1 - inst.overlap_squared())) - np.sin(t)) > t / 2, t


def test_swap_test_runs_after_the_test_measurements():
    # Turn 4 lists the pGHZ rotations, the test measurements, then the
    # control mark and the controlled swaps, and nothing after every step:
    # the SWAP test acts on fewer qubits once the test copies are measured.
    compiled = build_pdqct(make_instance(path_graph(3), (2, 0, 1), "random", seed=0), PARAMS)
    turn4 = compiled.spec.turns[3]
    kinds = [event.describe["kind"] for event in turn4.steps]
    assert kinds == ["test-basis-rotation"] * 3 + ["test-outcomes"] * 3 + [
        "control-mark",
        "controlled-slice-swap",
        "noop",
        "controlled-slice-swap",
    ]
    assert [isinstance(event, protocol.Measurement) for event in turn4.steps] == [k == "test-outcomes" for k in kinds]
    assert turn4.measurements == ()


def test_the_record_walk_keeps_the_swap_test_ahead_of_the_outcome_selectors():
    # The control mark and the swaps commute with the test copies' selectors,
    # so the record walk lists them first, as it did when turn 4 ran them
    # before the measurements: the see-saw's trie shares them across the
    # outcomes and replays each once per coin branch, not once per outcome.
    compiled = build_pdqct(make_instance(G2, (1, 1), "random", seed=1), GhzProtocolParams(copies=1, prover_qubits=2))
    spec = compiled.spec
    turn4 = spec.turns[3]
    tests = tuple(e for e in turn4.steps if isinstance(e, protocol.Measurement))
    assert len(tests) == 2
    swaps_first = replace(turn4, steps=tuple(e for e in turn4.steps if e not in tests), measurements=tests)
    before = replace(spec, turns=(*spec.turns[:3], swaps_first, *spec.turns[4:]))
    (paths, initial), (want, want_initial) = (protocol.collect_paths(s, compiled.honest) for s in (spec, before))
    assert np.array_equal(initial, want_initial) and len(paths) == len(want) == 8
    for path, other in zip(paths, want, strict=True):
        assert path.weight == other.weight and len(path.ops) == len(other.ops)
        for op, expected in zip(path.ops, other.ops):
            if isinstance(op, qcore.StructuredOp):
                assert op.targets == expected.targets and np.array_equal(op.matrix, expected.matrix)
            else:
                assert op == expected


def test_a_sampled_17_qubit_run_applies_no_op_to_a_17_qubit_slice(monkeypatch):
    # The bench's sampled closeness test.  The SWAP test runs once the other
    # copy is measured out, so the CNOT onto B2 and the controlled swaps act
    # on 14 and 15 free qubits; the widest slice any op meets or leaves is
    # the 16 of the star delivery (17 when the swap test ran before the test
    # measurements: the CNOT onto B2 freed it and both swaps ran on it).
    widths = []
    apply = protocol._State.apply

    def recording(state, op, matrix, qubits):
        out = apply(state, op, matrix, qubits)
        widths.append(max(len(state.free), len(out.free)))
        return out

    monkeypatch.setattr(protocol._State, "apply", recording)
    for seed in (1, 2, 3):
        compiled = build_pdqct(make_instance(G2, (3, 3), "random", seed=seed), PARAMS)
        execute_sampled(compiled.spec, compiled.honest, trials=12, seed=seed)
    assert compiled.spec.layout.total_qubits == 17
    assert max(widths) == 16


@pytest.mark.parametrize("qubits", [(1, 1), (2, 1), (1, 1, 1)])
def test_a_closeness_leaf_applies_each_joint_accept_op_once(qubits):
    # Node 0's accept projector is the joint's first op, so node 0 reads its
    # mass from the joint's first intermediate state: a 2-node leaf makes 3
    # accept applications, not 4 (3 nodes: 5, not 6), and every mass equals,
    # bit for bit, the one of each node's ops applied alone.
    compiled = build_pdqct(make_instance(path_graph(len(qubits)), qubits, "random", seed=1), PARAMS)
    executor = _Executor(compiled.spec, compiled.honest)
    apply, applied = executor.policy.apply, []
    executor.policy.apply = lambda state, matrix, targets: applied.append(targets) or apply(state, matrix, targets)
    leaves = 0
    for leaf, views in executor.leaves():
        ops, passed = executor.accept_ops(leaf, views)
        assert all(passed.values()) and [op[0] for op in ops] == list(range(len(qubits)))
        applied.clear()
        total, p_all, per_node, _ = executor.acceptance(leaf, views)
        assert len(applied) == 2 * len(qubits) - 1
        state = leaf.state
        for u, matrix, targets in ops:
            alone = apply(leaf.state, matrix, targets)
            state = apply(state, matrix, targets)
            assert per_node[u] == protocol._norm2(alone.vec)
        assert p_all == protocol._norm2(state.vec) and total == protocol._norm2(leaf.state.vec)
        leaves += 1
    assert leaves > 1


def test_sampled_runs_classify_each_operator_once(classified):
    # Steps, checks and prover gates are classified once, keyed on the matrix
    # object and the targets in the branch's slice: a read-only matrix once
    # per process, any other once per executor.  So the count is bounded by
    # the distinct operators the trials resolve, not by the number of trials.
    # Trials draw the coins, so a short run may not reach every operator; at
    # this seed 12 trials reach all 17: the two input preparations and the
    # star preparations' dense form, each classified on its qubits (an
    # identity there would free nothing) and then applied through its column,
    # and 14 ops on slices.  The controlled slice swaps, the turn-5 fan-in
    # and the swap-test finish on either control-qubit pair the tests can
    # pick land on the same slice targets once the other copy is measured
    # (the idle turns' gate has no factors, so nothing); the swaps run after
    # the test measurements, so they count once each (19 and 16 when they
    # ran before them).  Accept projectors are classified like any fixed
    # op, since a leaf applies them to its slice: the leader's
    # basis_projector(2) and the other node's basis_projector(1), 2 of the 14.
    # The 14 ops on slices and the star delivery (one per process) are all
    # read-only gates, so a second run of the same spec classifies only the
    # two its executor holds: the preparations.
    compiled = build_pdqct(make_instance(G2, (1, 1), "random", seed=1), PARAMS)
    counts = []
    for trials in (12, 48):
        classified.clear()
        execute_sampled(compiled.spec, compiled.honest, trials=trials, seed=0)
        keys = [(matrix.tobytes(), targets) for matrix, targets in classified]
        assert len(set(keys)) == len(keys), trials  # no operator built or classified twice in a run
        counts.append(len(classified))
    assert counts == [17, 2]


def test_a_rebuilt_sampled_spec_classifies_only_the_ops_built_for_it(classified):
    # The bench's sampled closeness test, built and run twice as `dqip run`
    # does.  Every step of the second build is a read-only gate the first run
    # classified (the stars' Hadamard layers, the leader's CNOT, the
    # controlled slice swaps, the CNOT fan-in, the swap-test finish, the
    # accept projectors and the honest prover's turn-1 star delivery, one
    # FactoredOp per process whose dense form is read-only), so the second
    # run classifies only the preparations of its two input states.  The
    # first run classifies 17 (19 when the swaps ran before the test
    # measurements, see the test above).
    for seed in (1, 2):
        before = len(classified)
        instance = make_instance(G2, (3, 3), "random", seed=seed)
        compiled = build_pdqct(instance, PARAMS)
        execute_sampled(compiled.spec, compiled.honest, trials=12, seed=seed)
    assert before == 17
    fresh = classified[before:]
    assert len(fresh) == 2
    (psi, _), (phi, _) = fresh
    assert np.array_equal(psi[:, 0], instance.psi) and np.array_equal(phi[:, 0], instance.phi)
    assert not compiled.honest.gate_fn(1, {}).dense().flags.writeable


def test_a_sampled_run_checks_each_accept_projector_once(monkeypatch):
    # The bench's sampled closeness test resolves the same two read-only
    # accept projectors on every leaf; each is checked to be a projector on
    # its first leaf only, so a run makes 2 checks however many leaves it has.
    checked, leaves = [], []
    check = qcore.check_projector
    monkeypatch.setattr(protocol, "check_projector", lambda matrix: checked.append(matrix) or check(matrix))
    acceptance = _Executor.acceptance
    monkeypatch.setattr(_Executor, "acceptance", lambda self, *args: leaves.append(1) or acceptance(self, *args))
    for seed in (1, 2, 3):
        compiled = build_pdqct(make_instance(G2, (3, 3), "random", seed=seed), PARAMS)
        checked.clear()
        leaves.clear()
        execute_sampled(compiled.spec, compiled.honest, trials=36, seed=seed)
        assert len(checked) == 2 and len(leaves) > 2, (seed, len(checked), len(leaves))


def test_sampled_joint_acceptance_never_exceeds_a_node_acceptance():
    # A trial the joint accepts passes every node's projector, so a report's
    # joint count cannot exceed a node's.  Drawn apart, 87 of these 200
    # reports read more joint accepts than node 0's (seed 0: 8 of 12 against 5).
    compiled = build_pdqct(make_instance(G2, (1, 1), "random", seed=1), PARAMS)
    for seed in range(200):
        report = execute_sampled(compiled.spec, compiled.honest, trials=12, seed=seed)
        assert all(report.acceptance_probability <= p for p in report.per_node_acceptance.values()), (seed, report)


def test_sampled_17_qubit_run_holds_no_gather_index(monkeypatch):
    # The bench's sampled closeness test: three input qubits per node.  Its
    # fixed permutations (the controlled slice swaps, the leader's CNOT) each
    # take one index over the window their targets span in the slice, so a
    # run's peak stays within the states the walk is budgeted for plus one
    # vector, and an executor holds no index or state of 2^n entries: the
    # initial state it shares is the 2^12-entry product of the inputs.
    compiled = build_pdqct(make_instance(G2, (3, 3), "random", seed=1), PARAMS)
    n = compiled.spec.layout.total_qubits
    assert n == 17
    state_bytes = 16 * 2**n
    with monkeypatch.context() as patch:  # the walk's budget, read from its refusal under a zero limit
        patch.setattr(qcore, "MAX_DENSE_BYTES", 0)
        with pytest.raises(CapacityError, match="walk of") as err:
            execute_sampled(compiled.spec, compiled.honest, trials=1, seed=1)
    budget = err.value.requested
    tracemalloc.start()
    try:
        report = execute_sampled(compiled.spec, compiled.honest, trials=4, seed=1)
        _, peak = tracemalloc.get_traced_memory()
        executor = _Executor(compiled.spec, compiled.honest, _Sample(substream(1, "test.no-gather-index")))
        for _ in range(4):
            ((leaf, views),) = executor.leaves()
            executor.acceptance(leaf, views)
        del leaf, views
        held = [trace.size for trace in tracemalloc.take_snapshot().traces if trace.size >= 8 * 2**n]
    finally:
        tracemalloc.stop()
    assert report.trials == 4
    assert peak <= budget + state_bytes, (peak / state_bytes, budget / state_bytes)
    assert held == []
    assert executor.initial.vec.size == 2**12
