import gc
import tracemalloc

import numpy as np
import pytest

from dqip import ghz, qcore
from dqip.errors import CapacityError, ProtocolError, ValidationError
from dqip.ghz import (
    GhzProtocolParams,
    all_zero_cheat,
    build_pghz,
    ghz_fidelity,
    ghz_state,
    stabilizer_tests,
    star_state,
)
from dqip.network import cycle_graph, path_graph, spanning_tree, tree_label_replies, tree_labels_hold
from dqip.protocol import ProverStrategy, _Executor, execute_exact, execute_sampled
from dqip.qcore import FactoredOp


def test_ghz_two_qubits():
    assert np.allclose(ghz_state(2), [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


@pytest.mark.parametrize("n", range(2, 7))
def test_ghz_locally_equivalent_to_star(n):
    vec = ghz_state(n)
    for leaf in range(1, n):
        vec = qcore.apply_matrix_vec(vec, qcore.H, [leaf])
    assert np.linalg.norm(vec - star_state(n)) <= 1e-12


def test_star_state_amplitudes_match_explicit_cz_products():
    # Direct matrix construction from scratch.
    n = 3
    vec = np.ones(8, dtype=complex) / np.sqrt(8)
    cz01 = qcore.embed_operator(qcore.CZ, [0, 1], 3)
    cz02 = qcore.embed_operator(qcore.CZ, [0, 2], 3)
    assert np.allclose(star_state(3), cz02 @ cz01 @ vec, atol=1e-12)


def test_state_constructors_reject_small_n():
    with pytest.raises(ValidationError):
        ghz_state(1)
    with pytest.raises(ValidationError):
        star_state(1)


# ---------------------------------------------------------------------------
# Stabilizer tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_star_passes_both_tests(n):
    t0, t1 = stabilizer_tests(n)
    star = star_state(n)
    for test in (t0, t1):
        assert abs(qcore.projector_probability(star, test.projector, list(range(n))) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_zero_against_equality_test(n):
    _, t1 = stabilizer_tests(n)
    zero = np.zeros(2**n, dtype=complex)
    zero[0] = 1.0
    expect = 2.0 ** -(n - 1)
    assert abs(qcore.projector_probability(zero, t1.projector, list(range(n))) - expect) <= 1e-12


def test_projectors_idempotent():
    t0, t1 = stabilizer_tests(3)
    for test in (t0, t1):
        assert np.max(np.abs(test.projector @ test.projector - test.projector)) <= 1e-10


def _basis_product_state(test, bits):
    n = len(test.bases)
    vec = np.zeros(2**n, dtype=complex)
    vec[sum(b << q for q, b in enumerate(bits))] = 1.0
    for q, basis in enumerate(test.bases):
        if basis == "X":
            vec = qcore.apply_matrix_vec(vec, qcore.H, [q])
    return vec


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_evaluation_equals_projector_on_product_eigenstates(n):
    # On eigenstates of the assigned bases the outcome is deterministic and
    # the predicate value must equal the projector expectation exactly.
    for test in stabilizer_tests(n):
        for idx in range(2**n):
            bits = tuple((idx >> q) & 1 for q in range(n))
            state = _basis_product_state(test, bits)
            classical = 1.0 if test.predicate(bits) else 0.0
            quantum = qcore.projector_probability(state, test.projector, list(range(n)))
            assert abs(classical - quantum) <= 1e-10


def classical_expectation(test, vec: np.ndarray) -> float:
    """Probability that measuring the state ``vec`` in the test's bases passes its predicate."""
    for q, basis in enumerate(test.bases):
        if basis == "X":
            vec = qcore.apply_matrix_vec(vec, qcore.H, [q])
    n = len(test.bases)
    passing = [idx for idx in range(2**n) if test.predicate(tuple((idx >> q) & 1 for q in range(n)))]
    return float(np.sum(np.abs(vec[passing]) ** 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_evaluation_equals_projector_on_random_states(n):
    for seed in range(5):
        state = qcore.haar_state(n, 100 * n + seed)
        for test in stabilizer_tests(n):
            quantum = qcore.projector_probability(state, test.projector, list(range(n)))
            assert abs(classical_expectation(test, state) - quantum) <= 1e-10


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,copies", [(3, 1), (3, 2), (4, 1)])
def test_pghz_honest_completeness(n, copies):
    compiled = build_pghz(path_graph(n), GhzProtocolParams(copies=copies))
    report = execute_exact(compiled.spec, compiled.honest, collect_output=True)
    assert abs(report.acceptance_probability - 1.0) <= 1e-9
    assert ghz_fidelity(report.output_state) >= 1 - 1e-9


def test_pghz_on_non_star_topology():
    compiled = build_pghz(cycle_graph(3), GhzProtocolParams(copies=1))
    report = execute_exact(compiled.spec, compiled.honest, collect_output=True)
    assert abs(report.acceptance_probability - 1.0) <= 1e-9
    assert ghz_fidelity(report.output_state) >= 1 - 1e-9


def test_pghz_sampled_run():
    compiled = build_pghz(path_graph(3), GhzProtocolParams(copies=2))
    report = execute_sampled(compiled.spec, compiled.honest, trials=1000, seed=5)
    assert report.acceptance_probability == 1.0


def test_all_zero_cheat_detected():
    params = GhzProtocolParams(copies=1)
    compiled = build_pghz(path_graph(3), params)
    cheat = all_zero_cheat(compiled.spec, params)
    report = execute_exact(compiled.spec, cheat, collect_output=True)
    # Parity test passes half the time, equality test with prob 1/4; the
    # conditioned output is |000> with GHZ fidelity 1/2 * 1/4... computed
    # independently: acceptance (1/2)(1/2 + 1/4) = 3/8, fidelity 1/8.
    assert abs(report.acceptance_probability - 0.375) <= 1e-9
    assert report.acceptance_probability < 1
    fid = ghz_fidelity(report.output_state)
    assert abs(fid - 0.125) <= 1e-9
    assert fid < 1 - compiled.spec.metadata["epsilon"]


def test_wrong_parity_label_rejected_on_that_branch():
    params = GhzProtocolParams(copies=2)
    compiled = build_pghz(path_graph(3), params)

    def corrupt_reply(slot_name, view, _inner=compiled.honest.reply_fn):
        value = _inner(slot_name, view)
        if slot_name == "s:1":
            return value ^ 1  # flip the label of test index 0
        return value

    cheat = ProverStrategy("bad-label", compiled.honest.gate_fn, corrupt_reply)
    report = execute_exact(compiled.spec, cheat)
    # Test index 0 runs on every coin draw; its parity recursion fails surely
    # whenever that index is a parity test (b_test bit 0 = 0), i.e. half the
    # time, and the corrupted label is never consulted otherwise.
    assert abs(report.acceptance_probability - 0.5) <= 1e-9
    assert report.acceptance_probability < 1
    # Both the corrupted node and its parent reject on the dead branches.
    assert report.per_node_acceptance[0] <= 0.5 + 1e-9
    assert report.per_node_acceptance[1] <= 0.5 + 1e-9


def _per_bit_predicate(graph, copies, view, u, leader=0):
    """The pGHZ verification predicate with its tests checked one copy at a time."""
    received = {v: view[f"recv:{v}"] for v in graph.neighbors(u)}
    my_test, my_target = view[f"becho_test:{u}"], view[f"becho_target:{u}"]
    for got in received.values():
        if got["becho_test"] != my_test or got["becho_target"] != my_target:
            return False
    if u == leader and (my_test != view["btest"] or my_target != view["btarget"]):
        return False
    if not tree_labels_hold(graph, leader, u, view, received):
        return False
    o_u, s_u = view[f"o:{u}"], view[f"s:{u}"]
    children = [v for v, got in received.items() if got["parent"] == u]
    for t in range(copies):
        if (my_test >> t) & 1 == 0:
            total = ((o_u >> t) & 1) + sum((received[v]["s"] >> t) & 1 for v in children)
            if total % 2 != (0 if u == leader else (s_u >> t) & 1):
                return False
        elif any((got["o"] >> t) & 1 != (o_u >> t) & 1 for got in received.values()):
            return False
    return True


@pytest.mark.parametrize("graph", [path_graph(2), path_graph(4), cycle_graph(4)], ids=["path2", "path4", "cycle4"])
@pytest.mark.parametrize("copies", [1, 2, 3])
def test_pghz_predicate_equals_the_per_bit_loop(graph, copies):
    # Random transcripts around the honest tree labels: mostly honest echoes,
    # random outcomes and parity replies, now and then one lying label.  Now
    # and then every node echoes the same wrong test string, or the same wrong
    # target copy, which only the leader's check against its coins catches.
    rng = np.random.default_rng(copies)
    accepts = build_pghz(graph, GhzProtocolParams(copies=copies)).spec.verification.accepts
    n, fields = graph.node_count, ("becho_test", "becho_target", "o", "s", "leader", "parent", "dist")
    verdicts = set()
    for _ in range(400):
        btest, btarget = int(rng.integers(2**copies)), int(rng.integers(copies + 1))
        values = {"btest": btest, "btarget": btarget, **tree_label_replies(spanning_tree(graph, 0))}
        echo_test = btest if rng.random() < 0.9 else (btest + int(rng.integers(1, 2**copies))) % 2**copies
        echo_target = btarget if rng.random() < 0.9 else (btarget + int(rng.integers(1, copies + 1))) % (copies + 1)
        for u in range(n):
            values[f"becho_test:{u}"] = echo_test if rng.random() < 0.9 else int(rng.integers(2**copies))
            values[f"becho_target:{u}"] = echo_target
            values[f"o:{u}"], values[f"s:{u}"] = (int(x) for x in rng.integers(2**copies, size=2))
        if rng.random() < 0.1:
            values[f"parent:{int(rng.integers(1, n))}"] = int(rng.integers(n + 1))
        bundles = {v: {f: values[f"{f}:{v}"] for f in fields} for v in range(n)}
        for accept in accepts:
            u = accept.node
            view = values | {f"recv:{v}": bundles[v] for v in graph.neighbors(u)}
            verdict = accept.predicate(view)
            assert verdict == _per_bit_predicate(graph, copies, view, u)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "lies",
    [{"dist:1": 2}, {"parent:2": 2}, tree_label_replies(spanning_tree(path_graph(3), 2))],
    ids=["dist:1", "parent:2", "rooted-at-2"],
)
def test_lying_tree_label_rejected(lies):
    # The last lie is a consistent spanning tree rooted at node 2, which every
    # label names: only the leader's check that it names itself catches it.
    params = GhzProtocolParams(copies=1)
    compiled = build_pghz(path_graph(3), params)

    def lying_reply(slot_name, view, _inner=compiled.honest.reply_fn):
        return lies[slot_name] if slot_name in lies else _inner(slot_name, view)

    cheat = ProverStrategy("bad-tree-label", compiled.honest.gate_fn, lying_reply)
    assert execute_exact(compiled.spec, cheat).acceptance_probability == 0.0


def test_params_validation():
    from dqip.network import build_network

    with pytest.raises(ValidationError):
        GhzProtocolParams(copies=0)
    with pytest.raises(ValidationError):
        GhzProtocolParams(copies=1, epsilon=1.5)
    with pytest.raises(ValidationError):
        build_pghz(build_network(1, []), GhzProtocolParams(copies=1))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("prover_qubits", [0, 1])
def test_factored_honest_gate_matches_dense_gate(n, copies, prover_qubits):
    params = GhzProtocolParams(copies=copies, prover_qubits=prover_qubits)
    compiled = build_pghz(path_graph(n), params)
    honest = compiled.honest
    prep = ghz.star_prep_matrix(n)
    kron_gate = np.eye(2**prover_qubits, dtype=complex)
    for _ in range(copies + 1):
        kron_gate = np.kron(prep, kron_gate)
    assert np.array_equal(honest.gate_fn(1, {}).dense(), kron_gate)

    def dense_gate(turn_index, view):
        return qcore.dense_matrix(honest.gate_fn(turn_index, view))

    dense = ProverStrategy("dense", dense_gate, honest.reply_fn)
    factored_report = execute_exact(compiled.spec, honest, collect_output=True)
    dense_report = execute_exact(compiled.spec, dense, collect_output=True)
    assert abs(factored_report.acceptance_probability - dense_report.acceptance_probability) <= 1e-12
    assert np.allclose(factored_report.output_state, dense_report.output_state, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "factors, arity",
    [
        ([(np.eye(4), [0, 0])], 6),  # a position repeated within one factor
        ([(np.eye(2), [6])], 6),  # position out of range
        ([(np.eye(4), [0])], 6),  # factor shape does not match its positions
        ([(np.eye(2), [0])], 5),  # arity does not match the turn's qubits
    ],
)
def test_bad_factored_gate_is_a_protocol_error_naming_the_turn(factors, arity):
    compiled = build_pghz(path_graph(2), GhzProtocolParams(copies=2))

    def gate(turn_index, view, _inner=compiled.honest.gate_fn):
        return FactoredOp(arity, factors) if turn_index == 1 else _inner(turn_index, view)

    with pytest.raises(ProtocolError) as err:
        execute_exact(compiled.spec, ProverStrategy("bad", gate, compiled.honest.reply_fn))
    assert "turn 1" in str(err.value)


def test_walks_over_the_budget_are_refused_before_they_start(monkeypatch):
    # n=2, N=1: 4 qubits, so each state holds 256 bytes.  The deepest path
    # holds the initial state, the current one and two being built, the coin
    # turn's parent and the parent of the group of measurements o:0 and o:1,
    # which forks once and is named by its last member: 6 states.
    compiled = build_pghz(path_graph(2), GhzProtocolParams(copies=1))
    calls = []

    def gate(turn_index, view, _inner=compiled.honest.gate_fn):
        calls.append(turn_index)
        return _inner(turn_index, view)

    counted = ProverStrategy("counted", gate, compiled.honest.reply_fn)
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 5 * 256)
    for run in (lambda: execute_exact(compiled.spec, counted), lambda: execute_sampled(compiled.spec, counted, 3, 1)):
        with pytest.raises(CapacityError) as err:
            run()
        assert "walk of 'ghz-verify[n=2,N=1]'" in str(err.value)
        assert "deepest fork turn 4 (verifier) 'o:1'" in str(err.value)
        assert err.value.requested == 6 * 256 and err.value.limit == 5 * 256
    assert calls == []  # refused before the first prover gate
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 6 * 256)
    assert abs(execute_exact(compiled.spec, counted).acceptance_probability - 1.0) <= 1e-9


def test_exact_walk_peak_is_flat_in_leaf_count():
    # Two 12-qubit instances on the 4-node path: N=1 with four prover qubits
    # has 20 leaves, N=2 without has 300.  A depth-first walk holds one state
    # per open fork (one coin turn, four measurements) plus the initial state,
    # the current one and two being built, whatever the number of leaves; the
    # level-by-level walk this replaced peaked at about 330 states for N=2.
    state_bytes = 16 * 2**12
    for copies, prover_qubits, leaves in ((1, 4, 20), (2, 0, 300)):
        params = GhzProtocolParams(copies=copies, epsilon=0.25, delta=0.5, seed=1, prover_qubits=prover_qubits)
        compiled = build_pghz(path_graph(4), params)
        assert compiled.spec.layout.total_qubits == 12
        assert sum(1 for _ in _Executor(compiled.spec, compiled.honest).leaves()) == leaves
        execute_exact(compiled.spec, compiled.honest)  # warms the kernel plans, like any other input
        tracemalloc.start()
        try:
            report = execute_exact(compiled.spec, compiled.honest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(report.acceptance_probability - 1.0) <= 1e-9
        # 9 states, and one more for transcripts and kernel scratch.
        assert peak < 10 * state_bytes, (copies, peak / state_bytes)


def test_runs_free_their_states_without_the_cyclic_collector():
    # A reference cycle through the walk would keep its states alive until
    # the cyclic collector ran; with the collector off, no block the size of
    # a state may outlive the call.
    compiled = build_pghz(path_graph(4), GhzProtocolParams(copies=2, epsilon=0.25, delta=0.5, seed=1))
    state_bytes = 16 * 2**compiled.spec.layout.total_qubits
    runs = (
        lambda: execute_exact(compiled.spec, compiled.honest, collect_output=True),
        lambda: execute_sampled(compiled.spec, compiled.honest, trials=3, seed=1),
    )
    for run in runs:
        run()  # warms the kernel plans
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            report = run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert report.acceptance_probability > 0.99
        assert [trace.size for trace in snapshot.traces if trace.size >= state_bytes] == [], report.mode
