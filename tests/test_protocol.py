import numpy as np
import pytest

from dqip import qcore
from dqip.errors import ProtocolError
from dqip.seeding import substream
from dqip.network import allocate_layout, path_graph
from dqip.protocol import (
    CoinFlip,
    Measurement,
    ProjectiveCheck,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    VerificationPhase,
    VerifierTurn,
    _Executor,
    _Sample,
    collect_paths,
    execute_exact,
    execute_sampled,
    first_qubit_zero_accept,
    spec_to_json,
    static_step,
    wilson_interval,
)

from specs import always_accept_spec, fair_coin_spec, flip_reject_spec, identity_for, random_clean_spec


def test_always_accept():
    spec = always_accept_spec(2)
    report = execute_exact(spec, identity_for(spec))
    assert abs(report.acceptance_probability - 1.0) <= 1e-12
    assert all(abs(v - 1.0) <= 1e-12 for v in report.per_node_acceptance.values())


def test_flip_rejects():
    spec = flip_reject_spec()
    report = execute_exact(spec, identity_for(spec))
    assert report.acceptance_probability <= 1e-12
    assert report.per_node_acceptance[0] <= 1e-12
    assert abs(report.per_node_acceptance[1] - 1.0) <= 1e-12


def test_fair_coin_exact_and_sampled():
    spec = fair_coin_spec()
    prover = identity_for(spec)
    exact = execute_exact(spec, prover)
    assert abs(exact.acceptance_probability - 0.5) <= 1e-12
    sampled = execute_sampled(spec, prover, trials=10_000, seed=42)
    assert abs(sampled.acceptance_probability - 0.5) <= 0.02
    lo, hi = sampled.wilson_interval
    assert lo <= 0.5 <= hi


def test_sampled_deterministic_for_seed():
    spec = fair_coin_spec()
    prover = identity_for(spec)
    a = execute_sampled(spec, prover, trials=500, seed=7)
    b = execute_sampled(spec, prover, trials=500, seed=7)
    assert a.acceptance_probability == b.acceptance_probability


def test_always_accept_sampled():
    spec = always_accept_spec(1)
    report = execute_sampled(spec, identity_for(spec), trials=100, seed=1)
    assert report.acceptance_probability == 1.0


def test_ownership_violation_reported():
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=1)
    # Node 0 tries to act on M:0 while the prover still holds it.
    turn = VerifierTurn(steps=(static_step(0, qcore.X, ["M:0"]),))
    spec = ProtocolSpec(
        name="bad",
        graph=graph,
        layout=layout,
        turns=(turn,),
        verification=VerificationPhase(accepts=(first_qubit_zero_accept(0, "V:0"),)),
    )
    with pytest.raises(ProtocolError) as err:
        execute_exact(spec, identity_for(spec))
    assert "M:0" in str(err.value) and "turn 1" in str(err.value)


def test_turn_alternation_enforced():
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=1)
    with pytest.raises(ProtocolError):
        ProtocolSpec(
            name="bad",
            graph=graph,
            layout=layout,
            turns=(VerifierTurn(), VerifierTurn()),
            verification=VerificationPhase(),
        )


# ---------------------------------------------------------------------------
# Statistical agreement and invariances
# ---------------------------------------------------------------------------


def test_exact_and_sampled_agree_on_random_specs():
    hits = 0
    total = 100
    for seed in range(total):
        spec, prover = random_clean_spec(seed, coin=(seed % 3 == 0))
        exact = execute_exact(spec, prover).acceptance_probability
        sampled = execute_sampled(spec, prover, trials=600, seed=3000 + seed)
        lo, hi = sampled.wilson_interval
        if lo - 1e-12 <= exact <= hi + 1e-12:
            hits += 1
    assert hits >= 95


def measure_and_check_spec(seed: int) -> tuple[ProtocolSpec, ProverStrategy]:
    """Random 2-node protocol with a coin, a measurement and a check mid-protocol.

    Node 0 measures its message (the outcome goes to the prover), node 1
    checks its private qubit against |+><+|, and node 0 measures its private
    qubit again in the verification phase.
    """
    rng = substream(seed, "test.measure-and-check")
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=1)
    plus = np.full((2, 2), 0.5, dtype=complex)
    turn2 = VerifierTurn(
        coins=(CoinFlip("r", 2, owner=None),),
        steps=tuple(static_step(u, qcore.haar_matrix(2, rng, "test gate"), [f"V:{u}", f"M:{u}"]) for u in range(2)),
        measurements=(Measurement("m0", 0, lambda view: ["M:0"], to_prover=True),),
        checks=(ProjectiveCheck("c1", (1,), lambda view: (plus, ["V:1"])),),
        sends=("M:0", "M:1"),
    )
    acts = ("P", "M:0", "M:1")
    turns = (
        ProverTurn(acts_on=acts, delivers=(("M:0", 0), ("M:1", 1))),
        turn2,
        ProverTurn(acts_on=acts, delivers=(("M:0", 0), ("M:1", 1))),
    )
    verification = VerificationPhase(
        steps=(static_step(0, qcore.haar_matrix(2, rng, "test gate"), ["V:0", "M:0"]),),
        measurements=(Measurement("v0", 0, lambda view: ["V:0"]),),
        accepts=tuple(first_qubit_zero_accept(u, f"M:{u}") for u in range(2)),
    )
    spec = ProtocolSpec(
        name=f"measure-check-{seed}", graph=graph, layout=layout, turns=turns, verification=verification
    )
    gates = {1: qcore.haar_matrix(3, rng, "test gate")}
    # The turn-3 gate depends on the measured outcome and the coin the prover saw.
    gates.update({(m, r): qcore.haar_matrix(3, rng, "test gate") for m in range(2) for r in range(2)})
    return spec, ProverStrategy("haar", lambda t, view: gates[1] if t == 1 else gates[view["m0"], view["r"]])


def test_sampled_leaves_follow_the_exact_leaf_weights():
    # The sample policy keeps one child per event; over many walks each leaf
    # transcript must turn up at its exact Born weight, within 5 sigma.
    walks = 2000
    cases = [random_clean_spec(5, coin=True), measure_and_check_spec(0), measure_and_check_spec(1)]
    for case, (spec, prover) in enumerate(cases):
        exact = {}
        for branch, _ in _Executor(spec, prover).leaves():
            key = tuple(sorted(branch.values.items()))
            exact[key] = exact.get(key, 0.0) + branch.weight * float(np.vdot(branch.vec, branch.vec).real)
        assert abs(sum(exact.values()) - 1.0) <= 1e-12
        assert len(exact) >= (2 if case == 0 else 8)
        sampler = _Executor(spec, prover, _Sample(substream(case, "test.sampled-leaves")))
        counts: dict = {}
        for _ in range(walks):
            ((branch, _),) = sampler.leaves()
            key = tuple(sorted(branch.values.items()))
            counts[key] = counts.get(key, 0) + 1
        for key in set(exact) | set(counts):
            p = exact.get(key, 0.0)
            sigma = np.sqrt(walks * p * (1 - p))
            assert abs(counts.get(key, 0) - walks * p) <= 5 * sigma, (spec.name, key, counts.get(key, 0), walks * p)


def check_after_measurement_spec() -> ProtocolSpec:
    """Node 0 measures V:0 (|0> with weight 0.3), then node 1 checks V:1 against |0>
    (weight 0.6) and node 0 checks M:0 against |0> (certain) in the same turn."""
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=1)
    zero = np.diag([1.0, 0.0]).astype(complex)
    acts = ("P", "M:0", "M:1")
    turns = (
        ProverTurn(acts_on=acts, delivers=(("M:0", 0), ("M:1", 1))),
        VerifierTurn(
            steps=tuple(
                static_step(u, qcore.acceptance_rotation(c), [f"V:{u}"]) for u, c in ((0, 0.3), (1, 0.6))
            ),
            measurements=(Measurement("m0", 0, lambda view: ["V:0"]),),
            checks=(
                ProjectiveCheck("c1", (1,), lambda view: (zero, ["V:1"])),
                ProjectiveCheck("c0", (0,), lambda view: (zero, ["M:0"])),
            ),
            sends=("M:0", "M:1"),
        ),
        ProverTurn(acts_on=acts, delivers=(("M:0", 0), ("M:1", 1))),
    )
    verification = VerificationPhase(accepts=tuple(first_qubit_zero_accept(u, f"M:{u}") for u in range(2)))
    return ProtocolSpec(name="check-after-measurement", graph=graph, layout=layout, turns=turns, verification=verification)


def test_sampled_checks_after_a_measurement_divide_by_the_unnormalised_norm():
    # The sampled walk does not renormalise the measured child, so the checks
    # draw from a state of squared norm 0.3 or 0.7, and smaller still after the
    # first check.  Node 0's check holds with certainty in every branch, so a
    # draw that did not divide by the norm would miss it on most walks.
    spec = check_after_measurement_spec()
    prover = identity_for(spec)
    exact = {}
    for branch, _ in _Executor(spec, prover).leaves():
        key = (branch.values["m0"], branch.values["c1"], branch.values["c0"])
        exact[key] = branch.weight * float(np.vdot(branch.vec, branch.vec).real)
    want = {(m, c, 1): (0.3 if m == 0 else 0.7) * (0.6 if c == 1 else 0.4) for m in (0, 1) for c in (0, 1)}
    assert exact.keys() == want.keys() and all(abs(exact[k] - want[k]) <= 1e-12 for k in want)
    walks = 2000
    sampler = _Executor(spec, prover, _Sample(substream(3, "test.check-after-measurement")))
    counts: dict = {}
    for _ in range(walks):
        ((branch, _),) = sampler.leaves()
        key = (branch.values["m0"], branch.values["c1"], branch.values["c0"])
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(want)  # c0 never misses
    for key, p in want.items():
        assert abs(counts.get(key, 0) - walks * p) <= 5 * np.sqrt(walks * p * (1 - p)), (key, counts)


@pytest.mark.parametrize("seed, accepted, node_accepted", [(1, 6, {0: 6, 1: 12}), (7, 9, {0: 2, 1: 12})])
def test_sampled_closeness_test_on_17_qubits_keeps_its_draws(seed, accepted, node_accepted):
    # The benchmark's sampled config.  These are the counts the walk drew when
    # it renormalised every child and applied each accept projector to the
    # leaf: taking every probability from a marginal changes no draw.
    from dqip.dqct import build_pdqct, make_instance
    from dqip.ghz import GhzProtocolParams

    params = GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=0)
    compiled = build_pdqct(make_instance(path_graph(2), (3, 3), "random", seed=seed), params)
    assert compiled.spec.layout.total_qubits == 17
    report = execute_sampled(compiled.spec, compiled.honest, trials=12, seed=seed)
    assert report.acceptance_probability == accepted / 12
    assert report.per_node_acceptance == {u: k / 12 for u, k in node_accepted.items()}


def _leaf_cases():
    from dqip.dqct import build_pdqct, make_instance
    from dqip.ghz import GhzProtocolParams

    cases = [random_clean_spec(seed, coin=coin) for seed in range(3) for coin in (False, True)]
    cases += [measure_and_check_spec(0), (check_after_measurement_spec(), None)]
    closeness = build_pdqct(make_instance(path_graph(2), (1, 1), "random", seed=4), GhzProtocolParams(copies=1))
    rng = substream(4, "test.leaf-cases")

    def scrambled(turn_index, view):  # the honest move after a Haar unitary: some GHZ predicates fail
        gate = qcore.dense_matrix(closeness.honest.gate_fn(turn_index, view))
        return gate if len(gate) == 1 else qcore.haar_matrix(len(gate).bit_length() - 1, rng, "test gate") @ gate

    cheat = ProverStrategy("scrambled", scrambled, closeness.honest.reply_fn)
    return cases + [(closeness.spec, closeness.honest), (closeness.spec, cheat)]


def test_acceptance_reads_equal_the_norms_of_the_projected_leaves():
    # Each leaf's marginal reads against ||A v||^2, with A built by applying the
    # embedded projectors to the leaf's (unnormalised) vector.
    predicate_failed = 0
    for spec, prover in _leaf_cases():
        executor = _Executor(spec, prover or identity_for(spec))
        n = spec.layout.total_qubits
        for branch, views in executor.leaves():
            total, joint, per_node, projected = executor.acceptance(branch, views, project=True)
            ops, passed = executor.accept_ops(branch, views)
            assert abs(total - float(np.vdot(branch.vec, branch.vec).real)) <= 1e-12
            want = {}
            for u in list(passed) + ["all"]:
                vec = branch.vec
                for node, matrix, qubits in ops:
                    if u in ("all", node):
                        vec = qcore.embed_operator(matrix, qubits, n) @ vec
                want[u] = vec
            for u, ok in passed.items():
                assert abs(per_node[u] - (float(np.vdot(want[u], want[u]).real) if ok else 0.0)) <= 1e-12, (spec.name, u)
            if all(passed.values()):
                assert abs(joint - float(np.vdot(want["all"], want["all"]).real)) <= 1e-12, spec.name
                assert np.allclose(projected, want["all"], rtol=0, atol=1e-12)
            else:
                predicate_failed += 1
                assert joint == 0.0 and projected is None
            assert executor.acceptance(branch, views)[3] is None  # built only when asked for
    assert predicate_failed > 0


def test_checks_on_registers_the_nodes_do_not_hold_fail_in_both_modes():
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=1)
    proj = np.diag([1.0, 0.0]).astype(complex)
    accepts = tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(2))
    cases = [
        # Node 0 checks V:1, which node 1 holds.
        (ProjectiveCheck("c", (0,), lambda view: (proj, ["V:1"])), "'V:1' is not held by the checking nodes"),
        # A cross-node check without node exchange.
        (ProjectiveCheck("c", (0, 1), lambda view: (proj, ["V:0"])), "requires node exchange"),
    ]
    for check, message in cases:
        spec = ProtocolSpec(
            name="bad-check",
            graph=graph,
            layout=layout,
            turns=(VerifierTurn(checks=(check,)),),
            verification=VerificationPhase(accepts=accepts),
        )
        for run in (lambda: execute_exact(spec, identity_for(spec)),
                    lambda: execute_sampled(spec, identity_for(spec), trials=3, seed=1)):
            with pytest.raises(ProtocolError) as err:
                run()
            assert message in str(err.value) and "turn 1" in str(err.value)


def test_prover_post_processing_on_private_register_is_irrelevant():
    # A unitary acting solely on P after the final prover turn cannot change
    # acceptance: append it to the last prover gate and compare.
    for seed in range(5):
        spec, prover = random_clean_spec(seed)
        extra = qcore.haar_matrix(1, substream(123 + seed, "qcore.haar"), "test gate")

        def gate2(turn_index, view, _inner=prover.gate_fn):
            mat = _inner(turn_index, view)
            if turn_index == 3:
                # P is qubit 0 of the (P, M:0, M:1) action space.
                mat = np.kron(np.eye(4), extra) @ mat
            return mat

        tweaked = ProverStrategy("tweaked", gate2)
        a = execute_exact(spec, prover).acceptance_probability
        b = execute_exact(spec, tweaked).acceptance_probability
        assert abs(a - b) <= 1e-10


def test_acceptance_invariant_under_node_relabeling():
    # Swap the two nodes of the random spec: rebuild with permuted data.
    for seed in range(4):
        spec, prover = random_clean_spec(seed)
        base = execute_exact(spec, prover).acceptance_probability

        perm = {0: 1, 1: 0}
        graph = spec.graph
        layout = spec.layout
        swap_regs = {"V:0": "V:1", "V:1": "V:0", "M:0": "M:1", "M:1": "M:0"}

        def permute_step(step):
            mat, regs = step.resolve({})
            return static_step(perm[step.actor], mat, [swap_regs.get(r, r) for r in regs])

        turns = []
        for turn in spec.turns:
            if isinstance(turn, ProverTurn):
                # Prover acts on (P, M:0, M:1); conjugate by the M:0 <-> M:1 swap.
                swap_m = qcore.embed_operator(qcore.SWAP, [1, 2], 3)
                turns.append(
                    ProverTurn(acts_on=turn.acts_on, delivers=turn.delivers)
                )
            else:
                turns.append(
                    VerifierTurn(
                        steps=tuple(permute_step(s) for s in turn.steps),
                        sends=turn.sends,
                    )
                )
        ver = VerificationPhase(
            steps=tuple(permute_step(s) for s in spec.verification.steps),
            accepts=tuple(
                first_qubit_zero_accept(perm[a.node], f"V:{perm[a.node]}") for a in spec.verification.accepts
            ),
        )
        permuted = ProtocolSpec(
            name="permuted",
            graph=graph,
            layout=layout,
            turns=tuple(turns),
            verification=ver,
        )
        swap_m = qcore.embed_operator(qcore.SWAP, [1, 2], 3)

        def permuted_gate(turn_index, view, _inner=prover.gate_fn):
            return swap_m @ _inner(turn_index, view) @ swap_m

        out = execute_exact(permuted, ProverStrategy("perm", permuted_gate)).acceptance_probability
        assert abs(out - base) <= 1e-10


def test_recorded_paths_share_structured_ops_across_branches():
    # One path per value of the shared coin at turn 2: the turn-1 block comes
    # before the fork, and the turn-2 steps and the accept projectors are the
    # same matrices on both branches, so both paths hold the same op objects.
    spec, honest = random_clean_spec(0, coin=True)
    paths, _ = collect_paths(spec, honest)
    assert len(paths) == 2
    for path in paths:
        assert [isinstance(op, qcore.StructuredOp) for op in path.ops] == [False, True, True, False, True, True]
        assert all(isinstance(op, qcore.StructuredOp) for op in path.accept)
    first, second = paths
    assert all(a is b for a, b in zip(first.ops[:3], second.ops[:3]))
    assert all(a is b for a, b in zip(first.accept, second.accept))
    assert first.ops[3] != second.ops[3]  # the turn-3 block key holds the coin


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo < hi <= 1.0


def test_spec_serialization_shape():
    spec, _ = random_clean_spec(0)
    doc = spec_to_json(spec)
    assert doc["format"] == "dqip-protocol/1"
    assert doc["nodes"] == 2
    assert len(doc["turns"]) == 3
    gate_step = doc["turns"][1]["steps"][0]
    assert gate_step["kind"] == "gate"
    assert len(gate_step["matrix"]) == 4  # 2-qubit matrix, row-major
    assert all(len(entry) == 2 for row in gate_step["matrix"] for entry in row)


def test_split_outcomes_equal_selector_matmul_exactly():
    # The basis projection must give the very amplitudes of the 0/1 selector
    # matmul it replaced, on random unnormalized vectors and target orders.
    rng = substream(17, "test.split-outcomes")
    for _ in range(40):
        n = int(rng.integers(1, 9))
        qubits = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, min(4, n) + 1))]]
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        outcomes = [(o, qcore.project_outcome(vec, qubits, o)) for o in range(2 ** len(qubits))]
        assert [o for o, _ in outcomes] == list(range(2 ** len(qubits)))
        for outcome, got in outcomes:
            selector = qcore.basis_projector(len(qubits), outcome)
            assert got.flags.c_contiguous
            assert np.array_equal(got, qcore.apply_matrix_vec(vec, selector, qubits))
            assert np.array_equal(got, qcore.embed_operator(selector, qubits, n) @ vec)
