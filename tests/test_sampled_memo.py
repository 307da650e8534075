"""The memoised sampled run against one walk per trial.

``execute_sampled`` walks a classical history only the first time a trial
reaches it, and redraws later trials from its memo.  ``reference_run`` keeps
the run it replaced: a fresh walk and acceptance read per trial, with the
draws made in the walk.  Both must give equal reports and leave the random
generator in the same state, and the memoised run must walk once per
distinct history.
"""

import numpy as np
import pytest
from test_measurement_groups import CASES as GROUP_CASES

from dqip import protocol
from dqip.dqct import build_pdqct, make_instance
from dqip.ghz import GhzProtocolParams, all_zero_cheat, build_pghz
from dqip.network import allocate_layout, path_graph
from dqip.qcore import H, acceptance_rotation
from dqip.protocol import (
    CoinFlip,
    Measurement,
    ProjectiveCheck,
    ProtocolSpec,
    RunReport,
    VerificationPhase,
    VerifierTurn,
    _Exact,
    _Executor,
    _joint,
    _norm2,
    _Sample,
    conditional_step,
    execute_exact,
    execute_sampled,
    first_qubit_zero_accept,
    static_step,
    wilson_interval,
)
from dqip.seeding import substream

from specs import fair_coin_spec, identity_for, random_clean_spec


class _PerTrial(_Exact):
    """The sample policy as it was before the memo: every walk draws at every fork."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def coin(self, n):
        return [int(self.rng.integers(n))]

    def outcomes(self, state, parts):
        table, outcome = np.clip(state.weights(_joint(parts)), 0.0, None), 0
        for qubits in parts:
            table = table.reshape(2 ** len(qubits), -1)
            probs = table.sum(axis=1)
            digit = int(self.rng.choice(len(probs), p=probs / probs.sum()))
            table, outcome = table[digit], outcome << len(qubits) | digit
        return [outcome]

    def check(self, state, projector, qubits):
        hit, miss = self.split(state, projector, qubits)
        p_hit, p_miss = _norm2(hit.vec), _norm2(miss.vec)
        i = 0 if self.rng.random() < p_hit / (p_hit + p_miss) else 1
        return [(i, (hit, miss)[i])]


def reference_run(spec, prover, trials, seed):
    """One walk per trial; the report, the generator after the run and the distinct histories."""
    rng = substream(seed, "protocol.execute_sampled", spec.name)
    executor = _Executor(spec, prover, _PerTrial(rng))
    successes, node_hits, histories = 0, {u: 0 for u in range(spec.graph.node_count)}, set()
    for _ in range(trials):
        ((branch, views),) = executor.leaves()
        histories.add(tuple(branch.values.items()))
        total, p_all, per_node, _ = executor.acceptance(branch, views)
        successes += rng.random() < min(max(p_all / total, 0.0), 1.0)
        for u, p_u in per_node.items():
            node_hits[u] += rng.random() < min(max(p_u / total, 0.0), 1.0)
    report = RunReport(
        acceptance_probability=successes / trials,
        mode="sampled",
        per_node_acceptance={u: node_hits[u] / trials for u in range(spec.graph.node_count)},
        seed=seed,
        trials=trials,
        wilson_interval=wilson_interval(successes, trials),
        metadata={"protocol": spec.name, "turns": spec.num_turns, "strategy": prover.name},
    )
    return report, rng, histories


def memoised_run(spec, prover, trials, seed, monkeypatch, tables=None):
    """``execute_sampled``, its memo given ``tables`` bytes of room if set; its report, its
    generator after the run, its policy and its walks."""
    policies, walks = [], []
    leaves = _Executor.leaves

    def counted(self, *args):
        walks.append(1)
        return leaves(self, *args)

    def sample(rng, room):
        policies.append(_Sample(rng, room if tables is None else tables))
        return policies[-1]

    with monkeypatch.context() as patch:
        patch.setattr(_Executor, "leaves", counted)
        patch.setattr(protocol, "_Sample", sample)
        report = execute_sampled(spec, prover, trials, seed)
    (policy,) = policies
    return report, policy.rng, policy, len(walks)


def _ghz(nodes, copies, strategy):
    params = GhzProtocolParams(copies=copies, epsilon=0.25, delta=0.5, seed=1)
    compiled = build_pghz(path_graph(nodes), params)
    return compiled.spec, compiled.honest if strategy == "honest" else all_zero_cheat(compiled.spec, params)


def _closeness(kind):
    instance = make_instance(path_graph(2), (3, 3), kind, seed=1)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=0))
    assert compiled.spec.layout.total_qubits == 17
    return compiled.spec, compiled.honest


CASES = {
    **{
        f"ghz n={n} N={copies} {strategy}": (lambda n=n, c=copies, s=strategy: [(*_ghz(n, c, s), 24, 3)])
        for n in (2, 3, 4)
        for copies in (1, 2)
        for strategy in ("honest", "all-zero")
    },
    **{f"closeness 17 qubits {kind}": (lambda k=kind: [(*_closeness(k), 12, 1000)]) for kind in
       ("equal", "orthogonal", "random")},
    "random clean with a coin": lambda: [(*random_clean_spec(seed, coin=True), 40, seed) for seed in range(3)],
    "private halving": lambda: [(spec, strategy, 60, 2) for spec, strategy in GROUP_CASES["private halving no"]()],
    "fair coin": lambda: [(fair_coin_spec(), None, 50, 4)],
    "one trial": lambda: [(*_closeness("random"), 1, 7), (*_ghz(3, 1, "honest"), 1, 7)],
}


@pytest.mark.parametrize("case", CASES)
def test_memoised_run_equals_one_walk_per_trial_and_walks_once_per_history(case, monkeypatch):
    for spec, strategy, trials, seed in CASES[case]():
        strategy = strategy or identity_for(spec)
        want, want_rng, histories = reference_run(spec, strategy, trials, seed)
        for room in (None, 2**62):  # the run's own room, then room for every table
            got, got_rng, policy, walks = memoised_run(spec, strategy, trials, seed, monkeypatch, room)
            assert got == want, spec.name
            assert got_rng.bit_generator.state == want_rng.bit_generator.state  # the same draws, in order
            assert all(not isinstance(x, np.ndarray) or x.ndim == 1 for node in policy.memo.values() for x in node)
        assert walks == len(histories), (spec.name, walks, len(histories))
        assert sum(1 for node in policy.memo.values() if node[0] == "leaf") == len(histories)


def test_a_run_holds_tables_of_at_most_one_state_and_past_that_walks_as_before(monkeypatch):
    spec, strategy = _closeness("random")
    state_bytes = 16 * 2**spec.layout.total_qubits
    want, want_rng, histories = reference_run(spec, strategy, 24, 1001)
    _, _, policy, _ = memoised_run(spec, strategy, 24, 1001, monkeypatch)
    tables = sum(node[1].nbytes for node in policy.memo.values() if node[0] == "outcome")
    assert 0 < tables <= state_bytes and policy.room == state_bytes - tables
    # With no room for a weight table, every trial that reaches a measurement walks.
    got, got_rng, policy, walks = memoised_run(spec, strategy, 24, 1001, monkeypatch, tables=0)
    assert got == want and got_rng.bit_generator.state == want_rng.bit_generator.state
    assert all(node[0] != "outcome" for node in policy.memo.values())
    assert walks == 24 > len(histories)


def _annihilating_spec(position: str, left: float) -> ProtocolSpec:
    """A shared coin, then node 0 scales the whole state by ``left`` (diag(left, 1) on V:0,
    which starts at |0>) before a check, a measurement or the leaf."""
    graph = path_graph(2)
    layout = allocate_layout(graph, node_private=1)
    zero = np.diag([1.0, 0.0]).astype(complex)
    events = {
        "check": {"checks": (ProjectiveCheck("c", (1,), lambda view: (zero, ["V:1"])),)},
        "measurement": {"measurements": (Measurement("m", 1, lambda view: ["V:1"]),)},
        "leaf": {},
    }[position]
    turn = VerifierTurn(
        coins=(CoinFlip("r", 2),), steps=(static_step(0, np.diag([left, 1.0]), ["V:0"]),), **events
    )
    accepts = tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(2))
    return ProtocolSpec(f"annihilate-before-{position}", graph, layout, (turn,), VerificationPhase(accepts=accepts))


@pytest.mark.parametrize("left", [0.0, 1e-13])  # a squared norm of 0 or 1e-26, at most PRUNE_TOL
@pytest.mark.parametrize("position", ["check", "measurement", "leaf"])
def test_a_trial_whose_draw_reads_no_mass_rejects_as_the_exact_run_reads_zero(position, left, monkeypatch):
    spec = _annihilating_spec(position, left)
    strategy = identity_for(spec)
    exact = execute_exact(spec, strategy)  # prunes the children of a fork; a leaf reads at most 1e-26
    assert exact.acceptance_probability <= 1e-24 and max(exact.per_node_acceptance.values()) <= 1e-24
    report, _, policy, walks = memoised_run(spec, strategy, 8, 1, monkeypatch)
    assert report.acceptance_probability == 0.0 and report.per_node_acceptance == {0: 0.0, 1: 0.0}
    assert walks == 2  # one per coin value; a history that reads no mass is stored as a zero leaf
    assert sorted(key for key, node in policy.memo.items() if node[0] == "leaf") == [(0,), (1,)]
    assert all(node[1] == [0.0, 0.0, 0.0] for node in policy.memo.values() if node[0] == "leaf")


def check_after_coin_spec() -> ProtocolSpec:
    """Node 0 flips r and turns V:0[0] by an r-dependent rotation, checks it against |0>, and
    in the verification measures V:0[1] after a Hadamard: a check between a coin and a fork,
    so a trial can replay the check and then draw an outcome no earlier trial reached."""
    graph = path_graph(2)
    layout = allocate_layout(graph, node_private=2)
    zero = np.diag([1.0, 0.0]).astype(complex)
    turns = {(r,): (acceptance_rotation(c), ["V:0[0]"]) for r, c in ((0, 0.3), (1, 0.8))}
    turn = VerifierTurn(
        coins=(CoinFlip("r", 2, owner=0),),
        steps=(conditional_step(0, ["r"], turns),),
        checks=(ProjectiveCheck("c", (0,), lambda view: (zero, ["V:0[0]"])),),
    )
    verification = VerificationPhase(
        steps=(static_step(0, H, ["V:0[1]"]),),
        measurements=(Measurement("m", 0, lambda view: ["V:0[1]"]),),
        accepts=tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(2)),
    )
    return ProtocolSpec("check-after-coin", graph, layout, (turn,), verification)


def test_a_replayed_check_builds_only_the_child_it_takes(monkeypatch):
    # A trial that replays its choices up to a fork no earlier trial drew
    # walks them again; at the check it builds only the child it took.  A
    # check drawn afresh builds both, to read their norms, once per memo entry.
    spec = check_after_coin_spec()
    strategy = identity_for(spec)
    want, want_rng, histories = reference_run(spec, strategy, 40, 5)
    built = []
    split = _Exact.split

    def counted(self, state, projector, qubits, kept=(0, 1)):
        children = split(self, state, projector, qubits, kept)
        built.append(len(children))
        return children

    monkeypatch.setattr(_Exact, "split", counted)
    got, got_rng, policy, walks = memoised_run(spec, strategy, 40, 5, monkeypatch)
    assert got == want and got_rng.bit_generator.state == want_rng.bit_generator.state
    assert walks == len(histories)
    drawn = sum(node[0] == "check" for node in policy.memo.values())
    assert built.count(2) == drawn and built.count(1) == walks - drawn > 0 and len(built) == walks
