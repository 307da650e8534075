"""The sampled run as one walk that deals its trials down the branch tree.

``execute_sampled`` starts the walk with every trial at the root, and each
fork deals its branch's trials over the children by one multinomial draw, so
a history is walked once however many trials reach it.  The leaves' trial
counts must follow the exact leaf probabilities, the trials a fork that
reads no mass deals to no child must make up the rest, and a run's report
must read the exact run's rates within its sampling error.
"""

import numpy as np
import pytest
from test_measurement_groups import CASES as GROUP_CASES
from test_measurement_groups import _closeness, _ghz
from test_protocol import check_after_measurement_spec, measure_and_check_spec

from dqip import protocol
from dqip.dqct import build_pdqct, make_instance
from dqip.ghz import GhzProtocolParams, all_zero_cheat, build_pghz
from dqip.network import allocate_layout, path_graph
from dqip.protocol import (
    CoinFlip,
    Measurement,
    ProjectiveCheck,
    ProtocolSpec,
    ProverStrategy,
    VerificationPhase,
    VerifierTurn,
    _Executor,
    _norm2,
    _Sample,
    conditional_step,
    execute_exact,
    execute_sampled,
    first_qubit_zero_accept,
)
from dqip.seeding import substream

from specs import fair_coin_spec, identity_for, random_clean_spec


class _Counting(_Sample):
    """The sample policy, counting the trials its forks deal to no child."""

    def __init__(self, rng):
        super().__init__(rng)
        self.lost = 0

    def _keep(self, masses, weight):
        kept = super()._keep(masses, weight)
        self.lost += weight - sum(count for _, count in kept)
        return kept


def _sampled_leaves(spec, strategy, trials, seed):
    """The trials each leaf transcript holds in one sampled walk, and the walk's policy."""
    policy = _Counting(substream(seed, "tests.sampled-walk"))
    counts: dict = {}
    for branch, _ in _Executor(spec, strategy, policy).leaves(trials):
        key = tuple(sorted(branch.values.items()))
        assert key not in counts  # each history is walked once
        counts[key] = branch.weight
    return counts, policy


CASES = {
    "random clean with a coin": lambda: random_clean_spec(5, coin=True),
    "check after measurement": lambda: (check_after_measurement_spec(), None),
    **{f"measure and check {seed}": (lambda seed=seed: measure_and_check_spec(seed)) for seed in (0, 1)},
    "ghz n=3 N=2": lambda: _ghz(3, 2),
}


@pytest.mark.parametrize("case", CASES)
def test_one_sampled_walk_deals_its_trials_at_the_exact_leaf_probabilities(case):
    # A coin (ghz's test string and target), a measurement group and a
    # check each deal trials; every leaf's count is within 5 sigma of the
    # trials times its exact probability, and no trial is lost.
    spec, strategy = CASES[case]()
    strategy = strategy or identity_for(spec)
    exact: dict = {}
    for branch, _ in _Executor(spec, strategy).leaves():
        key = tuple(sorted(branch.values.items()))
        exact[key] = exact.get(key, 0.0) + branch.weight * _norm2(branch.state.vec)
    assert abs(sum(exact.values()) - 1.0) <= 1e-12
    trials = 20_000
    counts, policy = _sampled_leaves(spec, strategy, trials, 1)
    assert len(counts) >= 2 and sum(counts.values()) == trials and policy.lost == 0
    for key in set(exact) | set(counts):
        p = exact.get(key, 0.0)
        assert abs(counts.get(key, 0) - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)), (key, counts.get(key), p)


def test_a_sampled_run_walks_the_deterministic_prefix_once():
    # The 17-qubit closeness test: its 12 trials share the prover's turn-1
    # star delivery, which the walk applies once, before the first fork.
    (spec, honest), turns = _closeness((3, 3)), []

    def gate(turn_index, view):
        turns.append(turn_index)
        return honest.gate_fn(turn_index, view)

    report = execute_sampled(spec, ProverStrategy("counted", gate, honest.reply_fn), trials=12, seed=1)
    assert report.trials == 12 and turns.count(1) == 1


def _ghz_against(nodes, copies, strategy):
    params = GhzProtocolParams(copies=copies, epsilon=0.25, delta=0.5, seed=1)
    compiled = build_pghz(path_graph(nodes), params)
    return compiled.spec, compiled.honest if strategy == "honest" else all_zero_cheat(compiled.spec, params)


def _closeness_of(kind):
    instance = make_instance(path_graph(2), (3, 3), kind, seed=1)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=0))
    assert compiled.spec.layout.total_qubits == 17
    return compiled.spec, compiled.honest


RUNS = {
    **{
        f"ghz n={n} N={copies} {strategy}": (lambda n=n, c=copies, s=strategy: [(*_ghz_against(n, c, s), 24, 3)])
        for n in (2, 3, 4)
        for copies in (1, 2)
        for strategy in ("honest", "all-zero")
    },
    **{f"closeness 17 qubits {kind}": (lambda k=kind: [(*_closeness_of(k), 12, 1000)]) for kind in
       ("equal", "orthogonal", "random")},
    "random clean with a coin": lambda: [(*random_clean_spec(seed, coin=True), 40, seed) for seed in range(3)],
    "private halving": lambda: [(spec, strategy, 60, 2) for spec, strategy in GROUP_CASES["private halving no"]()],
    "fair coin": lambda: [(fair_coin_spec(), None, 50, 4)],
    "one trial": lambda: [(*_closeness_of("random"), 1, 7), (*_ghz_against(3, 1, "honest"), 1, 7)],
}


@pytest.mark.parametrize("case", RUNS)
def test_a_sampled_run_walks_each_history_once_and_reads_the_exact_rates(case, monkeypatch):
    # Each leaf the run reads is a history no other leaf shares, and the
    # leaves' trials and those lost at forks make up the run's trials.  The
    # report is a function of the seed, and its joint and per-node rates are
    # within 5 sigma of the exact run's; a certain rate is matched exactly.
    for spec, strategy, trials, seed in RUNS[case]():
        strategy = strategy or identity_for(spec)
        policies, leaves = [], []
        acceptance = _Executor.acceptance

        def counting(rng):
            policies.append(_Counting(rng))
            return policies[-1]

        def read(self, branch, views, project=False):
            leaves.append((tuple(sorted(branch.values.items())), branch.weight))
            return acceptance(self, branch, views, project)

        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_Sample", counting)
            patch.setattr(_Executor, "acceptance", read)
            report = execute_sampled(spec, strategy, trials, seed)
        (policy,) = policies
        assert len({key for key, _ in leaves}) == len(leaves), spec.name
        assert sum(k for _, k in leaves) + policy.lost == trials and report.trials == trials
        assert execute_sampled(spec, strategy, trials, seed) == report
        exact = execute_exact(spec, strategy)
        rates = [(report.acceptance_probability, exact.acceptance_probability)]
        rates += [(report.per_node_acceptance[u], p) for u, p in exact.per_node_acceptance.items()]
        for got, p in rates:
            if min(p, 1 - p) <= 1e-12:
                assert got == round(p), (spec.name, got, p)
            else:
                assert abs(got - p) <= 5 * np.sqrt(p * (1 - p) / trials), (spec.name, got, p)


def _annihilating_spec(position: str, left: float) -> ProtocolSpec:
    """A shared coin r, then at r = 0 node 0 scales the whole state by ``left`` (diag(left, 1)
    on V:0, which starts at |0>) before a check, a measurement or the leaf."""
    graph = path_graph(2)
    layout = allocate_layout(graph, node_private=1)
    zero = np.diag([1.0, 0.0]).astype(complex)
    events = {
        "check": {"checks": (ProjectiveCheck("c", (1,), lambda view: (zero, ["V:1"])),)},
        "measurement": {"measurements": (Measurement("m", 1, lambda view: ["V:1"]),)},
        "leaf": {},
    }[position]
    scale = conditional_step(0, ["r"], {(0,): (np.diag([left, 1.0]), ["V:0"]), (1,): None})
    turn = VerifierTurn(coins=(CoinFlip("r", 2),), steps=(scale,), **events)
    accepts = tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(2))
    return ProtocolSpec(f"annihilate-before-{position}", graph, layout, (turn,), VerificationPhase(accepts=accepts))


@pytest.mark.parametrize("left", [0.0, 1e-13])  # a squared norm of 0 or 1e-26, at most PRUNE_TOL
@pytest.mark.parametrize("position", ["check", "measurement", "leaf"])
def test_trials_dealt_to_no_mass_reject_as_the_exact_run_reads_zero(position, left, monkeypatch):
    # The branch at r = 0 holds no mass: its trials are lost at the fork
    # that reads it, or reach a leaf that reads none, and reject.  The
    # branch at r = 1 accepts with certainty, so it holds every accept.
    spec = _annihilating_spec(position, left)
    strategy = identity_for(spec)
    exact = execute_exact(spec, strategy)  # prunes the children of a fork; a leaf reads at most 1e-26
    assert abs(exact.acceptance_probability - 0.5) <= 1e-24
    policies, leaves = [], []
    acceptance = _Executor.acceptance

    def counting(rng):
        policies.append(_Counting(rng))
        return policies[-1]

    def read(self, branch, views, project=False):
        leaves.append((branch.values["r"], branch.weight))
        return acceptance(self, branch, views, project)

    monkeypatch.setattr(protocol, "_Sample", counting)
    monkeypatch.setattr(_Executor, "acceptance", read)
    trials = 40
    report = execute_sampled(spec, strategy, trials, 2)
    (policy,) = policies
    dealt = {r: sum(k for value, k in leaves if value == r) for r in (0, 1)}
    assert sum(dealt.values()) + policy.lost == trials and 0 < dealt[1] < trials
    assert dealt[0] == (trials - dealt[1] if position == "leaf" else 0)
    assert report.acceptance_probability == dealt[1] / trials
    assert report.per_node_acceptance == {0: dealt[1] / trials, 1: dealt[1] / trials}
