"""Measurement groups against the per-measurement fork they replaced.

A run of consecutive measurements by distinct nodes forks once over its joint
outcome.  ``per_measurement`` walks such a group as the executor did before:
one fork per member, each from the state its predecessor left, through the
policy's calls for a single measured part.  Both walks must give equal leaves
(transcripts, weights, states by ``==``) and equal recorded paths, and
their sampled walks must deal trials at the same leaf probabilities.
"""

import numpy as np
import pytest

from dqip import protocol, qcore
from dqip.dam import catalog_entry
from dqip.dqct import build_pdqct, make_instance
from dqip.ghz import GhzProtocolParams, build_pghz
from dqip.network import PROVER, allocate_layout, path_graph
from dqip.protocol import (
    Measurement,
    ProtocolSpec,
    ProverTurn,
    VerificationPhase,
    VerifierTurn,
    _Executor,
    _norm2,
    _Record,
    _recorded,
    _Sample,
    _view,
    conditional_step,
    first_qubit_zero_accept,
    spec_to_json,
    static_step,
)
from dqip.seeding import substream
from dqip.transforms import dam_to_dqip, halve_turns_private, pad_to_turns

from specs import identity_for, random_clean_spec


def per_measurement(executor, branch, group, label):
    """The children of a group, one fork per member in order."""

    def forks(branch, members):
        if not members:
            yield branch
            return
        m = members[0]
        regs = m.resolve_targets(_view(branch, m.node))
        if not regs:
            yield from forks(branch, members[1:])
            return
        executor._check_ownership(branch, (m.node,), regs, label)
        parts = [executor.layout.expand(regs)]
        kept = executor.policy.outcomes(branch.state, parts, branch.weight)
        states = (executor.policy.project(branch.state, parts, outcome) for outcome, _ in kept)
        visible = [m.node, PROVER] if m.to_prover else [m.node]
        values = [[(m.name, o, visible)] for o, _ in kept]
        for child in executor._fork(branch, values, states, [weight for _, weight in kept]):
            yield from forks(child, members[1:])

    return forks(branch, list(group))


def same_state(a, b):
    """Equal slices: the same free qubits, fixed bits and amplitudes."""
    return (a.free, a.bits, a.n) == (b.free, b.bits, b.n) and np.array_equal(a.vec, b.vec)


def oracle(executor):
    executor.schedule = [
        (per_measurement if function is _Executor._measure else function, item, label)
        for function, item, label in executor.schedule
    ]
    return executor


def twice_measured_spec():
    """Node 0 measures a, node 1 b, then node 0 measures c only if a = 1 and node 1
    measures d only if b = 0: two groups, (a, b) and (c, d), in one turn."""
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=1, node_private=2, node_message=1)
    rng = substream(11, "tests.twice_measured_spec")
    acts = ("P", "M:0", "M:1")
    steps = tuple(static_step(u, qcore.haar_matrix(2, rng, "test gate"), [f"V:{u}"]) for u in range(2))
    measurements = (
        Measurement("a", 0, lambda view: ["V:0[0]"], to_prover=True),
        Measurement("b", 1, lambda view: ["V:1[0]"]),
        Measurement("c", 0, lambda view: ["V:0[1]", "M:0"] if view["a"] == 1 else []),
        Measurement("d", 1, lambda view: ["V:1[1]"] if view["b"] == 0 else [], to_prover=True),
    )
    turns = (
        ProverTurn(acts_on=acts, delivers=(("M:0", 0), ("M:1", 1))),
        VerifierTurn(steps=steps, measurements=measurements, sends=("M:0", "M:1")),
        ProverTurn(acts_on=acts, delivers=(("M:0", 0), ("M:1", 1))),
    )
    spec = ProtocolSpec(
        name="twice-measured",
        graph=graph,
        layout=layout,
        turns=turns,
        verification=VerificationPhase(accepts=tuple(first_qubit_zero_accept(u, f"M:{u}") for u in range(2))),
    )
    gates = {t: qcore.haar_matrix(3, rng, "test gate") for t in (1, 3)}
    return spec, protocol.ProverStrategy("haar", lambda turn, view: gates[turn])


def _ghz(nodes, copies):
    compiled = build_pghz(path_graph(nodes), GhzProtocolParams(copies=copies, epsilon=0.25, delta=0.5, seed=1))
    return compiled.spec, compiled.honest


def _closeness(qubits, seed=1, prover_qubits=0):
    instance = make_instance(path_graph(len(qubits)), qubits, "random", seed=seed)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=prover_qubits))
    return compiled.spec, compiled.honest


def _private_halving(which):
    entry = catalog_entry("coin-parity-echo-private")
    instance, value = (entry.yes_instance, entry.yes) if which == "yes" else (entry.no_instance, entry.no)
    compiled = dam_to_dqip(entry.protocol, instance, value)
    padded = pad_to_turns(compiled.spec, compiled.honest, 5)
    halved = halve_turns_private(padded.spec, padded.honest, float(entry.completeness), float(entry.soundness))
    return [(compiled.spec, compiled.honest), (halved.spec, halved.honest)]


CASES = {
    **{f"ghz n={n} N={copies}": (lambda n=n, copies=copies: [_ghz(n, copies)]) for n in (2, 3, 4) for copies in (1, 2)},
    "closeness 17 qubits": lambda: [_closeness((3, 3))],
    "random clean": lambda: [random_clean_spec(seed, coin=coin) for seed in range(4) for coin in (False, True)],
    "private halving yes": lambda: _private_halving("yes"),
    "private halving no": lambda: _private_halving("no"),
    "twice measured": lambda: [twice_measured_spec()],
    "measured between steps": lambda: [measured_between_spec()],
}


@pytest.mark.parametrize("case", CASES)
def test_grouped_walk_keeps_the_leaves_of_one_fork_per_measurement(case):
    for spec, strategy in CASES[case]():
        strategy = strategy or identity_for(spec)
        grouped, reference = _Executor(spec, strategy).leaves(), oracle(_Executor(spec, strategy)).leaves()
        for (got, got_views), (want, want_views) in zip(grouped, reference, strict=True):
            assert got.values == want.values and got.owner == want.owner
            assert {a: list(view.items()) for a, view in got.views.items()} == {
                a: list(view.items()) for a, view in want.views.items()
            }
            assert got.weight == want.weight and got_views == want_views
            assert same_state(got.state, want.state), (spec.name, got.values)


@pytest.mark.parametrize("case", ["ghz n=3 N=2", "closeness 17 qubits", "private halving yes", "twice measured"])
def test_grouped_record_walk_records_one_selector_per_member(case):
    for spec, strategy in CASES[case]():
        strategy = strategy or identity_for(spec)
        policy = _Record()  # one op cache, so both walks record the same op object per operator
        grouped = _Executor(spec, strategy, policy).leaves()
        reference = oracle(_Executor(spec, strategy, policy)).leaves()
        for (got, _), (want, _) in zip(grouped, reference, strict=True):
            assert got.values == want.values and got.weight == want.weight
            ops, want_ops = _recorded(got.state), _recorded(want.state)
            assert len(ops) == len(want_ops)
            assert all(a is b if isinstance(a, qcore.StructuredOp) else a == b for a, b in zip(ops, want_ops))


@pytest.mark.parametrize("case", ["ghz n=3 N=2", "closeness 17 qubits", "twice measured"])
def test_grouped_sampled_walk_deals_as_one_fork_per_measurement(case):
    # The group deals its trials by one multinomial draw over the joint
    # outcome, the oracle by one per member; both must reach every leaf at
    # its exact probability, within 5 sigma, and lose no trial.
    trials = 20_000
    for spec, strategy in CASES[case]():
        exact: dict = {}
        for branch, _ in _Executor(spec, strategy).leaves():
            key = tuple(sorted(branch.values.items()))
            exact[key] = exact.get(key, 0.0) + branch.weight * _norm2(branch.state.vec)
        for executor in (
            _Executor(spec, strategy, _Sample(substream(5, "tests.grouped-draws"))),
            oracle(_Executor(spec, strategy, _Sample(substream(6, "tests.grouped-draws")))),
        ):
            counts = {tuple(sorted(branch.values.items())): branch.weight for branch, _ in executor.leaves(trials)}
            assert sum(counts.values()) == trials, spec.name
            for key in set(exact) | set(counts):
                p = exact.get(key, 0.0)
                assert abs(counts.get(key, 0) - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)), (key, p)


def test_a_nodes_second_measurement_in_a_turn_forks_again_and_reads_the_first():
    spec, strategy = twice_measured_spec()
    executor = _Executor(spec, strategy)
    groups = [[m.name for m in item] for function, item, _ in executor.schedule if function is _Executor._measure]
    assert groups == [["a", "b"], ["c", "d"]]
    seen = set()
    for branch, views in executor.leaves():
        values = branch.values
        assert ("c" in values) == (values["a"] == 1) and ("d" in values) == (values["b"] == 0)
        assert "b" not in views[0] and "a" not in views[1]
        assert {actor for actor, view in branch.views.items() if "a" in view} == {0, PROVER}
        assert {actor for actor, view in branch.views.items() if "b" in view} == {1}
        seen.add((values["a"], values["b"]))
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def measured_between_spec():
    """Both nodes put V[0] in superposition and measure it (a, b) among their steps; node 0 then
    flips V:0[1] where a = 1 and measures it (c, in ``steps``), node 1 measures V:1[1] (d, in
    ``measurements``)."""
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=1, node_private=2, node_message=1)
    steps = (
        static_step(0, qcore.H, ["V:0[0]"]),
        static_step(1, qcore.H, ["V:1[0]"]),
        Measurement("a", 0, lambda view: ["V:0[0]"]),
        Measurement("b", 1, lambda view: ["V:1[0]"], to_prover=True),
        conditional_step(0, ["a"], {(0,): None, (1,): (qcore.X, ["V:0[1]"])}),
        Measurement("c", 0, lambda view: ["V:0[1]"]),
    )
    turns = (
        ProverTurn(acts_on=("P", "M:0", "M:1"), delivers=(("M:0", 0), ("M:1", 1))),
        VerifierTurn(steps=steps, measurements=(Measurement("d", 1, lambda view: ["V:1[1]"]),)),
    )
    spec = ProtocolSpec(
        name="measured-between",
        graph=graph,
        layout=layout,
        turns=turns,
        verification=VerificationPhase(accepts=tuple(first_qubit_zero_accept(u, f"M:{u}") for u in range(2))),
    )
    return spec, identity_for(spec)


def test_a_step_listed_after_a_measurement_reads_its_outcome():
    # Steps and measurements run in the order listed, `measurements` after
    # every step; a run of measurements by distinct nodes forks once, and a
    # step ends the run, so c (in steps) and d (in measurements) group.
    spec, strategy = measured_between_spec()
    executor = _Executor(spec, strategy)
    kinds = [
        [m.name for m in item] if function is _Executor._measure else function.__name__
        for function, item, _ in executor.schedule
    ]
    assert kinds[1:] == ["_apply_step", "_apply_step", ["a", "b"], "_apply_step", ["c", "d"], "_send"]
    seen = set()
    for branch, _ in executor.leaves():
        values = branch.values
        assert values["c"] == values["a"] and values["d"] == 0, values
        assert "a" in branch.views[0] and "b" in branch.views[PROVER] and "a" not in branch.views[PROVER]
        assert abs(branch.weight * protocol._norm2(branch.state.vec) - 0.25) <= 1e-12
        seen.add((values["a"], values["b"]))
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}
    doc = spec_to_json(spec)["turns"][1]
    assert doc["steps"][2:4] == [{"name": "a", "node": 0}, {"name": "b", "node": 1}]
    assert doc["measurements"] == [{"name": "d", "node": 1}]


def test_bench_ghz_forks_once_per_coin_pair(monkeypatch):
    # The benchmark's ghz op: n=4, N=2.  Each of its 12 coin pairs makes one
    # weight pass over the four nodes' joint outcome and one outcome slice per
    # leaf; one fork per node made 468 weight passes and 756 slices.
    spec, honest = _ghz(4, 2)
    walks = ((_Executor, 12, 300), (lambda *args: oracle(_Executor(*args)), 468, 756))
    for walk, passes, projections in walks:
        calls = {"weights": 0, "projections": 0}

        def counted(function, key):
            def wrapper(*args):
                calls[key] += 1
                return function(*args)

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(protocol, "outcome_weights", counted(qcore.outcome_weights, "weights"))
            patch.setattr(protocol, "outcome_slice", counted(qcore.outcome_slice, "projections"))
            assert sum(1 for _ in walk(spec, honest).leaves()) == 300
        assert calls == {"weights": passes, "projections": projections}
