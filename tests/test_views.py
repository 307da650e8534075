"""Each actor's view against the transcript filter it replaced.

A branch keeps one view per actor and extends it as values are set.  The
rule the views must keep: an actor's view holds the transcript's variables
that the actor was shown when each was set, in the order they were set.  The
oracle records each ``_set_value``'s ``(name, visible_to)`` and rebuilds
every view by that filter, ``{k: v for k, v in values.items() if actor in
visible[k]}``.  It checks the branch's views after every event and on every
child a fork yields, each leaf's verification views, and the view handed to
every callback (prover gate and replies, step, measurement and check
resolvers, sends, broadcasts, accept predicates and projectors), in the
exact, sampled and record walks.  No view may change after the callback it
was handed to returns.
"""

import dataclasses

import numpy as np
import pytest
from test_measurement_groups import CASES as GROUP_CASES

from dqip import protocol
from dqip.corpus import coin_check_honest, two_check_spec
from dqip.dam import catalog_entry
from dqip.errors import ProtocolError
from dqip.network import PROVER, allocate_layout, path_graph
from dqip.protocol import (
    CoinFlip,
    Measurement,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    ReplySlot,
    VerificationPhase,
    VerifierTurn,
    _Executor,
    _Record,
    _Sample,
    collect_paths,
    execute_exact,
    execute_sampled,
    first_qubit_zero_accept,
)
from dqip.seeding import substream
from dqip.transforms import dam_to_dqip, pad_to_turns, parallel_repeat, perfect_completeness, seven_to_five

from specs import identity_for, random_clean_spec


class Oracle:
    """The filter rule, fed by the recorded ``_set_value`` calls."""

    def __init__(self, spec: ProtocolSpec):
        self.spec = spec
        self.actors = [PROVER, *range(spec.graph.node_count)]
        self.visible: dict[str, frozenset] = {}
        self.branch = None  # the branch whose event or verification is running
        self.handed: list[tuple[dict, list]] = []  # each callback's view and its items at the call
        self.calls: dict[str, int] = {}

    def record(self, name: str, visible_to) -> None:
        seen = self.visible.setdefault(name, frozenset(visible_to))
        assert seen == frozenset(visible_to), name

    def view(self, branch, actor: int) -> dict:
        return {k: v for k, v in branch.values.items() if actor in self.visible[k]}

    def check_branch(self, branch) -> None:
        assert sorted(branch.views) == sorted(self.actors)
        for actor in self.actors:
            assert list(branch.views[actor].items()) == list(self.view(branch, actor).items()), actor

    def verification_view(self, branch, u: int) -> dict:
        sent = {bc.node: bc.fn(self.view(branch, bc.node)) for bc in self.spec.verification.broadcasts}
        return self.view(branch, u) | {f"recv:{v}": sent[v] for v in self.spec.graph.neighbors(u) if v in sent}

    def handed_view(self, kind: str, view, expected: dict) -> None:
        assert list(view.items()) == list(expected.items()), kind
        self.handed.append((view, list(view.items())))
        self.calls[kind] = self.calls.get(kind, 0) + 1

    def check_unchanged(self) -> None:
        for view, items in self.handed:
            assert list(view.items()) == items


def _watched(oracle: Oracle, kind: str, fn, expected):
    """``fn`` with a check that its last argument, the view, is ``expected(oracle.branch)``."""

    def watched(*args):
        oracle.handed_view(kind, args[-1], expected(oracle.branch))
        return fn(*args)

    return watched


def _instrumented(oracle: Oracle, spec: ProtocolSpec, strategy) -> tuple[ProtocolSpec, ProverStrategy]:
    """``spec`` and ``strategy`` with every callback that reads a view watched."""

    def actor(a):
        return lambda branch: oracle.view(branch, a)

    def merged(nodes):
        return lambda branch: {k: v for u in nodes for k, v in oracle.view(branch, u).items()}

    def event(e):  # a step, or a measurement listed among the steps or after them
        if isinstance(e, Measurement):
            return dataclasses.replace(e, resolve_targets=_watched(oracle, "measure", e.resolve_targets, actor(e.node)))
        return dataclasses.replace(e, resolve=_watched(oracle, "step", e.resolve, actor(e.actor)))

    def local(part):
        fields = {
            "steps": tuple(event(e) for e in part.steps),
            "measurements": tuple(event(m) for m in part.measurements),
            "checks": tuple(dataclasses.replace(c, resolve=_watched(oracle, "check", c.resolve, merged(c.nodes)))
                            for c in part.checks),
        }
        return dataclasses.replace(part, **fields)

    def prover_callable(kind, value):
        return _watched(oracle, kind, value, actor(PROVER)) if callable(value) else value

    turns = []
    for turn in spec.turns:
        if isinstance(turn, ProverTurn):
            turns.append(dataclasses.replace(turn, acts_on=prover_callable("acts_on", turn.acts_on),
                                             delivers=prover_callable("delivers", turn.delivers)))
        else:
            turns.append(dataclasses.replace(local(turn), sends=prover_callable("sends", turn.sends)))
    phase = local(spec.verification)

    def verification(u):
        return lambda branch: oracle.verification_view(branch, u)

    phase = dataclasses.replace(
        phase,
        broadcasts=tuple(dataclasses.replace(b, fn=_watched(oracle, "broadcast", b.fn, actor(b.node)))
                         for b in phase.broadcasts),
        accepts=tuple(
            dataclasses.replace(
                a,
                predicate=a.predicate and _watched(oracle, "predicate", a.predicate, verification(a.node)),
                projector=a.projector and _watched(oracle, "projector", a.projector, verification(a.node)),
            )
            for a in phase.accepts
        ),
    )
    watched = ProverStrategy(
        strategy.name,
        _watched(oracle, "gate", strategy.gate_fn, actor(PROVER)),
        _watched(oracle, "reply", strategy.reply, actor(PROVER)),
    )
    return dataclasses.replace(spec, turns=tuple(turns), verification=phase), watched


def _watched_executor(oracle: Oracle, spec: ProtocolSpec, strategy, policy) -> _Executor:
    """An executor whose every event and every leaf's verification views are checked."""
    executor = _Executor(*_instrumented(oracle, spec, strategy), policy)

    def checked_children(children):
        for child in children:
            oracle.check_branch(child)
            yield child

    def event(function):
        def checked(self, branch, item, label):
            oracle.check_branch(branch)
            oracle.branch = branch
            children = function(self, branch, item, label)
            if children is None:
                oracle.check_branch(branch)
                return None
            return checked_children(children)

        return checked

    executor.schedule = [(event(function), item, label) for function, item, label in executor.schedule]
    views = executor._verification_views

    def verification_views(branch):
        oracle.check_branch(branch)
        oracle.branch = branch
        return views(branch)

    executor._verification_views = verification_views
    return executor


def _walk(oracle: Oracle, executor: _Executor) -> None:
    """One walk of ``executor``, every leaf checked and its accept callbacks run."""
    for branch, views in executor.leaves():
        oracle.check_branch(branch)
        assert sorted(views) == list(range(oracle.spec.graph.node_count))
        for u, view in views.items():
            assert list(view.items()) == list(oracle.verification_view(branch, u).items())
        if executor.policy.records:
            executor.accept_ops(branch, views)
        else:
            executor.acceptance(branch, views)


def _coin_guess():
    entry = catalog_entry("coin-guess")
    return dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)


def _seven_to_five():
    compiled = _coin_guess()
    padded = pad_to_turns(compiled.spec, compiled.honest, 7)
    reduced = seven_to_five(padded.spec, padded.honest)
    return [(reduced.spec, reduced.honest)]


def _parallel_repeat():
    compiled = _coin_guess()
    repeated = [
        parallel_repeat(compiled.spec, compiled.honest, 2, "AND"),
        parallel_repeat(*random_clean_spec(1), 2, "majority"),  # its copies' accepts are checks
    ]
    return [(r.spec, r.honest) for r in repeated]


def _perfect_completeness():
    spec = two_check_spec(np.array([1, 0]), np.array([1, 1]) / np.sqrt(2))  # its output checks span two nodes
    compiled = perfect_completeness(spec, coin_check_honest())
    return [(compiled.spec, compiled.honest)]


def _one_coin_spec(owner=None, audience=(0,)) -> ProtocolSpec:
    """The prover tells ``audience`` a bit y, a coin x is flipped for ``owner``, and V:0
    goes to the prover if y = 1 (a send that reads a view)."""
    graph = path_graph(2)
    layout = allocate_layout(graph, node_private=1)
    turns = (
        ProverTurn(acts_on=(), replies=(ReplySlot("y", 2, audience=audience),)),
        VerifierTurn(coins=(CoinFlip("x", 2, owner=owner),), sends=lambda view: ["V:0"] * view["y"]),
    )
    accepts = tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(2))
    return ProtocolSpec("one-coin", graph, layout, turns, VerificationPhase(accepts=accepts))


ONE = ProverStrategy("idle-yes", lambda turn, view: np.eye(1), lambda slot, view: 1)

CASES = {
    **GROUP_CASES,
    "seven to five": _seven_to_five,
    "parallel repeat": _parallel_repeat,
    "perfect completeness": _perfect_completeness,
    "one coin": lambda: [(_one_coin_spec(0, (0, 1)), ONE)],
}


def _check_views(case: str, policy: str, monkeypatch) -> dict[str, int]:
    """Walk every spec of ``case`` under ``policy`` with the oracle; the callbacks' calls by kind."""
    calls: dict[str, int] = {}
    for spec, strategy in CASES[case]():
        strategy = strategy or identity_for(spec)
        oracle = Oracle(spec)
        set_value = protocol._set_value

        def recording(branch, name, value, visible_to, oracle=oracle):
            visible_to = list(visible_to)
            oracle.record(name, visible_to)
            set_value(branch, name, value, visible_to)

        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_set_value", recording)
            if policy == "sampled":
                executor = _watched_executor(oracle, spec, strategy, _Sample(substream(3, "tests.views")))
                for _ in range(4):
                    _walk(oracle, executor)
            else:
                _walk(oracle, _watched_executor(oracle, spec, strategy, _Record() if policy == "record" else None))
        oracle.check_unchanged()
        for kind, count in oracle.calls.items():
            calls[kind] = calls.get(kind, 0) + count
    return calls


@pytest.mark.parametrize("policy", ["exact", "sampled", "record"])
@pytest.mark.parametrize("case", CASES)
def test_views_equal_the_transcript_filter_at_every_event_leaf_and_callback(case, policy, monkeypatch):
    calls = _check_views(case, policy, monkeypatch)
    assert calls.get("predicate", 0) + calls.get("projector", 0)
    assert calls.get("gate") or policy == "record"  # the record walk leaves gates symbolic


def test_the_oracle_sees_every_kind_of_callback(monkeypatch):
    # The bench ghz op: one turn-1 gate, then per coin pair (12) a turn-3 gate,
    # eight echoes and four resolvers of each kind, and per leaf (300) a turn-5
    # gate, four parity replies, four broadcasts and four predicates.
    ghz = _check_views("ghz n=4 N=2", "exact", monkeypatch)
    assert ghz == {
        "gate": 1 + 12 + 300, "reply": 12 + 12 * 8 + 300 * 4, "step": 12 * 4, "measure": 12 * 4,
        "broadcast": 300 * 4, "predicate": 300 * 4,
    }
    others = ("closeness 17 qubits", "parallel repeat", "one coin")
    kinds = set(ghz).union(*(_check_views(case, "exact", monkeypatch) for case in others))
    assert kinds == {"gate", "reply", "acts_on", "delivers", "step", "measure", "check", "sends", "broadcast",
                     "predicate", "projector"}


@pytest.mark.parametrize("owner,audience", [(2, (0,)), (None, (1, 5)), (None, (-2,))])
def test_a_coin_owner_or_reply_audience_that_names_no_actor_is_a_protocol_error(owner, audience):
    with pytest.raises(ProtocolError, match="neither the prover nor a node"):
        execute_exact(_one_coin_spec(owner, audience), ONE)
    assert execute_exact(_one_coin_spec(0, (0, 1)), ONE).acceptance_probability == pytest.approx(1.0)


@pytest.mark.parametrize("node", [2, PROVER, 7])
def test_an_accept_of_no_node_is_a_protocol_error_that_names_it_under_every_policy(node):
    spec = _one_coin_spec(0, (0, 1))
    accepts = spec.verification.accepts + (first_qubit_zero_accept(node, "V:0"),)
    spec = dataclasses.replace(spec, verification=VerificationPhase(accepts=accepts))
    runs = (execute_exact, lambda spec, strategy: execute_sampled(spec, strategy, 3, 1), collect_paths)
    for run in runs:
        with pytest.raises(ProtocolError, match=f"accept node {node} is not a node of the network"):
            run(spec, ONE)
