"""Small protocol specs and strategies that the tests share.

``random_clean_spec`` draws from the substream ``"corpus.random_clean_spec"``
and names its specs ``random-clean-<seed>``, so the pinned outputs in
``tests/golden/transform-specs.json`` stay valid.
"""

from __future__ import annotations

import hashlib

import numpy as np

from dqip import qcore
from dqip.dam import DamProtocol
from dqip.network import allocate_layout, build_network, path_graph
from dqip.protocol import (
    CoinFlip,
    NodeAccept,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    VerificationPhase,
    VerifierTurn,
    conditional_step,
    first_qubit_zero_accept,
    static_step,
)
from dqip.seeding import substream


def identity_for(spec: ProtocolSpec, name: str = "identity") -> ProverStrategy:
    """Prover that applies the identity on whatever it holds at each turn."""

    def gate(turn_index, view):
        turn = spec.turns[turn_index - 1]
        regs = turn.acts_on(view) if callable(turn.acts_on) else turn.acts_on
        return np.eye(2 ** len(spec.layout.expand(regs)), dtype=np.complex128)

    return ProverStrategy(name, gate)


def always_accept_spec(n_nodes: int = 1) -> ProtocolSpec:
    """No prover turns, verifier does nothing; every V register stays |0>."""
    graph = path_graph(n_nodes) if n_nodes > 1 else build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=0, node_private=1, node_message=0)
    accepts = tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(n_nodes))
    return ProtocolSpec(
        name="always-accept",
        graph=graph,
        layout=layout,
        turns=(),
        verification=VerificationPhase(accepts=accepts),
    )


def flip_reject_spec() -> ProtocolSpec:
    """Single verifier turn applies X to one node's accept qubit: acceptance 0."""
    graph = path_graph(2)
    layout = allocate_layout(graph, prover_qubits=0, node_private=1, node_message=0)
    turn = VerifierTurn(steps=(static_step(0, qcore.X, ["V:0"]),))
    accepts = tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(2))
    return ProtocolSpec(
        name="flip-reject",
        graph=graph,
        layout=layout,
        turns=(turn,),
        verification=VerificationPhase(accepts=accepts),
    )


def fair_coin_spec() -> ProtocolSpec:
    """Accept iff a single shared coin lands 0: acceptance exactly 1/2."""
    graph = build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=0, node_private=1, node_message=0)
    turn = VerifierTurn(coins=(CoinFlip("r", 2, owner=None),))
    accept = NodeAccept(
        node=0,
        projector=None,
        predicate=lambda view: view["r"] == 0,
        describe={"kind": "coin-is-zero", "coin": "r"},
    )
    return ProtocolSpec(
        name="fair-coin",
        graph=graph,
        layout=layout,
        turns=(turn,),
        verification=VerificationPhase(accepts=(accept,)),
    )


def prover_blind_spec() -> tuple[ProtocolSpec, ProverStrategy]:
    """The prover's turns act on registers the verifier never reads."""
    graph = build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=0)
    turns = (ProverTurn(acts_on=("P",), delivers=()),)
    spec = ProtocolSpec(
        name="prover-blind",
        graph=graph,
        layout=layout,
        turns=turns,
        verification=VerificationPhase(accepts=(first_qubit_zero_accept(0, "V:0"),)),
    )
    honest = ProverStrategy("idle", lambda turn, view: np.eye(2, dtype=np.complex128))
    return spec, honest


def random_clean_spec(
    seed: int, coin: bool = False, turns: int = 3, nodes: int = 2
) -> tuple[ProtocolSpec, ProverStrategy]:
    """Random protocol on a path of ``nodes`` nodes with Haar gates in every turn.

    Odd turns are prover turns acting on (P, every M); even turns apply one
    Haar gate per node on its (V, M).  ``coin`` adds a shared coin at turn 2
    that picks each node's verification gate.  The honest prover applies
    Haar-random unitaries as well; used by the statistical and invariance
    property tests and as the oracle for the turn reductions.
    """
    rng = substream(seed, "corpus.random_clean_spec")
    graph = path_graph(nodes)
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=1)
    messages = tuple(f"M:{u}" for u in range(nodes))

    gates = {}
    turn_list = []
    for j in range(1, turns + 1):
        if j % 2 == 1:
            gates[j] = qcore.haar_matrix(1 + nodes, rng, "test gate")
            delivers = tuple((m, u) for u, m in enumerate(messages))
            turn_list.append(ProverTurn(acts_on=("P",) + messages, delivers=delivers))
            continue
        steps = tuple(
            static_step(u, qcore.haar_matrix(2, rng, "test gate"), [f"V:{u}", f"M:{u}"]) for u in range(nodes)
        )
        coins = (CoinFlip("r", 2, owner=None),) if coin and j == 2 else ()
        turn_list.append(VerifierTurn(coins=coins, steps=steps, sends=messages))

    ver_steps = []
    for u in range(nodes):
        if coin:
            ver_steps.append(
                conditional_step(
                    u,
                    ["r"],
                    {
                        (0,): (qcore.haar_matrix(2, rng, "test gate"), [f"V:{u}", f"M:{u}"]),
                        (1,): (qcore.haar_matrix(2, rng, "test gate"), [f"V:{u}", f"M:{u}"]),
                    },
                )
            )
        else:
            ver_steps.append(static_step(u, qcore.haar_matrix(2, rng, "test gate"), [f"V:{u}", f"M:{u}"]))
    accepts = tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(nodes))
    spec = ProtocolSpec(
        name=f"random-clean-{seed}",
        graph=graph,
        layout=layout,
        turns=tuple(turn_list),
        verification=VerificationPhase(steps=tuple(ver_steps), accepts=accepts),
    )

    def gate(turn_index, view):
        return gates[turn_index]

    return spec, ProverStrategy(f"haar-{seed}", gate)


def random_dam(seed: int, turns: int = 7) -> DamProtocol:
    """A seeded random private-coin dAM protocol with 1-bit certificates.

    Each node broadcasts its first certificate and accepts when the first
    byte of the SHA-256 of its seed, node, label, certificates, coins and
    received broadcasts is below 0.3 * 256: a random accept table over
    everything the node sees.  On ``path_graph(2, ["0", "0"])`` seed 0 at
    7 turns has completeness 49/64.
    """

    def broadcast(view):
        return view.certificates[min(view.certificates)]

    def predicate(view, received):
        seen = (seed, view.node, view.label, sorted(view.certificates.items()), sorted(view.coins.items()))
        digest = hashlib.sha256(repr(seen + (sorted(received.items()),)).encode()).digest()
        return digest[0] < 0.3 * 256

    return DamProtocol(f"random-dam-{seed}", turns, 1, "private", broadcast, predicate)
