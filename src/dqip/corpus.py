"""Small named protocols and randomized spec generators used across the suite."""

from __future__ import annotations

import numpy as np

from . import qcore
from .network import allocate_layout, build_network, path_graph
from .protocol import (
    CoinFlip,
    FunctionalStrategy,
    NodeAccept,
    ProtocolSpec,
    ProverTurn,
    VerificationPhase,
    VerifierTurn,
    conditional_step,
    first_qubit_zero_accept,
    static_step,
)
from .seeding import substream


def identity_for(spec: ProtocolSpec, name: str = "identity") -> FunctionalStrategy:
    """Prover that applies the identity on whatever it holds at each turn."""

    def gate(turn_index, view):
        turn = next(t for t in spec.turns if isinstance(t, ProverTurn) and t.index == turn_index)
        regs = turn.acts_on(view) if callable(turn.acts_on) else turn.acts_on
        dim = 2 ** sum(spec.layout.size(r.split("[")[0]) if "[" not in r else 1 for r in regs)
        return np.eye(dim, dtype=np.complex128)

    return FunctionalStrategy(name, gate)


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
    turn = VerifierTurn(index=1, steps=(static_step(0, qcore.X.matrix, ["V:0"]),))
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
    turn = VerifierTurn(index=1, coins=(CoinFlip("r", 2, owner=None),))
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


def _completion_unitary(v: np.ndarray) -> np.ndarray:
    """Single-qubit unitary whose first column is ``v``."""
    v = np.asarray(v, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    w = np.array([-np.conj(v[1]), np.conj(v[0])], dtype=np.complex128)
    return np.column_stack([v, w])


def coin_check_spec(check_vectors: list[np.ndarray], name: str = "coin-check") -> ProtocolSpec:
    """Single node, single prover message; a coin picks which state to demand.

    The verifier flips r uniform over the given single-qubit check vectors,
    rotates |v_r> onto |0>, copies the message qubit into its private
    register and accepts iff that register reads |0>.  The honest prover
    sends |0>, so the honest value is the mean of |<v_r|0>|^2 while the
    optimal value is the top eigenvalue of the averaged check projector.
    """
    graph = build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=0, node_private=1, node_message=1)
    turn1 = ProverTurn(index=1, acts_on=("M:0",), delivers=(("M:0", 0),))
    turn2 = VerifierTurn(index=2, coins=(CoinFlip("r", len(check_vectors), owner=0),))
    table = {}
    for r, v in enumerate(check_vectors):
        # Unrotate M, then copy it into V (CNOT with control M, target V).
        factors = [(_completion_unitary(v).conj().T, [1]), (qcore.CNOT.matrix, [1, 0])]
        table[(r,)] = (qcore.circuit_matrix(2, factors, "check step"), ["V:0", "M:0"])
    step = conditional_step(0, ["r"], table)
    return ProtocolSpec(
        name=name,
        graph=graph,
        layout=layout,
        turns=(turn1, turn2),
        verification=VerificationPhase(steps=(step,), accepts=(first_qubit_zero_accept(0, "V:0"),)),
    )


def two_check_spec(v0: np.ndarray, v1: np.ndarray, name: str = "two-check") -> ProtocolSpec:
    """Like :func:`coin_check_spec` with the coin kept quantum.

    The node holds the coin as a private qubit in superposition instead of
    flipping a classical bit, so the whole protocol is a single coherent
    branch; this is the form consumed by the perfect-completeness transform.
    Honest value (sending |0>): (|<v0|0>|^2 + |<v1|0>|^2) / 2.
    """
    graph = build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=0, node_private=2, node_message=1)
    turn1 = ProverTurn(index=1, acts_on=("M:0",), delivers=(("M:0", 0),))
    coin_h = static_step(0, qcore.H.matrix, ["V:0[1]"])
    # Gate qubit 0 is the coin, gate qubit 1 the message.
    unrot = qcore.controlled(_completion_unitary(v0).conj().T, _completion_unitary(v1).conj().T)
    controlled_unrotate = static_step(0, unrot, ["V:0[1]", "M:0"])
    copy = qcore.circuit_matrix(2, [(qcore.CNOT.matrix, [1, 0])], "copy step")  # control M, target V
    copy_into_v = static_step(0, copy, ["V:0[0]", "M:0"])
    return ProtocolSpec(
        name=name,
        graph=graph,
        layout=layout,
        turns=(turn1,),
        verification=VerificationPhase(
            steps=(coin_h, controlled_unrotate, copy_into_v),
            accepts=(first_qubit_zero_accept(0, "V:0"),),
        ),
    )


def coin_check_honest() -> FunctionalStrategy:
    """Sends |0> in the message register of :func:`coin_check_spec`."""
    return FunctionalStrategy("send-zero", lambda turn, view: np.eye(2, dtype=np.complex128))


def prover_blind_spec() -> tuple[ProtocolSpec, FunctionalStrategy]:
    """The prover's turns act on registers the verifier never reads."""
    graph = build_network(1, [])
    layout = allocate_layout(graph, prover_qubits=1, node_private=1, node_message=0)
    turns = (ProverTurn(index=1, acts_on=("P",), delivers=()),)
    spec = ProtocolSpec(
        name="prover-blind",
        graph=graph,
        layout=layout,
        turns=turns,
        verification=VerificationPhase(accepts=(first_qubit_zero_accept(0, "V:0"),)),
    )
    honest = FunctionalStrategy("idle", lambda turn, view: np.eye(2, dtype=np.complex128))
    return spec, honest


def random_clean_spec(
    seed: int, coin: bool = False, turns: int = 3, nodes: int = 2
) -> tuple[ProtocolSpec, FunctionalStrategy]:
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
            gates[j] = qcore.haar_unitary(1 + nodes, rng).matrix
            delivers = tuple((m, u) for u, m in enumerate(messages))
            turn_list.append(ProverTurn(index=j, acts_on=("P",) + messages, delivers=delivers))
            continue
        steps = tuple(
            static_step(u, qcore.haar_unitary(2, rng).matrix, [f"V:{u}", f"M:{u}"]) for u in range(nodes)
        )
        coins = (CoinFlip("r", 2, owner=None),) if coin and j == 2 else ()
        turn_list.append(VerifierTurn(index=j, coins=coins, steps=steps, sends=messages))

    ver_steps = []
    for u in range(nodes):
        if coin:
            ver_steps.append(
                conditional_step(
                    u,
                    ["r"],
                    {
                        (0,): (qcore.haar_unitary(2, rng).matrix, [f"V:{u}", f"M:{u}"]),
                        (1,): (qcore.haar_unitary(2, rng).matrix, [f"V:{u}", f"M:{u}"]),
                    },
                )
            )
        else:
            ver_steps.append(static_step(u, qcore.haar_unitary(2, rng).matrix, [f"V:{u}", f"M:{u}"]))
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

    return spec, FunctionalStrategy(f"haar-{seed}", gate)
