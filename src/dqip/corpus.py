"""Small named protocols that the verification battery runs (see :mod:`dqip.acceptance`)."""

from __future__ import annotations

import numpy as np

from . import qcore
from .network import allocate_layout, build_network
from .protocol import (
    CoinFlip,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    VerificationPhase,
    VerifierTurn,
    conditional_step,
    first_qubit_zero_accept,
    static_step,
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
    turn1 = ProverTurn(acts_on=("M:0",), delivers=(("M:0", 0),))
    turn2 = VerifierTurn(coins=(CoinFlip("r", len(check_vectors), owner=0),))
    table = {}
    for r, v in enumerate(check_vectors):
        # Unrotate M, then copy it into V (CNOT with control M, target V).
        factors = [(_completion_unitary(v).conj().T, [1]), (qcore.CNOT, [1, 0])]
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
    turn1 = ProverTurn(acts_on=("M:0",), delivers=(("M:0", 0),))
    coin_h = static_step(0, qcore.H, ["V:0[1]"])
    # Gate qubit 0 is the coin, gate qubit 1 the message.
    unrot = qcore.controlled(_completion_unitary(v0).conj().T, _completion_unitary(v1).conj().T)
    controlled_unrotate = static_step(0, unrot, ["V:0[1]", "M:0"])
    copy = qcore.circuit_matrix(2, [(qcore.CNOT, [1, 0])], "copy step")  # control M, target V
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


def coin_check_honest() -> ProverStrategy:
    """Sends |0> in the message register of :func:`coin_check_spec`."""
    return ProverStrategy.table("send-zero", {1: np.eye(2, dtype=np.complex128)})
