"""Distributed quantum closeness testing.

Two pure states, each scattered over the network (node u holds N_u qubits of
both), are compared by a distributed SWAP test: the GHZ verification
subprotocol supplies the shared control register B, each node applies a
controlled-SWAP of its two input slices on B(u), the control comes back
through the prover via a leader ancilla, and the leader's Hadamard finishes
the interference.  The honest acceptance is 1/2 + |<psi|phi>|^2 / 2; an
acceptance of 1 - 1/z certifies trace distance at most sqrt(2/z) + epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Mapping

import numpy as np

from . import qcore
from .errors import ValidationError
from .ghz import (
    GhzProtocolParams,
    copy_reg,
    ghz_reply_slots,
    honest_pghz_strategy,
    make_ghz_broadcasts,
    make_ghz_predicate,
    make_measured_copies,
    make_rotation_step,
)
from .network import PROVER, NetworkGraph, allocate_layout
from .prover import OptimizerConfig, seesaw_optimize
from .protocol import (
    CoinFlip,
    FunctionalStrategy,
    Measurement,
    NodeAccept,
    ProtocolSpec,
    ProverTurn,
    ReplySlot,
    Step,
    VerificationPhase,
    VerifierTurn,
)
from .seeding import substream
from .transforms import CompileReport, Compiled, message_accounting, private_accounting


@dataclass(frozen=True)
class DqctInstance:
    """Two distributed pure-state inputs on the same qubit partition.

    ``psi`` and ``phi`` live on sum(qubits_per_node) qubits each; qubit j of
    either input belongs to the node owning position j of the concatenated
    per-node slices (nodes in ascending order).  The global input is the
    product psi (x) phi: the two sides are never entangled with each other.
    """

    graph: NetworkGraph
    qubits_per_node: tuple[int, ...]
    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if len(self.qubits_per_node) != self.graph.node_count:
            raise ValidationError("qubits_per_node must list every node")
        total = sum(self.qubits_per_node)
        for name, vec in (("psi", self.psi), ("phi", self.phi)):
            vec = np.asarray(vec, dtype=np.complex128)
            if vec.shape != (2**total,):
                raise ValidationError(f"{name} must have 2^{total} amplitudes")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
                raise ValidationError(f"{name} is not normalized")
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=np.complex128))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=np.complex128))

    @property
    def total_qubits(self) -> int:
        return sum(self.qubits_per_node)

    def overlap_squared(self) -> float:
        return float(abs(np.vdot(self.psi, self.phi)) ** 2)


def make_instance(graph: NetworkGraph, qubits_per_node, kind: str, seed: int = 0) -> DqctInstance:
    """Named generators: 'equal', 'orthogonal' or 'random'."""
    total = sum(qubits_per_node)
    rng = substream(seed, "dqct.instance", kind)
    psi = qcore.haar_state(total, rng).amplitudes
    if kind == "equal":
        phi = psi.copy()
    elif kind == "orthogonal":
        raw = qcore.haar_state(total, rng).amplitudes
        phi = raw - psi * np.vdot(psi, raw)
        phi = phi / np.linalg.norm(phi)
    elif kind == "random":
        phi = qcore.haar_state(total, rng).amplitudes
    else:
        raise ValidationError(f"unknown instance kind {kind!r}")
    return DqctInstance(graph, tuple(qubits_per_node), psi, phi)


def in_reg(side: int, u: int) -> str:
    return f"in{side}:{u}"


def _controlled_slice_swap(width: int) -> np.ndarray:
    """Controlled qubit-wise SWAP of two width-qubit slices (control first)."""
    what = f"controlled swap of two {width}-qubit slices"
    swap = qcore.circuit_matrix(2 * width, [(qcore.SWAP.matrix, [j, width + j]) for j in range(width)], what)
    return qcore.controlled(np.eye(len(swap), dtype=np.complex128), swap)


def build_pdqct(instance: DqctInstance, ghz_params: GhzProtocolParams) -> Compiled:
    """The 5-turn closeness test on top of the GHZ verification subprotocol.

    Turns 1-3 are the GHZ protocol's delivery, coin and echo turns.  In turn
    4 every node runs its test measurements, converts its target-copy qubit,
    the leader copies its control qubit onto the ancilla B2, each node
    controlled-swaps its input slices on its control qubit, and the control
    register travels to the prover.  Turn 5 returns it (honestly after a
    CNOT fan-in onto the leader's qubit) along with the parity labels, and
    the verification adds the SWAP-test finish: CNOT from B2, Hadamard,
    control register all-zero, B2 zero at the leader.
    """
    graph = instance.graph
    n = graph.node_count
    copies = ghz_params.copies
    leader = 0

    extras = [(copy_reg(i, u), 1, PROVER) for i in range(1, copies + 2) for u in range(n)]
    extras.append(("B2", 1, leader))
    for u in range(n):
        if instance.qubits_per_node[u]:
            extras.append((in_reg(1, u), instance.qubits_per_node[u], u))
            extras.append((in_reg(2, u), instance.qubits_per_node[u], u))
    layout = allocate_layout(graph, prover_qubits=ghz_params.prover_qubits, extras=extras)

    r_regs = tuple(copy_reg(i, u) for i in range(1, copies + 2) for u in range(n))
    p_regs = ("P",) if ghz_params.prover_qubits else ()
    tree_slots, echo_slots = ghz_reply_slots(graph, copies)
    measured_copies = make_measured_copies(leader, copies)
    rotation_step = make_rotation_step(leader, copies)

    def b_reg(u: int, view: Mapping) -> str:
        target = (view["btarget"] if u == leader else view[f"becho_target:{u}"]) + 1
        return copy_reg(target, u)

    def leader_mark_step() -> Step:
        def resolve(view: Mapping):
            return qcore.CNOT.matrix, [b_reg(leader, view), "B2"]

        return Step(actor=leader, resolve=resolve, describe={"kind": "control-mark", "node": leader})

    def cswap_step(u: int) -> Step:
        width = instance.qubits_per_node[u]
        if width == 0:
            return Step(actor=u, resolve=lambda view: None, describe={"kind": "noop"})
        mat = _controlled_slice_swap(width)

        def resolve(view: Mapping):
            return mat, [b_reg(u, view), in_reg(1, u), in_reg(2, u)]

        return Step(actor=u, resolve=resolve, describe={"kind": "controlled-slice-swap", "node": u})

    def control_regs(view: Mapping) -> list[str]:
        target = view["btarget"] + 1
        return [copy_reg(target, u) for u in range(n)]

    turns = (
        ProverTurn(
            index=1,
            acts_on=p_regs + r_regs,
            delivers=tuple((copy_reg(i, u), u) for i in range(1, copies + 2) for u in range(n)),
            replies=tree_slots,
        ),
        VerifierTurn(
            index=2,
            coins=(
                CoinFlip("btest", 2**copies, owner=leader),
                CoinFlip("btarget", copies + 1, owner=leader),
            ),
        ),
        ProverTurn(index=3, acts_on=p_regs, replies=echo_slots),
        VerifierTurn(
            index=4,
            steps=tuple(rotation_step(u) for u in range(n))
            + (leader_mark_step(),)
            + tuple(cswap_step(u) for u in range(n)),
            measurements=tuple(
                Measurement(
                    name=f"o:{u}",
                    node=u,
                    resolve_targets=lambda view, _u=u: [
                        copy_reg(i, _u) for i in measured_copies(_u, view)
                    ],
                    to_prover=True,
                    describe={"kind": "test-outcomes", "node": u},
                )
                for u in range(n)
            ),
            sends=control_regs,
        ),
        ProverTurn(
            index=5,
            acts_on=lambda view: list(p_regs) + control_regs(view),
            delivers=lambda view: [(copy_reg(view["btarget"] + 1, u), u) for u in range(n)],
            replies=tuple(ReplySlot(f"s:{u}", 2**copies, audience=(u,)) for u in range(n)),
        ),
    )

    def finish_step() -> Step:
        # CNOT from B2 back onto the leader's control qubit, then H on B2.
        finish = qcore.circuit_matrix(2, [(qcore.CNOT.matrix, [1, 0]), (qcore.H.matrix, [1])], "swap-test finish")

        def resolve(view: Mapping):
            return finish, [b_reg(leader, view), "B2"]

        return Step(actor=leader, resolve=resolve, describe={"kind": "swap-test-finish"})

    ghz_predicate = make_ghz_predicate(graph, leader, copies)
    zero1 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    zero2 = np.zeros((4, 4), dtype=np.complex128)
    zero2[0, 0] = 1.0

    accepts = []
    for u in range(n):
        def projector(view, _u=u):
            if _u == leader:
                return zero2, [b_reg(_u, view), "B2"]
            return zero1, [b_reg(_u, view)]

        accepts.append(
            NodeAccept(
                node=u,
                projector=projector,
                predicate=lambda view, _u=u: ghz_predicate(view, _u),
                describe={"kind": "closeness-accept", "node": u},
            )
        )

    initial_factors = []
    if instance.total_qubits:
        initial_factors.append(
            (tuple(in_reg(1, u) for u in range(n) if instance.qubits_per_node[u]), instance.psi)
        )
        initial_factors.append(
            (tuple(in_reg(2, u) for u in range(n) if instance.qubits_per_node[u]), instance.phi)
        )

    spec = ProtocolSpec(
        name=f"closeness[n={n},N={copies}]",
        graph=graph,
        layout=layout,
        turns=turns,
        verification=VerificationPhase(
            steps=(finish_step(),),
            broadcasts=make_ghz_broadcasts(graph),
            accepts=tuple(accepts),
        ),
        initial_factors=tuple(initial_factors),
        metadata={
            "kind": "closeness-test",
            "copies": copies,
            "epsilon": ghz_params.epsilon,
            "delta": ghz_params.delta,
            "overlap_squared": instance.overlap_squared(),
            # Communication accounting: all independent of the input size.
            "quantum_message_qubits_per_node": copies + 1,
            "classical_broadcast_fields_per_edge": 7,
        },
    )

    honest = _honest_pdqct_strategy(spec, instance, ghz_params)
    report = CompileReport(
        transform="build_pdqct",
        input_turns=0,
        output_turns=spec.num_turns,
        message_qubits_per_node=message_accounting(spec),
        private_qubits_per_node=private_accounting(spec),
        predicted_completeness=0.5 + 0.5 * instance.overlap_squared(),
        predicted_soundness=None,
    )
    return Compiled(spec, honest, report)


def _honest_pdqct_strategy(spec: ProtocolSpec, instance: DqctInstance, params: GhzProtocolParams):
    graph = instance.graph
    n = graph.node_count
    ghz_honest = honest_pghz_strategy(spec, graph, params)
    p_qubits = params.prover_qubits

    # Turn 5: CNOT fan-in from the leader's control qubit onto all others,
    # sending the register back as |0^(n-1)> on the non-leader qubits.
    fan_in = qcore.circuit_matrix(
        p_qubits + n, [(qcore.CNOT.matrix, [p_qubits, p_qubits + offset]) for offset in range(1, n)], "CNOT fan-in"
    )

    def gate(turn_index: int, view: Mapping) -> np.ndarray:
        if turn_index == 5:
            return fan_in
        return ghz_honest.gate_fn(turn_index, view)

    return FunctionalStrategy("closeness-honest", gate, ghz_honest.reply_fn)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def closeness_bound(acceptance: float, epsilon: float) -> float:
    """Trace-distance bound sqrt(2/z) + epsilon from acceptance = 1 - 1/z."""
    if not -1e-9 <= acceptance <= 1.0 + 1e-9:
        raise ValidationError(f"acceptance {acceptance!r} outside [0, 1]")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    acceptance = min(max(acceptance, 0.0), 1.0)
    return sqrt(2.0 * (1.0 - acceptance)) + epsilon


def input_trace_distance(instance: DqctInstance) -> float:
    """dist(|psi>, |phi>) computed from the raw vectors via density matrices."""
    rho = qcore.DensityOperator(instance.total_qubits, np.outer(instance.psi, instance.psi.conj()))
    sigma = qcore.DensityOperator(instance.total_qubits, np.outer(instance.phi, instance.phi.conj()))
    return qcore.trace_distance(rho, sigma)


def soundness_probe(
    instance: DqctInstance,
    compiled: Compiled,
    honest_value: float,
    config: OptimizerConfig,
) -> dict:
    """See-saw over adversarial provers and compare with the analytic ceiling.

    ``compiled`` is :func:`build_pdqct` of ``instance`` and ``honest_value``
    its exact honest acceptance.  Reports the best acceptance found, the
    ceiling 1/2 + |<psi|phi>|^2/2 + sqrt(2 epsilon), and the trace-distance
    implication of the measured acceptance through :func:`closeness_bound`.
    """
    epsilon = compiled.spec.metadata["epsilon"]
    trace = seesaw_optimize(compiled.spec, config, honest=compiled.honest)
    overlap = instance.overlap_squared()
    ceiling = 0.5 + 0.5 * overlap + sqrt(2.0 * epsilon)
    distance = input_trace_distance(instance)
    return {
        "honest_acceptance": honest_value,
        "best_acceptance": trace.best_acceptance,
        "overlap_squared": overlap,
        "ceiling": min(1.0, ceiling),
        "epsilon": epsilon,
        "input_trace_distance": distance,
        "distance_bound_at_best": closeness_bound(trace.best_acceptance, epsilon),
        "restarts": config.restarts,
        "trace": trace,
    }
