"""Distributed quantum closeness testing.

Two pure states, each scattered over the network (node u holds N_u qubits of
both), are compared by a distributed SWAP test.  The closeness test is the
pGHZ script of :func:`dqip.ghz.build_pghz` plus the SWAP test: pGHZ's
untested copy is the shared control register B, each node applies a
controlled-SWAP of its two input slices on B(u), the control comes back
through the prover via a leader ancilla, and the leader's Hadamard finishes
the interference.  The honest acceptance is 1/2 + |<psi|phi>|^2 / 2; an
acceptance of 1 - 1/z certifies trace distance at most sqrt(2/z) + epsilon.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from math import sqrt
from typing import Mapping

import numpy as np

from . import qcore
from .errors import ValidationError
from .ghz import GhzProtocolParams, build_pghz, copy_reg, read_tests
from .network import LEADER, NetworkGraph, RegisterLayout, extend_layout
from .prover import OptimizerConfig, seesaw_optimize
from .protocol import ProverStrategy, Step
from .seeding import substream
from .transforms import Compiled


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
    """Named generators: 'equal', 'orthogonal' or 'random'.

    The two inputs' bytes are checked against ``qcore.MAX_DENSE_BYTES`` before either is drawn.
    """
    total = sum(qubits_per_node)
    qcore.check_budget(2 * 16 * 2**total, f"a draw of the closeness-test inputs on {total} qubits each")
    rng = substream(seed, "dqct.instance", kind)
    psi = qcore.haar_state(total, rng)
    if kind == "equal":
        phi = psi.copy()
    elif kind == "orthogonal":
        raw = qcore.haar_state(total, rng)
        phi = raw - psi * np.vdot(psi, raw)
        phi = phi / np.linalg.norm(phi)
    elif kind == "random":
        phi = qcore.haar_state(total, rng)
    else:
        raise ValidationError(f"unknown instance kind {kind!r}")
    return DqctInstance(graph, tuple(qubits_per_node), psi, phi)


def in_reg(side: int, u: int) -> str:
    return f"in{side}:{u}"


@functools.cache
def _controlled_slice_swap(width: int) -> np.ndarray:
    """Controlled qubit-wise SWAP of two width-qubit slices (control first), read-only."""
    what = f"controlled swap of two {width}-qubit slices"
    swap = qcore.circuit_matrix(2 * width, [(qcore.SWAP, [j, width + j]) for j in range(width)], what)
    return qcore.read_only(qcore.controlled(np.eye(len(swap), dtype=np.complex128), swap))


@functools.cache
def _swap_test_finish() -> np.ndarray:
    """The SWAP-test finish on (control, B2): a CNOT from B2 back onto the control, then H on B2."""
    return qcore.read_only(qcore.circuit_matrix(2, [(qcore.CNOT, [1, 0]), (qcore.H, [1])], "swap-test finish"))


def _swap_test_layout(graph: NetworkGraph, qubits_per_node, ghz_layout) -> RegisterLayout:
    """pGHZ's registers, then the SWAP test's: the leader's ancilla B2 and each node's two input
    slices (none for a node that holds no input qubit).  Refused above the qubit ceiling."""
    extras = [("B2", 1, LEADER)]
    extras += [(in_reg(side, u), width, u) for u, width in enumerate(qubits_per_node) for side in (1, 2)]
    return extend_layout(graph, ghz_layout, extras)


def build_pdqct(instance: DqctInstance, ghz_params: GhzProtocolParams) -> Compiled:
    """The closeness test: :func:`~dqip.ghz.build_pghz` plus the SWAP test.

    The pGHZ script runs unchanged, and its untested copy, the target copy,
    is the control register B.  The SWAP test adds the leader's ancilla B2
    and each node's two input slices to the layout.  In turn 4, after the
    pGHZ rotations and test measurements, the leader copies its control
    qubit onto B2, each node controlled-swaps its input slices on its
    control qubit, and B travels to the prover.  Turn 5 returns it (honestly
    after a CNOT fan-in onto the leader's qubit) with the parity labels.
    The verification adds the SWAP-test finish (CNOT from B2, Hadamard on
    B2), and each node's pGHZ predicate gains the projector onto B(u) = 0,
    and B2 = 0 at the leader.
    """
    graph = instance.graph
    n = graph.node_count
    ghz = build_pghz(graph, ghz_params)
    ghz_turns, phase = ghz.spec.turns, ghz.spec.verification
    # pGHZ's output, the untested copy at every node, is the control register B.
    control_regs = ghz.spec.output_registers

    held = [u for u in range(n) if instance.qubits_per_node[u]]
    layout = _swap_test_layout(graph, instance.qubits_per_node, ghz.spec.layout)

    def b_reg(u: int, view: Mapping) -> str:
        return copy_reg(read_tests(u, view)[1], u)

    def leader_step(matrix: np.ndarray, describe: dict) -> Step:
        """``matrix`` on the leader's control qubit and B2."""
        return Step(actor=LEADER, resolve=lambda view: (matrix, [b_reg(LEADER, view), "B2"]), describe=describe)

    def cswap_step(u: int) -> Step:
        width = instance.qubits_per_node[u]
        if width == 0:
            return Step(actor=u, resolve=lambda view: None, describe={"kind": "noop"})
        mat = _controlled_slice_swap(width)

        def resolve(view: Mapping):
            return mat, [b_reg(u, view), in_reg(1, u), in_reg(2, u)]

        return Step(actor=u, resolve=resolve, describe={"kind": "controlled-slice-swap", "node": u})

    *head, turn4, turn5 = ghz_turns
    # The SWAP test runs after the test measurements: its steps act on the
    # target copy, B2 and the inputs and read only the coins and echoes, so
    # every branch holds the same amplitudes, only on fewer qubits.
    turns = (
        *head,
        replace(
            turn4,
            steps=turn4.steps
            + turn4.measurements
            + (leader_step(qcore.CNOT, {"kind": "control-mark", "node": LEADER}),)
            + tuple(cswap_step(u) for u in range(n)),
            measurements=(),
            sends=control_regs,
        ),
        replace(
            turn5,
            acts_on=lambda view: list(turn5.acts_on) + control_regs(view),
            delivers=lambda view: [(reg, u) for u, reg in enumerate(control_regs(view))],
        ),
    )

    finish, zero1, zero2 = _swap_test_finish(), qcore.basis_projector(1), qcore.basis_projector(2)

    def projector(u: int):
        if u == LEADER:
            return lambda view: (zero2, [b_reg(u, view), "B2"])
        return lambda view: (zero1, [b_reg(u, view)])

    accepts = tuple(
        replace(accept, projector=projector(accept.node), describe={"kind": "closeness-accept", "node": accept.node})
        for accept in phase.accepts
    )

    inputs = ((tuple(in_reg(1, u) for u in held), instance.psi), (tuple(in_reg(2, u) for u in held), instance.phi))

    spec = replace(
        ghz.spec,
        name=f"closeness[n={n},N={ghz_params.copies}]",
        layout=layout,
        turns=turns,
        verification=replace(phase, steps=(leader_step(finish, {"kind": "swap-test-finish"}),), accepts=accepts),
        initial_factors=inputs if held else (),
        # The control register is measured by the accept projectors, not handed out.
        output_registers=None,
        metadata={
            **ghz.spec.metadata,
            "kind": "closeness-test",
            "overlap_squared": instance.overlap_squared(),
            # Communication accounting: all independent of the input size.
            "quantum_message_qubits_per_node": ghz_params.copies + 1,
            "classical_broadcast_fields_per_edge": 7,
        },
    )

    # The last turn returns B: a CNOT fan-in from the leader's control qubit
    # (after P) onto all others, leaving |0^(n-1)> on the non-leader qubits.
    returns = len(turns)
    fan_in = qcore.cnot_fanout(ghz_params.prover_qubits, n)
    honest = ProverStrategy.table("closeness-honest", {returns: fan_in}, ghz.honest)
    return Compiled.of("build_pdqct", 0, spec, honest, completeness=0.5 + 0.5 * instance.overlap_squared())


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
    """Trace distance of the pure inputs, read from the two vectors.

    For unit vectors it is sqrt(1 - |<psi|phi>|^2), the norm of phi's part
    orthogonal to psi: ||phi - <psi|phi> psi||, which stays accurate near 0.
    """
    psi, phi = instance.psi, instance.phi
    return float(np.linalg.norm(phi - np.vdot(psi, phi) * psi))


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
