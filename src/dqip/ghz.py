"""GHZ / star-graph-state machinery and the 5-turn GHZ verification protocol.

The star graph state |S_n> = prod_j CZ_(center,j) |+>^n is locally
equivalent to (|0^n> + |1^n>)/sqrt(2) via Hadamards on the leaves.  Its two
stabilizer tests are

    P_0 = (I + X_c Z_leaves)/2      -- center measured in X, leaves in Z,
                                       accept iff the outcome parity is even;
    P_1 = prod_leaf (I + Z_c X_leaf)/2 -- center in Z, leaves in X,
                                       accept iff all outcomes agree.

The distributed protocol delivers N+1 copies, tests N randomly chosen ones
with a random test per copy, routes the parity check through prover-supplied
subtree sums over a spanning tree, and hands back the untested copy as the
output register.

The honest delivery is a :class:`~dqip.qcore.FactoredOp` of N+1 local
n-qubit star preparations, so no 2^{n(N+1)}-square matrix is built unless a
caller asks for the dense form (the see-saw does, under the dense budget).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import qcore
from .errors import ValidationError
from .network import (
    LEADER,
    PROVER,
    NetworkGraph,
    allocate_layout,
    neighbors_agree,
    spanning_tree,
    tree_label_replies,
    tree_label_slots,
    tree_labels_hold,
)
from .protocol import (
    Broadcast,
    CoinFlip,
    Measurement,
    NodeAccept,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    ReplySlot,
    VerificationPhase,
    VerifierTurn,
    Step,
)
from .qcore import FactoredOp
from .transforms import Compiled


def ghz_state(n: int) -> np.ndarray:
    """(|0^n> + |1^n>)/sqrt(2), as a state vector."""
    if n < 2:
        raise ValidationError("ghz_state needs at least two qubits")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return amps


def star_prep_matrix(n: int) -> np.ndarray:
    """The honest star preparation: Hadamards on every qubit, then a CZ from qubit 0 to each leaf."""
    factors = [(qcore.H, [q]) for q in range(n)] + [(qcore.CZ, [0, leaf]) for leaf in range(1, n)]
    return qcore.circuit_matrix(n, factors, f"{n}-qubit star preparation")


def star_state(n: int) -> np.ndarray:
    """Star graph state vector: :func:`star_prep_matrix` applied to |0^n>, its column 0."""
    if n < 2:
        raise ValidationError("star_state needs at least two qubits")
    return np.ascontiguousarray(star_prep_matrix(n)[:, 0])


# ---------------------------------------------------------------------------
# Stabilizer tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizerTest:
    """One coloring test: projector, per-node basis, classical predicate."""

    projector: np.ndarray
    bases: tuple[str, ...]  # 'X' or 'Z' per qubit, center first
    predicate: Callable[[tuple[int, ...]], bool]

    def __post_init__(self):
        qcore.check_projector(self.projector)


def stabilizer_tests(n: int) -> tuple[StabilizerTest, StabilizerTest]:
    """The two star-coloring tests with the center at qubit 0."""
    if n < 2:
        raise ValidationError("stabilizer_tests needs at least two qubits")
    # The center's stabilizer X_0 Z_1 ... Z_{n-1}, and the product of the
    # leaves' projectors (1 + Z_0 X_leaf) / 2, which commute.
    what = f"{n}-qubit stabilizer test"
    leaves = range(1, n)
    center_x = qcore.circuit_matrix(n, [(qcore.Z, [leaf]) for leaf in leaves] + [(qcore.X, [0])], what)
    p0 = (np.eye(2**n) + center_x) / 2
    k_leaf = qcore.circuit_matrix(2, [(qcore.X, [1]), (qcore.Z, [0])], what)
    p1 = qcore.circuit_matrix(n, [((np.eye(4) + k_leaf) / 2, [0, leaf]) for leaf in reversed(leaves)], what)

    test0 = StabilizerTest(
        projector=p0,
        bases=("X",) + ("Z",) * (n - 1),
        predicate=lambda outcomes: sum(outcomes) % 2 == 0,
    )
    test1 = StabilizerTest(
        projector=p1,
        bases=("Z",) + ("X",) * (n - 1),
        predicate=lambda outcomes: len(set(outcomes)) == 1,
    )
    return test0, test1


# ---------------------------------------------------------------------------
# The distributed verification protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GhzProtocolParams:
    """Parameters: nodes, test copies N, and the (epsilon, delta) targets.

    The fidelity statement holds for N of order (1/epsilon) log(1/delta);
    the constant is a configuration choice, not enforced here.
    """

    copies: int
    epsilon: float = 0.25
    delta: float = 0.5
    seed: int = 0
    prover_qubits: int = 0

    def __post_init__(self):
        if self.copies < 1:
            raise ValidationError("at least one test copy is required")
        if not (0 < self.epsilon < 1 and 0 < self.delta < 1):
            raise ValidationError("epsilon and delta must lie in (0, 1)")


def copy_reg(i: int, u: int) -> str:
    return f"R:{i}:{u}"


def read_tests(u: int, view: Mapping) -> tuple[int, int]:
    """(test bit string, target copy index) as node ``u`` reads them: the
    leader from its coins, any other node from the prover's echoes."""
    if u == LEADER:
        return view["btest"], view["btarget"] + 1
    return view[f"becho_test:{u}"], view[f"becho_target:{u}"] + 1


def build_pghz(graph: NetworkGraph, params: GhzProtocolParams) -> Compiled:
    """The 5-turn GHZ verification protocol on ``graph``.

    The prover delivers N+1 candidate star states; the leader draws a test
    string and a target copy; the prover echoes both to every node; nodes
    measure the test copies (center in X and leaves in Z for parity tests,
    the complementary assignment for all-equal tests), Hadamard their leaf
    qubit of the target copy, and report outcomes to the prover; the prover
    supplies subtree parities which the verification telescopes to the
    leader's total-parity check.  Echo consistency is anchored at the
    leader, and tree labels are verified locally.  The untested copy is the
    output register; :func:`dqip.dqct.build_pdqct` extends this script.
    """
    n = graph.node_count
    if n < 2:
        raise ValidationError("the protocol needs at least two nodes")
    copies = params.copies
    # Bit t of the test string picks copy t's test, whose basis at node u is
    # bases[bit][u]: the tests and the stars centre on qubit 0, the leader's.
    bases = tuple(test.bases for test in stabilizer_tests(n))

    r_regs = tuple(copy_reg(i, u) for i in range(1, copies + 2) for u in range(n))
    layout = allocate_layout(graph, prover_qubits=params.prover_qubits, extras=[(r, 1, PROVER) for r in r_regs])
    p_regs = ("P",) if params.prover_qubits else ()
    # Each node's variables and received broadcasts, named once per build.
    bundle = ("becho_test", "becho_target", "o", "s", "leader", "parent", "dist")
    keys = [{field: f"{field}:{u}" for field in bundle} for u in range(n)]
    receives = [[(v, f"recv:{v}") for v in graph.neighbors(u)] for u in range(n)]
    bits = (1 << copies) - 1  # one bit per test copy

    def measured_copies(u: int, view: Mapping) -> list[int]:
        _, target = read_tests(u, view)
        return [i for i in range(1, copies + 2) if i != target]

    def rotation_step(u: int) -> Step:
        """Hadamard where the test wants X, plus the leaf-qubit Hadamard on
        the target copy that turns the star into GHZ."""

        @functools.cache  # one operator per (tested bits, target copy)
        def rotation(bits: int, target: int, measured: tuple[int, ...]):
            regs = [copy_reg(i, u) for t, i in enumerate(measured) if bases[(bits >> t) & 1][u] == "X"]
            if u != LEADER:
                regs.append(copy_reg(target, u))
            if not regs:
                return None
            hadamards = [(qcore.H, [j]) for j in range(len(regs))]
            return qcore.circuit_matrix(len(regs), hadamards, f"basis rotation of node {u}"), regs

        def resolve(view: Mapping):
            return rotation(*read_tests(u, view), tuple(measured_copies(u, view)))

        return Step(actor=u, resolve=resolve, describe={"kind": "test-basis-rotation", "node": u})

    def predicate(view: Mapping, u: int) -> bool:
        """The four verification checks: echo consistency anchored at the
        leader, spanning-tree labels, the telescoped parity test, the
        all-equal test."""
        received = {v: view[key] for v, key in receives[u]}
        anchor = {"becho_test": view["btest"], "becho_target": view["btarget"]} if u == LEADER else None
        if not neighbors_agree(u, ("becho_test", "becho_target"), view, received, anchor):
            return False
        if not tree_labels_hold(graph, LEADER, u, view, received):
            return False
        my_test = view[keys[u]["becho_test"]]
        # Bit t of the test string picks copy t's test: 0 the parity test, where
        # u's outcome and its children's subtree parities must sum to u's own
        # (0 at the leader), 1 the all-equal test against every neighbor.
        o_u = view[keys[u]["o"]]
        parity = o_u if u == LEADER else o_u ^ view[keys[u]["s"]]
        for got in received.values():
            parity ^= got["s"] if got["parent"] == u else 0
        if parity & ~my_test & bits:
            return False
        return not any((got["o"] ^ o_u) & my_test & bits for got in received.values())

    turns = (
        ProverTurn(
            acts_on=p_regs + r_regs,
            delivers=tuple((copy_reg(i, u), u) for i in range(1, copies + 2) for u in range(n)),
            replies=tree_label_slots(graph),
        ),
        VerifierTurn(
            coins=(
                CoinFlip("btest", 2**copies, owner=LEADER),
                CoinFlip("btarget", copies + 1, owner=LEADER),
            ),
        ),
        ProverTurn(
            acts_on=p_regs,
            replies=tuple(
                slot
                for u in range(n)
                for slot in (
                    ReplySlot(f"becho_test:{u}", 2**copies, audience=(u,)),
                    ReplySlot(f"becho_target:{u}", copies + 1, audience=(u,)),
                )
            ),
        ),
        VerifierTurn(
            steps=tuple(rotation_step(u) for u in range(n)),
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
        ),
        ProverTurn(
            acts_on=p_regs,
            replies=tuple(ReplySlot(f"s:{u}", 2**copies, audience=(u,)) for u in range(n)),
        ),
    )

    broadcasts = tuple(
        Broadcast(
            node=u,
            fn=lambda view, _keys=keys[u]: {field: view[key] for field, key in _keys.items()},
            describe={"kind": "test-bundle", "node": u},
        )
        for u in range(n)
    )
    accepts = tuple(
        NodeAccept(
            node=u,
            projector=None,
            predicate=lambda view, _u=u: predicate(view, _u),
            describe={"kind": "ghz-verification", "node": u},
        )
        for u in range(n)
    )

    def output_registers(values: Mapping) -> list[str]:
        _, target = read_tests(LEADER, values)
        return [copy_reg(target, u) for u in range(n)]

    spec = ProtocolSpec(
        name=f"ghz-verify[n={n},N={copies}]",
        graph=graph,
        layout=layout,
        turns=turns,
        verification=VerificationPhase(broadcasts=broadcasts, accepts=accepts),
        output_registers=output_registers,
        metadata={
            "kind": "ghz-verification",
            "copies": copies,
            "epsilon": params.epsilon,
            "delta": params.delta,
        },
    )

    return Compiled.of("build_pghz", 0, spec, honest_pghz_strategy(graph, params), completeness=1.0)


def honest_pghz_strategy(graph: NetworkGraph, params: GhzProtocolParams) -> ProverStrategy:
    """Sends star states, echoes the leader's coins, sums subtree parities."""
    n = graph.node_count
    copies = params.copies
    tree = spanning_tree(graph, LEADER)
    labels = tree_label_replies(tree)
    p_qubits = params.prover_qubits

    # Turn 1 acts on (P, R:1:0..R:1:n-1, R:2:0, ...): copy i's star
    # preparation covers its n node qubits, centred on the leader, node 0; P is idle.
    prep = star_prep_matrix(n)
    full_prep = FactoredOp(
        p_qubits + n * (copies + 1),
        [(prep, range(p_qubits + i * n, p_qubits + (i + 1) * n)) for i in range(copies + 1)],
    )
    idle = FactoredOp(p_qubits)

    def subtree(u: int) -> list[int]:
        out, frontier = [u], [u]
        while frontier:
            nxt = []
            for w in frontier:
                for child in tree.children(w):
                    out.append(child)
                    nxt.append(child)
            frontier = nxt
        return out

    # The reply s:u is each test bit's parity over the outcomes o:w of u's subtree.
    parity_keys = {f"s:{u}": [f"o:{w}" for w in subtree(u)] for u in range(n)}

    def gate(turn_index: int, view: Mapping) -> FactoredOp:
        return full_prep if turn_index == 1 else idle

    def reply(slot_name: str, view: Mapping) -> int:
        if slot_name in labels:
            return labels[slot_name]
        if slot_name in parity_keys:
            value = 0
            for key in parity_keys[slot_name]:
                value ^= view[key]
            return value & ((1 << copies) - 1)
        kind = slot_name.partition(":")[0]
        if kind == "becho_test":
            return view["btest"]
        if kind == "becho_target":
            return view["btarget"]
        raise ValidationError(f"unexpected reply slot {slot_name!r}")

    return ProverStrategy("ghz-honest", gate, reply)


def all_zero_cheat(spec: ProtocolSpec, params: GhzProtocolParams) -> ProverStrategy:
    """Fixed cheat: sends |0...0> instead of star states, replies honestly."""
    honest = honest_pghz_strategy(spec.graph, params)

    def gate(turn_index: int, view: Mapping) -> FactoredOp:
        return FactoredOp(honest.gate_fn(turn_index, view).arity)

    return ProverStrategy("ghz-all-zero", gate, honest.reply_fn)


def ghz_fidelity(rho: np.ndarray) -> float:
    """<GHZ| rho |GHZ> for a density matrix on n qubits."""
    n = int(round(np.log2(rho.shape[0])))
    target = ghz_state(n)
    return float(np.real(target.conj() @ rho @ target))
