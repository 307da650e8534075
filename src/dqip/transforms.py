"""Protocol transformations.

* classical Arthur-Merlin simulation (reversible certificate writes, coin
  superpositions, computational-basis verification),
* three turn reductions built from one snapshot-and-branch schedule
  (:class:`_Halving`): the prover delivers the honest mid-protocol state and
  a branch bit picks forward simulation of the tail or backward
  un-simulation of the head.  They differ only in the branch source
  (:class:`_Branch`) through which nodes learn that bit: a shared coin
  (4l+1 to 2l+1 turns), a leader coin echoed by the prover with neighbor
  cross-checks (7 to 5), or a root Bell pair the prover fans out, checked
  against spanning-tree labels (4l+1 to 2l+3),
* the perfect-completeness transform (verdict round-trip, leader counters,
  acceptance rotation),
* parallel repetition (AND / per-node majority).

Every transform takes and returns (spec, honest strategy) pairs plus a
:class:`CompileReport` with turn counts, register accounting and, when the
caller supplies the input's (completeness, soundness), the predicted output
values; :meth:`Compiled.of` is the one place a report is made.  Honest
strategies for snapshot-style constructions are built by replaying the input
protocol's honest evolution internally.  Transforms that carry the input's
steps, measurements, broadcasts or accepts into the output do it through one
rewrite layer (:class:`_Rewrite`): parallel repetition renames each copy's
registers and translates its views, perfect completeness widens P, and the
turn reductions gate the input's verification on the forward branch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from math import sqrt
from typing import Callable, Mapping, Sequence

import numpy as np

from . import qcore
from .dam import DamNodeView, DamProtocol, DamValue
from .errors import ConfigError, ProtocolError, ShapeError, ValidationError
from .network import (
    LEADER,
    PROVER,
    NetworkGraph,
    allocate_layout,
    extend_layout,
    neighbors_agree,
    reg_m,
    reg_v,
    spanning_tree,
    split_register,
    tree_label_replies,
    tree_label_slots,
    tree_labels_hold,
)
from .protocol import (
    Broadcast,
    CoinFlip,
    Measurement,
    NodeAccept,
    ProjectiveCheck,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    ReplySlot,
    Step,
    VerificationPhase,
    VerifierTurn,
    _Executor,
    conditional_step,
    execute_exact,
    register_measurement,
    static_step,
)

# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class CompileReport:
    transform: str
    input_turns: int
    output_turns: int
    message_qubits_per_node: dict
    private_qubits_per_node: dict
    predicted_completeness: float | None = None
    predicted_soundness: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Compiled:
    spec: ProtocolSpec
    honest: ProverStrategy
    report: CompileReport

    @classmethod
    def of(
        cls,
        transform: str,
        input_turns: int,
        spec: ProtocolSpec,
        honest: ProverStrategy,
        completeness: float | None = None,
        soundness: float | None = None,
    ) -> Compiled:
        """``spec`` and ``honest`` with the report of the compile step that made them."""
        report = CompileReport(
            transform=transform,
            input_turns=input_turns,
            output_turns=spec.num_turns,
            message_qubits_per_node=message_accounting(spec),
            private_qubits_per_node=private_accounting(spec),
            predicted_completeness=completeness,
            predicted_soundness=soundness,
        )
        return cls(spec, honest, report)


def halved_completeness(c: float) -> float:
    return (1 + c) / 2


def halved_soundness(s: float) -> float:
    return (1 + sqrt(s)) / 2


def message_accounting(spec: ProtocolSpec) -> dict:
    """Max qubits moved between the prover and each node over all turns."""
    moved = {u: 0 for u in range(spec.graph.node_count)}

    for turn in spec.turns:
        per_turn = {u: 0 for u in moved}
        if isinstance(turn, ProverTurn) and not callable(turn.delivers):
            for reg, node in turn.delivers:
                per_turn[node] += len(spec.layout.expand([reg]))
        elif isinstance(turn, VerifierTurn) and not callable(turn.sends):
            for reg in turn.sends:
                owner = spec.layout.owner(reg)
                if owner != PROVER:
                    per_turn[owner] += len(spec.layout.expand([reg]))
        for u in moved:
            moved[u] = max(moved[u], per_turn[u])
    return moved


def private_accounting(spec: ProtocolSpec) -> dict:
    return {u: spec.layout.size(reg_v(u)) for u in range(spec.graph.node_count)}


# ---------------------------------------------------------------------------
# Clean-spec introspection
# ---------------------------------------------------------------------------


def _require_clean(spec: ProtocolSpec) -> None:
    """Halving-compatible shape: only P/V/M registers, all starting in |0...0>,
    no classical events before verification, fully static turn plumbing."""
    seeded = sorted({reg for regs, _ in spec.initial_factors for reg in regs})
    if seeded:
        raise ShapeError(f"clean specs start in |0...0>, but {spec.name!r} seeds registers {seeded}")
    allowed = {"P"} | {reg_v(u) for u in range(spec.graph.node_count)} | {
        reg_m(u) for u in range(spec.graph.node_count)
    }
    extra = set(spec.layout.names()) - allowed
    if extra:
        raise ShapeError(f"spec has non-canonical registers {sorted(extra)}")
    for turn in spec.turns:
        if isinstance(turn, VerifierTurn):
            if turn.coins or turn.measurements or turn.checks:
                raise ShapeError("clean specs may not use classical events before verification")
            if callable(turn.sends):
                raise ShapeError("clean specs need static sends")
        elif turn.replies or callable(turn.delivers) or callable(turn.acts_on):
            raise ShapeError("clean specs need static prover turns without replies")
    if spec.verification.checks:
        raise ShapeError("clean specs may not use projective checks")


def _vm_regs(u: int) -> list[str]:
    return [reg_v(u), reg_m(u)]


def _require_node_registers(spec: ProtocolSpec, transform: str) -> None:
    """The turn reductions act on every node's (V, M) space, so each node needs both registers."""
    for u in range(spec.graph.node_count):
        for name in _vm_regs(u):
            if not spec.layout.has(name):
                raise ConfigError(f"{transform} needs a {name!r} register, which {spec.name!r} does not have")


def _node_unit(spec: ProtocolSpec, steps: Sequence[Step], u: int) -> np.ndarray:
    """Composite unitary of node ``u``'s static ``steps``, in order, on its (V, M) space."""
    union = spec.layout.expand(_vm_regs(u))
    factors = []
    for step in steps:
        resolved = step.resolve({}) if step.actor == u else None
        if resolved is not None:
            mat, regs = resolved
            factors.append((mat, [union.index(q) for q in spec.layout.expand(regs)]))
    return qcore.circuit_matrix(len(union), factors, f"node {u}'s unit on (V, M) in {spec.name!r}")


def _all_m(spec: ProtocolSpec) -> tuple[str, ...]:
    return tuple(reg_m(u) for u in range(spec.graph.node_count))


def _prover_regs(spec: ProtocolSpec) -> tuple[str, ...]:
    return (("P",) if spec.layout.has("P") else ()) + _all_m(spec)


def _prover_identity(spec: ProtocolSpec) -> np.ndarray:
    """The identity on the prover's registers (P and every M): an idle prover turn's honest gate."""
    return np.eye(2 ** len(spec.layout.expand(_prover_regs(spec))), dtype=np.complex128)


# ---------------------------------------------------------------------------
# Spec rewrites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Rewrite:
    """One rewrite of a clean spec's parts: registers renamed, views translated, firing gated.

    ``regs`` maps a register to the names it becomes (any other keeps its
    name; ``name[i]`` selects qubit i of each); ``suffix`` is appended to
    measurement names; ``view`` turns an output view into the input's view.
    A rewritten step, measurement, resolver, broadcast or accept predicate
    reads the input's view and fires only where ``when(view)`` holds, and a
    ``tag`` wraps each describe as ``{**tag, "inner": describe}``.
    """

    regs: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    suffix: str = ""
    view: Callable[[Mapping], Mapping] = lambda view: view
    when: Callable[[Mapping], bool] = lambda view: True
    tag: dict | None = None

    def names(self, regs: Sequence[str]) -> list[str]:
        out = []
        for reg in regs:
            base, index = split_register(reg)
            out += [name if index is None else f"{name}[{index}]" for name in self.regs.get(base, (base,))]
        return out

    def describe(self, inner: dict) -> dict:
        return inner if self.tag is None else {**self.tag, "inner": inner}

    def resolver(self, resolve: Callable[[Mapping], tuple[np.ndarray, list[str]] | None]) -> Callable:
        """A (matrix, registers) resolver of the input, such as a step's, a check's or an accept projector."""

        def rewritten(view: Mapping):
            found = resolve(self.view(view)) if self.when(view) else None
            return None if found is None else (found[0], self.names(found[1]))

        return rewritten

    def broadcast(self, bc: Broadcast) -> Callable[[Mapping], object]:
        """The message of an input broadcast; None where it does not fire."""
        return lambda view: bc.fn(self.view(view)) if self.when(view) else None

    def predicate(self, accept: NodeAccept) -> Callable[[Mapping], bool]:
        """An input accept's predicate; it holds where it does not fire or the input has none."""
        inner = accept.predicate
        return lambda view: inner is None or not self.when(view) or bool(inner(self.view(view)))

    def step(self, step: Step) -> Step:
        return Step(step.actor, self.resolver(step.resolve), self.describe(step.describe))

    def measurement(self, m: Measurement) -> Measurement:
        return Measurement(
            name=m.name + self.suffix,
            node=m.node,
            resolve_targets=lambda view: self.names(m.resolve_targets(self.view(view))) if self.when(view) else [],
            to_prover=m.to_prover,
            describe=self.describe(m.describe),
        )

    def turn(self, turn: ProverTurn | VerifierTurn) -> ProverTurn | VerifierTurn:
        """A clean spec's turn (static plumbing, no classical events) with its registers and steps rewritten."""
        if isinstance(turn, ProverTurn):
            delivers = tuple((name, node) for reg, node in turn.delivers for name in self.names([reg]))
            return replace(turn, acts_on=tuple(self.names(turn.acts_on)), delivers=delivers)
        return replace(turn, steps=tuple(self.step(s) for s in turn.steps), sends=tuple(self.names(turn.sends)))


# ---------------------------------------------------------------------------
# Classical simulation: dAM -> dQIP
# ---------------------------------------------------------------------------


def dam_to_dqip(dam: DamProtocol, instance: NetworkGraph, value: DamValue) -> Compiled:
    """Quantum simulation of a private-coin dAM protocol.

    Verifier turns store the received certificate with SWAP gates and send
    coin superpositions sum_r |r>|r>; the honest prover moves received coins
    into its register and writes certificates with the reversible xor-update
    |r.., b> -> |r.., b xor c_j>, where the c_j tables are the optimal Merlin
    strategy of ``value``.  Verification measures everything in the
    computational basis, broadcasts, and evaluates the classical predicate,
    so no prover can do better than the best classical Merlin.

    ``value`` is ``dam``'s brute-forced value on ``instance`` (a catalog
    entry's ``yes`` or ``no``); this function reads it and computes none.
    """
    if dam.randomness != "private":
        raise ShapeError("dam_to_dqip simulates private-randomness protocols")
    n = instance.node_count
    m = dam.bits_per_turn
    k = dam.turns
    arthur = dam.arthur_turns()
    merlin = dam.merlin_turns()

    # V-slot table: per Arthur turn, (certificate-store offset | None, coin offset).
    slots: dict[int, tuple[int | None, int]] = {}
    cursor = 0
    for j in arthur:
        store = None
        if j >= 2:
            store = cursor
            cursor += m
        slots[j] = (store, cursor)
        cursor += m
    g = cursor
    p_size = m * n * len(arthur)

    layout = allocate_layout(instance, prover_qubits=p_size, node_private=g, node_message=m)

    turns: list[ProverTurn | VerifierTurn] = []
    honest_gates: dict[int, np.ndarray] = {}
    prover_regs = tuple((["P"] if p_size else []) + [reg_m(u) for u in range(n)])

    for j in range(1, k + 1):
        if j in merlin:
            turns.append(
                ProverTurn(
                    acts_on=prover_regs,
                    delivers=tuple((reg_m(u), u) for u in range(n)),
                )
            )
            honest_gates[j] = _merlin_gate(dam, instance, value.strategy, j, p_size, m, n, arthur)
        else:
            steps = tuple(static_step(u, _arthur_unit(slots[j], g, m), _vm_regs(u)) for u in range(n))
            turns.append(
                VerifierTurn(steps=steps, sends=tuple(reg_m(u) for u in range(n)))
            )

    measurements = []
    for u in range(n):
        if g:
            measurements.append(register_measurement(f"vout:{u}", u, reg_v(u)))
        if k % 2 == 1:
            measurements.append(register_measurement(f"mout:{u}", u, reg_m(u)))

    def transcript_view(u: int, view: Mapping) -> DamNodeView:
        certs: dict[int, int] = {}
        coins: dict[int, int] = {}
        vbits = view.get(f"vout:{u}", 0)
        for j in arthur:
            store, coin = slots[j]
            if store is not None:
                certs[j - 1] = (vbits >> store) & ((1 << m) - 1)
            coins[j] = (vbits >> coin) & ((1 << m) - 1)
        if k % 2 == 1:
            certs[k] = view[f"mout:{u}"]
        return DamNodeView(
            graph=instance,
            node=u,
            label=instance.node_inputs[u],
            certificates=certs,
            coins=coins,
        )

    broadcasts = tuple(
        Broadcast(
            node=u,
            fn=lambda view, _u=u: dam.broadcast(transcript_view(_u, view)),
            describe={"kind": "dam-broadcast", "node": u},
        )
        for u in range(n)
    )
    accepts = tuple(
        NodeAccept(
            node=u,
            projector=None,
            predicate=lambda view, _u=u: dam.predicate(
                transcript_view(_u, view),
                {v: view[f"recv:{v}"] for v in instance.neighbors(_u)},
            ),
            describe={"kind": "dam-predicate", "node": u},
        )
        for u in range(n)
    )

    spec = ProtocolSpec(
        name=f"dqip[{dam.name}]",
        graph=instance,
        layout=layout,
        turns=tuple(turns),
        verification=VerificationPhase(
            measurements=tuple(measurements), broadcasts=broadcasts, accepts=accepts
        ),
        metadata={
            "kind": "dam-simulation",
            "dam": dam.name,
            "message_qubits": m,
            "private_qubits": g,
            "classical_value": float(value.optimal_acceptance),
        },
    )
    honest = ProverStrategy(
        name=f"dam-honest[{dam.name}]",
        gate_fn=lambda turn, view: honest_gates[turn],
    )
    return Compiled.of("dam_to_dqip", k, spec, honest, completeness=float(value.optimal_acceptance))


def _arthur_unit(slot: tuple[int | None, int], g: int, m: int) -> np.ndarray:
    """Store M into the certificate slot, then create sum_r |r>|r> coherently.

    Acts on the node's (V, M) union: V qubits at positions [0, g), M at
    [g, g+m).  Application order: SWAP store, Hadamards on the coin slot,
    CNOT fan-out from the coin slot into M.
    """
    store, coin = slot
    factors = [] if store is None else [(qcore.SWAP, [store + b, g + b]) for b in range(m)]
    for b in range(m):
        factors += [(qcore.H, [coin + b]), (qcore.CNOT, [coin + b, g + b])]
    return qcore.circuit_matrix(g + m, factors, "Arthur unit on (V, M)")


def _merlin_gate(dam, instance, strategy, j, p_size, m, n, arthur) -> np.ndarray:
    """Honest Merlin permutation at turn j on (P, M): store coins, write c_j."""
    mn = m * n
    dim = 2 ** (p_size + mn)
    qcore.check_budget(16 * dim * dim, f"dam_to_dqip Merlin gate of turn {j} on {p_size + mn} qubits")
    mask = (1 << mn) - 1
    prior = [a for a in arthur if a < j]

    def image(idx: int) -> int:
        p_bits = idx & ((1 << p_size) - 1) if p_size else 0
        m_bits = (idx >> p_size) & mask
        if prior:
            # Swap M into the P block of the most recent Arthur turn.
            block = (len(prior) - 1) * mn
            held = (p_bits >> block) & mask
            p_bits = (p_bits & ~(mask << block)) | (m_bits << block)
            m_bits = held
        history = []
        for pos, a in enumerate(prior):
            block_bits = (p_bits >> (pos * mn)) & mask
            history.append(tuple((block_bits >> (m * u)) & ((1 << m) - 1) for u in range(n)))
        certs = strategy[j][tuple(history)]
        for u in range(n):
            m_bits ^= certs[u] << (m * u)
        return (m_bits << p_size) | p_bits

    return qcore._permutation_matrix(p_size + mn, image)


# ---------------------------------------------------------------------------
# Turn padding
# ---------------------------------------------------------------------------


def pad_to_turns(spec: ProtocolSpec, honest: ProverStrategy, target: int) -> Compiled:
    """Append idle (verifier, prover) turn pairs, whose honest gate is the identity; the value is unchanged."""
    _require_clean(spec)
    k = spec.num_turns
    if target < k or (target - k) % 2 != 0:
        raise ShapeError(f"cannot pad {k} turns to {target}")
    if not isinstance(spec.turns[-1], ProverTurn):
        raise ShapeError("padding expects a protocol ending with a prover turn")
    idle_pair = (
        VerifierTurn(sends=_all_m(spec)),
        ProverTurn(acts_on=_prover_regs(spec), delivers=tuple((reg_m(u), u) for u in range(spec.graph.node_count))),
    )
    turns = spec.turns + idle_pair * ((target - k) // 2)
    idle = _prover_identity(spec)
    appended = {i: idle for i, turn in enumerate(turns[k:], k + 1) if isinstance(turn, ProverTurn)}

    def gate(turn_index: int, view: Mapping) -> np.ndarray:
        return appended[turn_index] if turn_index in appended else honest.gate_fn(turn_index, view)

    padded = replace(
        spec, name=f"{spec.name}+pad{target}", turns=turns, metadata=dict(spec.metadata, padded_to=target)
    )
    return Compiled.of("pad_to_turns", k, padded, ProverStrategy(f"{honest.name}+pad", gate))


# ---------------------------------------------------------------------------
# Turn reductions: one snapshot-and-branch schedule, three branch sources
# ---------------------------------------------------------------------------

_FOUR_L_PLUS_ONE = ("4l+1 turns with l >= 1", lambda k: k >= 5 and k % 4 == 1)
_SEVEN = ("exactly 7 turns", lambda k: k == 7)


def coin_reg(u: int) -> str:
    return f"C:{u}"


@dataclass
class _Branch:
    """How the nodes of a turn reduction learn the branch bit (0 forward, 1 backward).

    ``key(u)`` names the classical variable holding node u's bit in the
    verification phase.  Without ``control`` the bit is classical before the
    first pair turn and node steps are conditional on ``key(u)``; with it,
    node u holds the bit in the qubit ``control(u)`` until the verification
    measures it, and every branch-dependent node step is controlled on that
    qubit.  ``gate(pair, view)`` makes the honest prover gate of a pair turn
    from its (forward, backward) matrices on (``holds``, P, M).  ``first``
    adds coins or reply slots to the first pair turn; ``prelude`` turns run
    between the snapshot and the pairs, and ``prelude_gates`` are the honest
    gates of its prover turns.  Node u broadcasts its value
    ``view[f"{field}:{u}"]`` of each ``bundle`` field next to the input's
    broadcast under ``"inner"``, and rejects unless ``check(u, view,
    received)`` holds on its neighbors' bundles.
    """

    tag: str
    metadata: dict
    key: Callable[[int], str]
    gate: Callable[[tuple[np.ndarray, np.ndarray], Mapping], np.ndarray]
    kinds: tuple[str, str]  # describe kinds of the bundle broadcast and of the accept
    control: Callable[[int], str] | None = None
    holds: tuple[str, ...] = ()
    first: dict = field(default_factory=dict)
    replies: tuple[ReplySlot, ...] = ()  # turn-1 reply slots
    reply: Callable[[str, Mapping], int] | None = None
    prelude: tuple[ProverTurn | VerifierTurn, ...] = ()
    prelude_gates: tuple[np.ndarray, ...] = ()
    extras: tuple[tuple[str, int, int], ...] = ()  # added registers: (name, size, owner)
    measurements: tuple[Measurement, ...] = ()
    bundle: tuple[str, ...] = ()
    check: Callable[[int, Mapping, dict], bool] = lambda u, view, received: True


def _inner_bundles(view: Mapping) -> dict:
    """A turn reduction's view as its input's: each received bundle is replaced by its ``"inner"`` entry."""
    return {key: val["inner"] if key.startswith("recv:") else val for key, val in view.items()}


class _Halving:
    """The snapshot-and-branch schedule behind the three turn reductions.

    The honest prover delivers the state after the middle verifier turn
    m = 2*floor((k-1)/4) + 2.  A branch bit then picks, at every node, the
    forward tail P_{m+1}, V_{m+2}, ..., P_k (bit 0, ending in the input's
    verification) or the backward head V_m^-1, P_{m-1}^-1, ..., P_3^-1 (bit 1,
    ending in V_2^-1 and the all-zero check of every V register).  The two
    sequences are paired from their ends, so the longer one overhangs at the
    start against an idle branch, and each pair is one output turn.  The
    honest turn-1 gate (``snapshot``) is a :class:`~dqip.qcore.FactoredOp`
    of the input's node units and prover gates through turn m, in order, so
    no operator on every qubit is built.
    """

    def __init__(
        self, spec: ProtocolSpec, honest: ProverStrategy, transform: str, shape: tuple[str, Callable[[int], bool]]
    ) -> None:
        _require_clean(spec)
        _require_node_registers(spec, transform)
        (form, fits), k = shape, spec.num_turns
        if not fits(k):
            raise ShapeError(f"{transform} needs {form}, got {k}")
        self.spec, self.honest, self.transform = spec, honest, transform
        self.n = n = spec.graph.node_count
        # Honest tables: node units on (V, M) and dense prover gates, by input turn.
        self.units = {
            (i, u): _node_unit(spec, t.steps, u)
            for i, t in enumerate(spec.turns, 1)
            if isinstance(t, VerifierTurn)
            for u in range(n)
        }
        self.gates = {
            i: qcore.dense_matrix(honest.gate_fn(i, {}))
            for i, t in enumerate(spec.turns, 1)
            if isinstance(t, ProverTurn)
        }
        mid = 2 * ((k - 1) // 4) + 2
        forward, backward = list(range(mid + 1, k + 1)), list(range(mid, 2, -1))
        width = max(len(forward), len(backward))  # the shorter side idles at the start
        self.pairs = list(zip([None] * (width - len(forward)) + forward, [None] * (width - len(backward)) + backward))
        self.snapshot = self._fold(mid)

    def _fold(self, upto: int) -> qcore.FactoredOp:
        """The honest evolution through turn ``upto``, as its node units and prover gates in order."""
        layout = self.spec.layout
        factors = []
        for i, turn in enumerate(self.spec.turns[:upto], 1):
            if isinstance(turn, ProverTurn):
                factors.append((self.gates[i], layout.expand(turn.acts_on)))
            else:
                factors += [(self.units[i, u], layout.expand(_vm_regs(u))) for u in range(self.n)]
        return qcore.FactoredOp(layout.total_qubits, factors)

    def _node_step(self, b: _Branch, u: int, fwd: np.ndarray | None, bwd: np.ndarray | None) -> Step:
        """Node u runs ``fwd`` on branch 0 and ``bwd`` on branch 1; None idles."""
        vm = _vm_regs(u)
        if b.control is None:
            table = {(0,): None if fwd is None else (fwd, vm), (1,): None if bwd is None else (bwd, vm)}
            return conditional_step(u, [b.key(u)], table)
        idle = np.eye((bwd if fwd is None else fwd).shape[0], dtype=np.complex128)
        pair = qcore.controlled(idle if fwd is None else fwd, idle if bwd is None else bwd)
        return static_step(u, pair, [b.control(u)] + vm)

    def _turns(self, b: _Branch) -> tuple[list[ProverTurn | VerifierTurn], dict, dict]:
        """The output turns; by turn number, the honest gates of turn 1 and of the prelude's
        prover turns, and the (forward, backward) prover matrices of each prover pair turn."""
        spec, n = self.spec, self.n
        deliver_m = tuple((reg_m(u), u) for u in range(n))
        # Nodes get their M back with the snapshot when the first pair turn is theirs.
        nodes_first = (self.pairs[0][0] or self.pairs[0][1]) not in self.gates
        turns: list[ProverTurn | VerifierTurn] = [
            ProverTurn(
                acts_on=tuple(spec.layout.names()),
                delivers=tuple((reg_v(u), u) for u in range(n)) + (deliver_m if nodes_first else ()),
                replies=b.replies,
            ),
            *b.prelude,
        ]
        provers = [i for i, turn in enumerate(turns, 1) if isinstance(turn, ProverTurn)]  # turn 1, then the prelude's
        fixed = dict(zip(provers, (self.snapshot, *b.prelude_gates)))
        idle = _prover_identity(spec)
        pair_gates = {}
        for i, (fwd, bwd) in enumerate(self.pairs):
            extra = b.first if i == 0 else {}
            if (fwd or bwd) in self.gates:
                turns.append(ProverTurn(acts_on=b.holds + _prover_regs(spec), delivers=deliver_m, **extra))
                pair_gates[len(turns)] = (
                    idle if fwd is None else self.gates[fwd],
                    idle if bwd is None else self.gates[bwd].conj().T,
                )
                continue
            steps = tuple(
                self._node_step(
                    b,
                    u,
                    None if fwd is None else self.units[fwd, u],
                    None if bwd is None else self.units[bwd, u].conj().T,
                )
                for u in range(n)
            )
            turns.append(VerifierTurn(steps=steps, sends=_all_m(spec), **extra))
        return turns, fixed, pair_gates

    def _verification(self, b: _Branch) -> VerificationPhase:
        """Forward: the input's verification, gated; backward: V_2^-1 and the all-zero V check."""
        spec, n = self.spec, self.n
        # The input's verification runs on the forward branch only, on views whose bundles are the input's.
        forward = {
            u: _Rewrite(view=_inner_bundles, when=lambda view, _u=u: view[b.key(_u)] == 0, tag={"kind": "branch-gated"})
            for u in range(n)
        }
        ver = spec.verification
        if b.control is None:
            steps = [forward[s.actor].step(s) for s in ver.steps]
        else:  # the bit is still a qubit while the steps run, so they are controlled on it
            steps = [
                self._node_step(b, s.actor, _node_unit(spec, [s], s.actor), None)
                for s in ver.steps
                if s.resolve({}) is not None
            ]
        steps += [self._node_step(b, u, None, self.units[2, u].conj().T) for u in range(n)]
        measurements = b.measurements + tuple(forward[m.node].measurement(m) for m in ver.measurements)

        sends = {bc.node: forward[bc.node].broadcast(bc) for bc in ver.broadcasts}
        broadcasts = tuple(
            Broadcast(
                node=u,
                fn=lambda view, _u=u: {
                    **{f: view[f"{f}:{_u}"] for f in b.bundle},
                    "inner": sends[_u](view) if _u in sends else None,
                },
                describe={"kind": b.kinds[0], "node": u},
            )
            for u in range(n)
        )

        inner = {a.node: a for a in ver.accepts}
        holds = {u: forward[u].predicate(a) for u, a in inner.items()}
        resolves = {u: forward[u].resolver(a.projector) for u, a in inner.items() if a.projector is not None}
        zeros = {u: qcore.basis_projector(spec.layout.size(reg_v(u))) for u in range(n)}

        def predicate(view: Mapping, u: int) -> bool:
            received = {v: view[f"recv:{v}"] for v in spec.graph.neighbors(u)}
            return b.check(u, view, received) and (u not in holds or holds[u](view))

        def projector(view: Mapping, u: int):
            if view[b.key(u)] == 1:
                return zeros[u], [reg_v(u)]
            return resolves[u](view) if u in resolves else None

        accepts = tuple(
            NodeAccept(
                node=u,
                projector=lambda view, _u=u: projector(view, _u),
                predicate=lambda view, _u=u: predicate(view, _u),
                describe={"kind": b.kinds[1], "node": u},
            )
            for u in range(n)
        )
        return VerificationPhase(steps=tuple(steps), measurements=measurements, broadcasts=broadcasts, accepts=accepts)

    def build(self, b: _Branch, completeness: float | None, soundness: float | None) -> Compiled:
        spec = self.spec
        turns, fixed, pair_gates = self._turns(b)
        out = ProtocolSpec(
            name=f"{b.tag}[{spec.name}]",
            graph=spec.graph,
            layout=extend_layout(spec.graph, spec.layout, b.extras, owners={reg_v(u): PROVER for u in range(self.n)}),
            turns=tuple(turns),
            verification=self._verification(b),
            metadata=dict(spec.metadata, **b.metadata),
        )

        def gate(turn_index: int, view: Mapping) -> np.ndarray | qcore.FactoredOp:
            return fixed[turn_index] if turn_index in fixed else b.gate(pair_gates[turn_index], view)

        honest = ProverStrategy(f"{b.tag}[{self.honest.name}]", gate, b.reply)
        c = None if completeness is None else halved_completeness(float(completeness))
        s = None if soundness is None else halved_soundness(float(soundness))
        return Compiled.of(self.transform, spec.num_turns, out, honest, c, s)


def halve_turns_shared(
    spec: ProtocolSpec,
    honest: ProverStrategy,
    completeness: float | None = None,
    soundness: float | None = None,
) -> Compiled:
    """(4l+1)-turn protocol -> (2l+1)-turn protocol with one shared coin.

    Turn 1 delivers the snapshot of the honest state through verifier turn
    2l+2; turn 2 flips the shared coin r, which every node and the prover
    read directly.  r=0 simulates the remaining turns forward and ends in the
    original verification; r=1 un-simulates the first half and ends in the
    all-zero check of every V register.
    """
    halving = _Halving(spec, honest, "halve_turns_shared", _FOUR_L_PLUS_ONE)
    branch = _Branch(
        tag="halved-sh",
        metadata={"halved": "shared"},
        key=lambda u: "r",
        gate=lambda pair, view: pair[view["r"]],
        kinds=("shared-bundle", "halved-accept"),
        first={"coins": (CoinFlip("r", 2, owner=None),)},
    )
    return halving.build(branch, completeness, soundness)


def seven_to_five(
    spec: ProtocolSpec,
    honest: ProverStrategy,
    completeness: float | None = None,
    soundness: float | None = None,
) -> Compiled:
    """7-turn protocol -> 5-turn protocol with a leader coin and prover echo.

    Turn 1 delivers the private registers of the honest mid-state (the state
    after verifier turn 4); the leader flips b; the prover echoes one bit to
    every node and the branches simulate the tail forward (b=0, original
    verification) or the head backward (b=1, all-zero check on the private
    registers).  Neighbors cross-check the echoed bits and the leader checks
    its own echo against the coin, so a prover who answers inconsistently,
    or differently from the coin, is rejected outright.
    """
    halving = _Halving(spec, honest, "seven_to_five", _SEVEN)
    n, bundle = halving.n, ("becho", "leader")

    def check(u: int, view: Mapping, received: dict) -> bool:
        anchor = {"becho": view["b"], "leader": LEADER} if u == LEADER else None
        return neighbors_agree(u, bundle, view, received, anchor)

    branch = _Branch(
        tag="5turn",
        metadata={"reduced": "7to5"},
        key=lambda u: f"becho:{u}",
        gate=lambda pair, view: pair[view["b"]],
        kinds=("echo-bundle", "seven-to-five-accept"),
        first={"replies": tuple(ReplySlot(f"becho:{u}", 2, audience=(u,)) for u in range(n))},
        replies=tuple(ReplySlot(f"leader:{u}", n, audience=(u,)) for u in range(n)),
        reply=lambda slot, view: view["b"] if slot.startswith("becho:") else LEADER,
        prelude=(VerifierTurn(coins=(CoinFlip("b", 2, owner=LEADER),)),),
        bundle=bundle,
        check=check,
    )
    return halving.build(branch, completeness, soundness)


def halve_turns_private(
    spec: ProtocolSpec,
    honest: ProverStrategy,
    completeness: float | None = None,
    soundness: float | None = None,
) -> Compiled:
    """(4l+1)-turn protocol -> (2l+3)-turn protocol with private coins only.

    The shared coin of the halved protocol is replaced by a root Bell pair
    fanned out by the prover into (|0^n> + |1^n>)/sqrt(2): the root keeps one
    half, the prover keeps a copy, every other node receives one qubit.  The
    verification measures each node's coin qubit, cross-checks the value with
    every neighbor, verifies prover-supplied spanning-tree labels, and then
    branches forward/backward exactly as in the shared-coin construction.
    """
    halving = _Halving(spec, honest, "halve_turns_private", _FOUR_L_PLUS_ONE)
    n = halving.n
    p_size = spec.layout.size("P")
    others = [u for u in range(n) if u != LEADER]
    prelude = (
        VerifierTurn(
            steps=(
                static_step(LEADER, qcore.H, [coin_reg(LEADER)]),
                static_step(LEADER, qcore.CNOT, [coin_reg(LEADER), "CP"]),
            ),
            sends=("CP",),
        ),
        # Its honest gate fans CP, right after P, out onto the other nodes' coin qubits.
        ProverTurn(
            acts_on=(("P",) if p_size else ()) + ("CP",) + tuple(coin_reg(u) for u in others),
            delivers=tuple((coin_reg(u), u) for u in others),
        ),
    )
    labels = tree_label_replies(spanning_tree(spec.graph, LEADER))

    def check(u: int, view: Mapping, received: dict) -> bool:
        return neighbors_agree(u, ("coin",), view, received) and tree_labels_hold(spec.graph, LEADER, u, view, received)

    branch = _Branch(
        tag="halved-p",
        metadata={"halved": "private"},
        key=lambda u: f"coin:{u}",
        gate=lambda pair, view: qcore.controlled(*pair),
        kinds=("coin-bundle", "private-halved-accept"),
        control=coin_reg,
        holds=("CP",),
        replies=tree_label_slots(spec.graph),
        reply=lambda slot, view: labels[slot],
        prelude=prelude,
        prelude_gates=(qcore.cnot_fanout(p_size, n),),
        extras=tuple((coin_reg(u), 1, LEADER if u == LEADER else PROVER) for u in range(n)) + (("CP", 1, LEADER),),
        measurements=tuple(
            register_measurement(f"coin:{u}", u, coin_reg(u), {"kind": "coin-measurement", "node": u}) for u in range(n)
        ),
        bundle=("coin", "leader", "parent", "dist"),
        check=check,
    )
    return halving.build(branch, completeness, soundness)


# ---------------------------------------------------------------------------
# Perfect completeness
# ---------------------------------------------------------------------------


def _require_coherent(spec: ProtocolSpec) -> None:
    """Perfect-completeness inputs: one coherent branch, canonical accepts."""
    _require_clean(spec)
    ver = spec.verification
    if ver.measurements or ver.checks or ver.broadcasts:
        raise ShapeError("perfect completeness needs a coherent verification phase")
    for accept in ver.accepts:
        if accept.describe.get("kind") != "first-qubit-zero":
            raise ShapeError("perfect completeness needs first-V-qubit accept projectors")


def _basis_completion(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Unitary whose first columns are the given orthonormal vectors."""
    cols = np.zeros((dim, dim), dtype=np.complex128)
    count = len(vectors)
    for j, v in enumerate(vectors):
        cols[:, j] = v
    for i in range(dim):
        if count == dim:
            break
        # Classical Gram-Schmidt of e_i: subtract sum_c c <c, e_i> = C conj(C[i]).
        w = -(cols[:, :count] @ cols[i, :count].conj())
        w[i] += 1.0
        norm = np.linalg.norm(w)
        if norm > 1e-7:
            cols[:, count] = w / norm
            count += 1
    return cols[:, :count]


def _or_fanout_permutation(p_total: int, p_in: int, n: int) -> np.ndarray:
    """Permutation on (P, out): write OR(out) into every out qubit.

    The input patterns with zeroed ancilla (P[p_in .. p_in + n)) map as
    (x, 0) -> (OR^n, x) with x itself stored in the ancilla as the
    disambiguating junk; everything else is completed greedily into an
    arbitrary bijection.
    """
    total_bits = p_total + n
    dim = 2**total_bits
    qcore.check_budget(16 * dim * dim, f"perfect_completeness OR fan-out on {total_bits} qubits")
    ones = (1 << n) - 1
    mapping: dict[int, int] = {}
    for idx in range(dim):
        x = idx >> p_total  # the out qubits are the top n
        low = idx & ((1 << p_total) - 1)
        if (low >> p_in) & ones == 0:
            mapping[idx] = low | (x << p_in) | (ones << p_total) if x else idx
    used = set(mapping.values())
    free_targets = iter(t for t in range(dim) if t not in used)
    # Called in index order, so the free targets fill the other inputs greedily.
    return qcore._permutation_matrix(total_bits, lambda idx: mapping[idx] if idx in mapping else next(free_targets))


def perfect_completeness(
    spec: ProtocolSpec,
    honest: ProverStrategy,
    c: float | None = None,
    soundness: float | None = None,
) -> Compiled:
    """Append four turns that rotate the honest accept amplitude onto |0>.

    The original protocol runs coherently; each node copies its output qubit
    into a fresh register and round-trips it through the prover, who returns
    the global verdict to every node.  Nodes verify the returned verdicts
    agree across edges and never contradict their own retained output; the
    leader counts the verdict into two marker qubits, hands one to the
    prover along with everything else, and finally interferes the returned
    marker against the retained one through the acceptance rotation with
    parameter ``c``.  With c equal to the honest acceptance the |0> outcome
    has probability exactly 1.
    """
    _require_coherent(spec)
    if c is None:
        c = execute_exact(spec, honest).acceptance_probability
    c = float(c)
    if not 0.0 < c <= 1.0:
        raise ValidationError(f"completeness parameter {c!r} outside (0, 1]")

    k = spec.num_turns
    n = spec.graph.node_count
    p_in = spec.layout.size("P")
    p_total = p_in + n  # ancilla workspace for the verdict fan-out

    extras = [(f"out:{u}", 1, u) for u in range(n)] + [("B", 1, LEADER), ("B2", 1, LEADER)]
    layout = extend_layout(spec.graph, spec.layout, extras, p_size=p_total)

    # The input's prover memory is the first p_in qubits of the wider P.
    widened = _Rewrite(regs={"P": tuple(f"P[{i}]" for i in range(p_in))})
    turns = [widened.turn(turn) for turn in spec.turns]

    out_regs = tuple(f"out:{u}" for u in range(n))
    copy_steps = tuple(
        static_step(u, qcore.CNOT, [f"V:{u}[0]", f"out:{u}"]) for u in range(n)
    )
    turns.append(
        VerifierTurn(
            steps=tuple(spec.verification.steps) + copy_steps,
            sends=out_regs,
        )
    )

    turns.append(
        ProverTurn(
            acts_on=("P",) + out_regs,
            delivers=tuple((f"out:{u}", u) for u in range(n)),
        )
    )
    # The honest gates of the appended prover turns, by position: the OR fan-out here, the uncompute gate last.
    appended = {len(turns): _or_fanout_permutation(p_total, p_in, n)}

    parity_odd = np.diag([0.0, 1.0, 1.0, 0.0]).astype(np.complex128)
    bad_state = qcore.basis_projector(2, 1)  # retained output 1 while returned verdict reads 0
    checks = tuple(
        ProjectiveCheck(
            name=f"parity:{a}:{b}",
            nodes=(a, b),
            resolve=lambda view, _a=a, _b=b: (parity_odd, [f"out:{_a}", f"out:{_b}"]),
            describe={"kind": "verdict-parity", "edge": [a, b]},
        )
        for a, b in sorted(spec.graph.edges)
    ) + tuple(
        ProjectiveCheck(
            name=f"bad:{u}",
            nodes=(u,),
            resolve=lambda view, _u=u: (bad_state, [f"V:{_u}[0]", f"out:{_u}"]),
            describe={"kind": "verdict-contradiction", "node": u},
        )
        for u in range(n)
    )
    hand_over = tuple(reg_v(u) for u in range(n)) + tuple(
        reg_m(u) for u in range(n) if layout.has(reg_m(u))
    ) + out_regs + ("B",)
    turns.append(
        VerifierTurn(
            steps=(
                static_step(LEADER, qcore.CNOT, [f"out:{LEADER}", "B"]),
                static_step(LEADER, qcore.CNOT, [f"out:{LEADER}", "B2"]),
            ),
            checks=checks,
            sends=hand_over,
        )
    )

    held_regs = tuple(name for name in layout.names() if name != "B2")
    turns.append(ProverTurn(acts_on=held_regs, delivers=(("B", LEADER),)))

    # A node rejects when a check it takes part in fires.
    fired = {u: [check.name for check in checks if u in check.nodes] for u in range(n)}
    accept_pair = qcore.basis_projector(2)
    accepts = tuple(
        NodeAccept(
            node=u,
            projector=(lambda view: (accept_pair, ["B", "B2"])) if u == LEADER else None,
            predicate=lambda view, _u=u: not any(view.get(name, 0) for name in fired[_u]),
            describe={"kind": "perfected-accept", "node": u},
        )
        for u in range(n)
    )

    out = ProtocolSpec(
        name=f"perfect[{spec.name}]",
        graph=spec.graph,
        layout=layout,
        turns=tuple(turns),
        verification=VerificationPhase(
            steps=(
                static_step(LEADER, qcore.CNOT, ["B", "B2"]),
                static_step(LEADER, qcore.acceptance_rotation(c), ["B"]),
            ),
            accepts=accepts,
        ),
        allow_node_exchange=True,
        metadata=dict(spec.metadata, perfected_with_c=c),
    )

    def gate(turn_index: int, view: Mapping) -> np.ndarray:
        return appended[turn_index] if turn_index in appended else honest.gate_fn(turn_index, view)

    # Honest re-coherence gate: replay every turn before the last and map the
    # two verdict branches onto the all-zero state tagged by the marker B.
    honest_out = ProverStrategy(f"perfect[{honest.name}]", gate)
    appended[len(turns)] = _uncompute_gate(out, honest_out, held_regs)
    delta = None if soundness is None else c - float(soundness)
    return Compiled.of("perfect_completeness", k, out, honest_out, 1.0, None if delta is None else 1 - delta**2)


def _uncompute_gate(out_spec: ProtocolSpec, honest: ProverStrategy, held_regs) -> np.ndarray:
    """The last turn's honest gate, from a replay of every turn before it with ``honest``."""
    held = out_spec.layout.expand(held_regs)
    dim = 2 ** len(held)
    # Two basis completions and their product, each dim x dim, before the replay.
    what = f"perfect_completeness uncompute gate of {out_spec.name!r} on {len(held)} held qubits"
    qcore.check_budget(3 * 16 * dim * dim, what)
    partial = replace(out_spec, name="partial", turns=out_spec.turns[:-1], verification=VerificationPhase())
    leaves = _Executor(partial, honest).leaves()
    live = [b for b, _ in leaves if float(np.vdot(b.vec, b.vec).real) > 1e-18]
    if len(live) != 1:
        raise ProtocolError(f"honest replay produced {len(live)} live branches, expected 1")
    vec = live[0].vec

    block = qcore._keep_block(vec, held)  # columns indexed by the B2 bit
    pos_b = held.index(out_spec.layout.qubits("B")[0])

    sources, targets = [], []
    for b in range(2):
        phi = block[:, b]
        norm = np.linalg.norm(phi)
        if norm < 1e-9:
            continue
        sources.append(phi / norm)
        target = np.zeros(dim, dtype=np.complex128)
        target[b << pos_b] = 1.0
        targets.append(target)
    a_mat = _basis_completion(sources, dim)
    t_mat = _basis_completion(targets, dim)
    return t_mat @ a_mat.conj().T


# ---------------------------------------------------------------------------
# Parallel repetition
# ---------------------------------------------------------------------------


def _copy(spec: ProtocolSpec, i: int) -> _Rewrite:
    """Copy ``i`` of a parallel repetition of ``spec``.

    Every register but the shared P, and every measurement, gets the suffix
    ``:r{i}``; a view keeps the copy's suffixed values, unsuffixed, and the
    copy's entry of each received bundle.
    """
    suffix = f":r{i}"

    def view(outer: Mapping) -> dict:
        inner = {}
        for key, val in outer.items():
            if key.startswith("recv:"):
                inner[key] = None if val is None else val[i]
            elif key.endswith(suffix):
                inner[key[: -len(suffix)]] = val
        return inner

    regs = {name: (name + suffix,) for name in spec.layout.names() if name != "P"}
    return _Rewrite(regs=regs, suffix=suffix, view=view, tag={"kind": "copy", "copy": i})


def parallel_repeat(spec: ProtocolSpec, honest: ProverStrategy, t: int, mode: str = "AND") -> Compiled:
    """Run ``t`` tensor copies sharing one prover register.

    AND mode accepts iff every copy accepts (projectors compose, coherently);
    majority mode measures each copy's accept condition and each node takes
    the majority of its own per-copy outcomes.
    """
    _require_clean(spec)
    if t < 1:
        raise ValidationError("parallel_repeat needs t >= 1")
    if mode not in ("AND", "majority"):
        raise ValidationError(f"unknown repetition mode {mode!r}")
    n = spec.graph.node_count
    p_in = spec.layout.size("P")
    copies = [_copy(spec, i) for i in range(t)]
    extras = [
        (copy.names([reg])[0], spec.layout.size(reg), owner)
        for copy in copies
        for u in range(n)
        for reg, owner in ((reg_v(u), u), (reg_m(u), PROVER))
    ]
    layout = allocate_layout(spec.graph, prover_qubits=p_in * t, extras=extras)

    turns: list[ProverTurn | VerifierTurn] = []
    prover_acts: dict[int, tuple[tuple, tuple]] = {}  # (input, output) acts_on of each prover turn
    for position, turn in enumerate(spec.turns, 1):
        parts = [copy.turn(turn) for copy in copies]
        if isinstance(turn, ProverTurn):
            acts = (("P",) if p_in else ()) + tuple(r for part in parts for r in part.acts_on if r != "P")
            prover_acts[position] = (tuple(turn.acts_on), acts)
            delivers = tuple(d for part in parts for d in part.delivers)
            turns.append(replace(turn, acts_on=acts, delivers=delivers))
        else:
            steps = tuple(s for part in parts for s in part.steps)
            turns.append(replace(turn, steps=steps, sends=tuple(r for part in parts for r in part.sends)))

    ver = spec.verification
    steps = tuple(copy.step(s) for copy in copies for s in ver.steps)
    measurements = tuple(copy.measurement(m) for copy in copies for m in ver.measurements)
    sends = {bc.node: [copy.broadcast(bc) for copy in copies] for bc in ver.broadcasts}
    broadcasts = tuple(
        Broadcast(
            node=u,
            fn=lambda view, _u=u: tuple(send(view) for send in sends[_u]),
            describe={"kind": "copy-bundle", "node": u},
        )
        for u in sorted(sends)
    )

    inner = {a.node: a for a in ver.accepts}
    # Each node's accept predicate and projector in every copy, on the output view.
    holds = {u: [copy.predicate(a) for copy in copies] for u, a in inner.items()}
    resolves = {u: [copy.resolver(a.projector) for copy in copies] for u, a in inner.items() if a.projector is not None}
    accepts = []
    checks: list[ProjectiveCheck] = []

    if mode == "AND":
        for u in sorted(inner):
            def projector(view, _u=u):
                parts = [p for p in (resolve(view) for resolve in resolves.get(_u, ())) if p is not None]
                if not parts:
                    return None
                union = [reg for _, regs in parts for reg in regs]
                qubits = layout.expand(union)
                factors = [(m, [qubits.index(q) for q in layout.expand(r)]) for m, r in parts]
                return qcore.circuit_matrix(len(qubits), factors, f"AND accept projector of node {_u}"), union

            accepts.append(NodeAccept(node=u, projector=projector,
                                      predicate=lambda view, _u=u: all(h(view) for h in holds[_u]),
                                      describe={"kind": "and-accept", "node": u}))
    else:
        for u in sorted(inner):
            for i, resolve in enumerate(resolves.get(u, ())):
                checks.append(
                    ProjectiveCheck(
                        name=f"acc:{u}:r{i}",
                        nodes=(u,),
                        resolve=resolve,
                        describe={"kind": "copy-accept", "node": u, "copy": i},
                    )
                )

            def predicate(view, _u=u):
                good = sum(view.get(f"acc:{_u}:r{i}", 1) == 1 and held(view) for i, held in enumerate(holds[_u]))
                return good > t / 2

            accepts.append(NodeAccept(node=u, projector=None, predicate=predicate,
                                      describe={"kind": "majority-accept", "node": u}))

    out = ProtocolSpec(
        name=f"repeat{t}-{mode}[{spec.name}]",
        graph=spec.graph,
        layout=layout,
        turns=tuple(turns),
        verification=VerificationPhase(
            steps=steps,
            measurements=measurements,
            checks=tuple(checks),
            broadcasts=broadcasts,
            accepts=tuple(accepts),
        ),
        metadata=dict(spec.metadata, repeated=t, repeat_mode=mode),
    )

    def gate(turn_index: int, view: Mapping) -> qcore.FactoredOp:
        # Copy i's honest gate acts on its own block of P and its own messages.
        inner_acts, acts = prover_acts[turn_index]
        per_copy_m = sum(spec.layout.size(r) for r in inner_acts if r != "P")
        inner_gate = qcore.dense_matrix(honest.gate_fn(turn_index, view))
        factors = []
        for i in range(t):
            offset = p_in * t + i * per_copy_m
            positions = list(range(i * p_in, (i + 1) * p_in)) + list(range(offset, offset + per_copy_m))
            factors.append((inner_gate, positions))
        return qcore.FactoredOp(len(layout.expand(acts)), factors)

    return Compiled.of("parallel_repeat", spec.num_turns, out, ProverStrategy(f"repeat[{honest.name}]", gate))
