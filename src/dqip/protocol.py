"""Turn scripts and their exact / sampled execution.

A protocol is an alternating list of prover and verifier turns followed by a
single verification phase.  Quantum registers move between actors only at
turn boundaries; the executor tracks ownership per branch and rejects any
gate that touches a register its actor does not currently hold.

Classical data (coin flips by nodes, classical replies by the prover,
measurement outcomes) lives in a per-branch transcript with explicit
visibility: a node's gates and predicates can only read variables that node
has seen.  Exact execution averages over coin values by branching, keeps
measurement branches unnormalized (their squared norms carry the Born
weights), and sums ``weight * ||accept-projected vector||^2 * predicate``
over leaves.  Before a coin, measurement or check branches, the executor
checks that the parent and child state vectors together fit
``qcore.MAX_DENSE_BYTES`` and raises :class:`~dqip.errors.CapacityError`
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import qcore
from .errors import LayoutError, ProtocolError, ValidationError
from .network import PROVER, NetworkGraph, RegisterLayout
from .qcore import (
    SWAP,
    FactoredOp,
    apply_matrix_vec,
    apply_op,
    check_projector,
    outcome_weights,
    project_outcome,
    reduced_density_from_vec,
)
from .seeding import substream

PRUNE_TOL = 1e-24  # squared-norm threshold for dropping dead branches


# ---------------------------------------------------------------------------
# Classical events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinFlip:
    """Uniform classical randomness generated by the verifier.

    ``owner`` is the flipping node; ``None`` means shared randomness visible
    to every node.  The value is always sent to the prover.
    """

    name: str
    num_values: int
    owner: int | None = None


@dataclass(frozen=True)
class ReplySlot:
    """A classical value announced by the prover, learned by ``audience``."""

    name: str
    num_values: int
    audience: tuple[int, ...]


@dataclass(frozen=True)
class Step:
    """One local unitary: ``resolve(view)`` yields (matrix, registers) or None."""

    actor: int
    resolve: Callable[[Mapping], tuple[np.ndarray, list[str]] | None]
    describe: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Measurement:
    """Computational-basis measurement of node-held registers.

    ``resolve_targets(view)`` returns the register names to measure (empty
    list skips).  Outcome bit ``j`` is the j-th qubit of the expanded target
    list.  The outcome is visible to the node and, if ``to_prover``, to the
    prover.
    """

    name: str
    node: int
    resolve_targets: Callable[[Mapping], list[str]]
    to_prover: bool = False
    describe: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProjectiveCheck:
    """Two-outcome projective measurement, possibly spanning several nodes.

    ``resolve(view)`` returns (projector onto outcome 1, registers) or None.
    Cross-node checks require the protocol to allow node-to-node
    communication in mid-interaction.
    """

    name: str
    nodes: tuple[int, ...]
    resolve: Callable[[Mapping], tuple[np.ndarray, list[str]] | None]
    describe: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Turns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProverTurn:
    index: int
    acts_on: Callable[[Mapping], list[str]] | tuple[str, ...]
    delivers: Callable[[Mapping], list[tuple[str, int]]] | tuple[tuple[str, int], ...] = ()
    replies: tuple[ReplySlot, ...] = ()


@dataclass(frozen=True)
class VerifierTurn:
    index: int
    coins: tuple[CoinFlip, ...] = ()
    steps: tuple[Step, ...] = ()
    measurements: tuple[Measurement, ...] = ()
    checks: tuple[ProjectiveCheck, ...] = ()
    sends: Callable[[Mapping], list[str]] | tuple[str, ...] = ()


@dataclass(frozen=True)
class Broadcast:
    """Verification-phase classical message from a node to its neighbors."""

    node: int
    fn: Callable[[Mapping], object]
    describe: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NodeAccept:
    """Per-node accept condition: optional projector and classical predicate."""

    node: int
    projector: Callable[[Mapping], tuple[np.ndarray, list[str]] | None] | None = None
    predicate: Callable[[Mapping], bool] | None = None
    describe: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationPhase:
    steps: tuple[Step, ...] = ()
    w_swap: bool = False
    measurements: tuple[Measurement, ...] = ()
    checks: tuple[ProjectiveCheck, ...] = ()
    broadcasts: tuple[Broadcast, ...] = ()
    accepts: tuple[NodeAccept, ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    """An executable turn script over a fixed layout.

    ``initial_factors`` seeds named registers with given pure states (used by
    protocols whose inputs are quantum); everything else starts at |0...0>.
    ``allow_node_exchange`` marks the variant where nodes may interact in the
    middle of the protocol (needed by cross-node projective checks).
    """

    name: str
    graph: NetworkGraph
    layout: RegisterLayout
    turns: tuple[ProverTurn | VerifierTurn, ...]
    verification: VerificationPhase
    allow_node_exchange: bool = False
    initial_factors: tuple[tuple[tuple[str, ...], np.ndarray], ...] = ()
    output_registers: Callable[[Mapping], list[str]] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        kinds = [isinstance(t, ProverTurn) for t in self.turns]
        for a, b in zip(kinds, kinds[1:]):
            if a == b:
                raise ProtocolError("turns must alternate between prover and verifier")

    @property
    def num_turns(self) -> int:
        return len(self.turns)

    def prover_turn_indices(self) -> list[int]:
        return [t.index for t in self.turns if isinstance(t, ProverTurn)]


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


class ProverStrategy:
    """Interface: one unitary per prover turn plus classical reply functions.

    A gate is a dense ``2^k`` matrix on the turn's ``acts_on`` qubits or a
    :class:`~dqip.qcore.FactoredOp` over them; callers that need the matrix
    use :func:`~dqip.qcore.dense_matrix`.
    """

    def gate(self, turn_index: int, view: Mapping) -> np.ndarray | FactoredOp:
        raise NotImplementedError

    def reply(self, slot_name: str, view: Mapping) -> int:
        raise NotImplementedError


@dataclass
class FunctionalStrategy(ProverStrategy):
    name: str
    gate_fn: Callable[[int, Mapping], np.ndarray | FactoredOp]
    reply_fn: Callable[[str, Mapping], int] | None = None

    def gate(self, turn_index: int, view: Mapping) -> np.ndarray | FactoredOp:
        return self.gate_fn(turn_index, view)

    def reply(self, slot_name: str, view: Mapping) -> int:
        if self.reply_fn is None:
            raise ProtocolError(f"strategy {self.name!r} has no reply function for {slot_name!r}")
        return self.reply_fn(slot_name, view)


def block_key(turn_index: int, view: Mapping) -> tuple:
    return (turn_index, tuple(sorted(view.items())))


@dataclass
class TabularStrategy(ProverStrategy):
    """Strategy given by explicit per-(turn, prover view) unitaries.

    This is the representation the see-saw optimizer works with; replies are
    delegated to a fixed reply function (usually the honest one).
    """

    name: str
    gates: dict
    reply_fn: Callable[[str, Mapping], int] | None = None

    def gate(self, turn_index: int, view: Mapping) -> np.ndarray:
        return self.gates[block_key(turn_index, view)]

    def reply(self, slot_name: str, view: Mapping) -> int:
        if self.reply_fn is None:
            raise ProtocolError(f"strategy {self.name!r} has no reply function for {slot_name!r}")
        return self.reply_fn(slot_name, view)


# ---------------------------------------------------------------------------
# Step constructors
# ---------------------------------------------------------------------------


def static_step(actor: int, matrix: np.ndarray, registers: Sequence[str]) -> Step:
    regs = list(registers)
    mat = np.asarray(matrix, dtype=np.complex128)
    return Step(
        actor=actor,
        resolve=lambda view: (mat, regs),
        describe={"kind": "gate", "registers": regs, "matrix": matrix_to_json(mat)},
    )


def conditional_step(
    actor: int,
    depends_on: Sequence[str],
    table: Mapping[tuple, tuple[np.ndarray, Sequence[str]] | None],
) -> Step:
    """Gate chosen by classical values: ``table[values] -> (matrix, regs)``."""
    deps = tuple(depends_on)
    fixed = {k: (None if v is None else (np.asarray(v[0], dtype=np.complex128), list(v[1]))) for k, v in table.items()}

    def resolve(view: Mapping):
        key = tuple(view[d] for d in deps)
        return fixed[key]

    describe = {
        "kind": "conditional-gate",
        "depends_on": list(deps),
        "table": {
            ",".join(map(str, k)): (None if v is None else {"registers": v[1], "matrix": matrix_to_json(v[0])})
            for k, v in fixed.items()
        },
    }
    return Step(actor=actor, resolve=resolve, describe=describe)


def matrix_to_json(mat: np.ndarray) -> list:
    """Row-major [re, im] pairs; the stable wire format for gate matrices."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def first_qubit_zero_accept(node: int, register: str) -> NodeAccept:
    """Canonical accept condition: first qubit of the node's register is |0>."""
    proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)

    def resolve(view: Mapping):
        return proj, [f"{register}[0]"]

    return NodeAccept(
        node=node,
        projector=resolve,
        predicate=None,
        describe={"kind": "first-qubit-zero", "register": register},
    )


# ---------------------------------------------------------------------------
# Executor internals
# ---------------------------------------------------------------------------


def _expand_registers(layout: RegisterLayout, names: Iterable[str]) -> list[int]:
    """Register names to qubits; ``name[i]`` selects a single qubit."""
    out: list[int] = []
    for name in names:
        if name.endswith("]") and "[" in name:
            base, idx = name[:-1].split("[")
            out.append(layout.qubits(base)[int(idx)])
        else:
            out.extend(layout.qubits(name))
    return out


def _base_register(name: str) -> str:
    return name.split("[")[0] if "[" in name else name


@dataclass
class _Branch:
    weight: float
    vec: np.ndarray
    values: dict
    visibility: dict
    owner: dict
    ops: list | None = None  # (kind, payload...) recorded for the optimizer

    def clone(self, vec: np.ndarray | None = None) -> "_Branch":
        """A copy of the branch, holding ``vec`` or else a copy of this vector."""
        return _Branch(
            self.weight,
            self.vec.copy() if vec is None else vec,
            dict(self.values),
            dict(self.visibility),
            dict(self.owner),
            None if self.ops is None else list(self.ops),
        )


def _view(branch: _Branch, actor: int) -> dict:
    return {k: v for k, v in branch.values.items() if actor in branch.visibility[k]}


def _set_value(branch: _Branch, name: str, value, visible_to: Iterable[int]) -> None:
    if name in branch.values:
        raise ProtocolError(f"classical variable {name!r} assigned twice")
    branch.values[name] = value
    branch.visibility[name] = frozenset(visible_to)


def _all_actors(graph: NetworkGraph) -> list[int]:
    return [PROVER] + list(range(graph.node_count))


class _Executor:
    def __init__(self, spec: ProtocolSpec, strategy: ProverStrategy, record: bool = False):
        self.spec = spec
        self.strategy = strategy
        self.record = record
        self.layout = spec.layout
        self.graph = spec.graph

    # -- setup --------------------------------------------------------------

    def initial_branch(self) -> _Branch:
        vec = np.zeros(2**self.layout.total_qubits, dtype=np.complex128)
        vec[0] = 1.0
        for regs, factor in self.spec.initial_factors:
            qubits = _expand_registers(self.layout, regs)
            factor = np.asarray(factor, dtype=np.complex128)
            if factor.size != 2 ** len(qubits):
                raise ValidationError(f"initial factor on {regs} has wrong dimension")
            prep = np.zeros((factor.size, factor.size), dtype=np.complex128)
            prep[:, 0] = factor
            vec = apply_matrix_vec(vec, prep, qubits)
        owner = {name: self.layout.owner(name) for name in self.layout.names()}
        return _Branch(1.0, vec, {}, {}, owner, [] if self.record else None)

    # -- primitive operations -----------------------------------------------

    def _check_ownership(self, branch: _Branch, actor: int, regs: list[str], label: str) -> None:
        for name in regs:
            base = _base_register(name)
            holder = branch.owner.get(base)
            if holder is None:
                raise ProtocolError(f"{label}: unknown register {base!r}")
            if holder != actor:
                who = "prover" if actor == PROVER else f"node {actor}"
                raise ProtocolError(f"{label}: register {base!r} is not held by {who}")

    def _apply(self, branch: _Branch, matrix: np.ndarray, qubits: list[int]) -> None:
        branch.vec = apply_matrix_vec(branch.vec, matrix, qubits)
        if branch.ops is not None:
            branch.ops.append(("mat", matrix, tuple(qubits)))

    def _apply_step(self, branch: _Branch, step: Step, label: str) -> None:
        resolved = step.resolve(_view(branch, step.actor))
        if resolved is None:
            return
        matrix, regs = resolved
        self._check_ownership(branch, step.actor, regs, label)
        qubits = _expand_registers(self.layout, regs)
        self._apply(branch, np.asarray(matrix, dtype=np.complex128), qubits)

    def _check_live(self, parents: int, children: int, label: str, what: str) -> None:
        """Refuse to branch when parents and children together exceed the byte budget."""
        state_bytes = 16 * 2**self.layout.total_qubits
        qcore.check_budget(
            (parents + children) * state_bytes,
            f"{label}: {what} with {parents} + {children} live branches of {state_bytes} bytes",
        )

    def _flip_coin(self, branches: list[_Branch], coin: CoinFlip, label: str) -> list[_Branch]:
        self._check_live(len(branches), len(branches) * coin.num_values, label, f"coin {coin.name!r}")
        out = []
        visible = _all_actors(self.graph) if coin.owner is None else [PROVER, coin.owner]
        for branch in branches:
            for value in range(coin.num_values):
                child = branch.clone()
                child.weight /= coin.num_values
                _set_value(child, coin.name, value, visible)
                out.append(child)
        return out

    def _measure(self, branches: list[_Branch], m: Measurement, label: str) -> list[_Branch]:
        # Outcomes that survive pruning are found from their weights, so the
        # budget counts the children before any of them is built.
        plans = []
        for branch in branches:
            regs = m.resolve_targets(_view(branch, m.node))
            if not regs:
                plans.append(None)
                continue
            self._check_ownership(branch, m.node, regs, label)
            qubits = _expand_registers(self.layout, regs)
            if self.record:
                kept = range(2 ** len(qubits))
            else:
                kept = np.flatnonzero(outcome_weights(branch.vec, qubits) > PRUNE_TOL)
            plans.append((regs, qubits, kept))
        measured = [plan for plan in plans if plan is not None]
        if measured:
            children = sum(len(kept) for _, _, kept in measured)
            self._check_live(len(branches), children, label, f"measurement {m.name!r} of {measured[0][0]}")
        out = []
        visible = [m.node, PROVER] if m.to_prover else [m.node]
        for branch, plan in zip(branches, plans):
            if plan is None:
                out.append(branch)
                continue
            _, qubits, kept = plan
            for outcome in kept:
                outcome = int(outcome)
                child = branch.clone(project_outcome(branch.vec, qubits, outcome))
                _set_value(child, m.name, outcome, visible)
                if child.ops is not None:
                    child.ops.append(("mat", _selector_matrix(len(qubits), outcome), tuple(qubits)))
                out.append(child)
        return out

    def _projective_check(self, branches: list[_Branch], check: ProjectiveCheck, label: str) -> list[_Branch]:
        if len(check.nodes) > 1 and not self.spec.allow_node_exchange:
            raise ProtocolError(f"{label}: cross-node check {check.name!r} requires node exchange")
        resolved_all = []
        for branch in branches:
            merged: dict = {}
            for node in check.nodes:
                merged.update(_view(branch, node))
            resolved = check.resolve(merged)
            if resolved is not None:
                for name in resolved[1]:
                    base = _base_register(name)
                    if branch.owner.get(base) not in check.nodes:
                        raise ProtocolError(f"{label}: register {base!r} is not held by the checking nodes")
            resolved_all.append(resolved)
        checked = [r[1] for r in resolved_all if r is not None]
        if checked:
            self._check_live(len(branches), 2 * len(checked), label, f"check {check.name!r} on {checked[0]}")
        out = []
        visible = list(check.nodes)
        for branch, resolved in zip(branches, resolved_all):
            if resolved is None:
                out.append(branch)
                continue
            projector, regs = resolved
            qubits = _expand_registers(self.layout, regs)
            projector = np.asarray(projector, dtype=np.complex128)
            hit = apply_matrix_vec(branch.vec, projector, qubits)
            miss = branch.vec - hit
            for outcome, vec, op in ((1, hit, projector), (0, miss, np.eye(projector.shape[0]) - projector)):
                keep = self.record or float(np.vdot(vec, vec).real) > PRUNE_TOL
                if not keep:
                    continue
                child = branch.clone(vec)
                _set_value(child, check.name, outcome, visible)
                if child.ops is not None:
                    child.ops.append(("mat", op, tuple(qubits)))
                out.append(child)
        return out

    def _move(self, branch: _Branch, register: str, new_owner: int, label: str) -> None:
        if register not in branch.owner:
            raise ProtocolError(f"{label}: unknown register {register!r}")
        branch.owner[register] = new_owner

    # -- turns ---------------------------------------------------------------

    def _prover_turn(self, branches: list[_Branch], turn: ProverTurn) -> list[_Branch]:
        label = f"turn {turn.index} (prover)"
        for branch in branches:
            view = _view(branch, PROVER)
            regs = list(turn.acts_on(view)) if callable(turn.acts_on) else list(turn.acts_on)
            self._check_ownership(branch, PROVER, regs, label)
            qubits = _expand_registers(self.layout, regs)
            if branch.ops is not None:
                # Recording mode: prover gates stay symbolic; classical flow
                # does not depend on amplitudes because pruning is off.
                branch.ops.append(("block", block_key(turn.index, view), tuple(qubits)))
            else:
                try:
                    branch.vec = apply_op(branch.vec, self.strategy.gate(turn.index, view), qubits)
                except LayoutError as err:
                    raise ProtocolError(f"{label}: strategy gate on {len(qubits)} qubits: {err}") from err
            for slot in turn.replies:
                value = int(self.strategy.reply(slot.name, view))
                if not 0 <= value < slot.num_values:
                    raise ProtocolError(f"{label}: reply {slot.name!r}={value} out of range")
                _set_value(branch, slot.name, value, [PROVER, *slot.audience])
                view = {**view, slot.name: value}  # the prover sees its own replies
            deliveries = turn.delivers(view) if callable(turn.delivers) else turn.delivers
            for register, node in deliveries:
                self._move(branch, register, node, label)
        return branches

    def _verifier_turn(self, branches: list[_Branch], turn: VerifierTurn) -> list[_Branch]:
        label = f"turn {turn.index} (verifier)"
        for coin in turn.coins:
            branches = self._flip_coin(branches, coin, label)
        for step in turn.steps:
            for branch in branches:
                self._apply_step(branch, step, label)
        branches = self._run_checks_and_measurements(branches, turn.measurements, turn.checks, label)
        for branch in branches:
            sends = turn.sends(_view(branch, PROVER)) if callable(turn.sends) else turn.sends
            for register in sends:
                if branch.owner.get(register) == PROVER:
                    raise ProtocolError(f"{label}: register {register!r} already at the prover")
                self._move(branch, register, PROVER, label)
        return branches

    def _run_checks_and_measurements(self, branches, measurements, checks, label):
        for m in measurements:
            branches = self._measure(branches, m, label)
        for check in checks:
            branches = self._projective_check(branches, check, label)
        return branches

    # -- verification ---------------------------------------------------------

    def _w_swap(self, branches: list[_Branch]) -> None:
        # Contents are exchanged while names keep their owner: after the
        # phase, W:u:v (held by u) contains whatever v prepared in W:v:u.
        for a, b in sorted(self.graph.edges):
            nab, nba = f"W:{a}:{b}", f"W:{b}:{a}"
            if not (self.layout.has(nab) and self.layout.has(nba)):
                continue
            qa, qb = self.layout.qubits(nab), self.layout.qubits(nba)
            for branch in branches:
                for x, y in zip(qa, qb):
                    self._apply(branch, SWAP.matrix, [x, y])

    def _verification_views(self, branch: _Branch) -> dict[int, dict]:
        views = {u: _view(branch, u) for u in range(self.graph.node_count)}
        sent: dict[int, object] = {}
        for bc in self.spec.verification.broadcasts:
            sent[bc.node] = bc.fn(views[bc.node])
        for u in range(self.graph.node_count):
            for v in self.graph.neighbors(u):
                if v in sent:
                    views[u][f"recv:{v}"] = sent[v]
        return views

    def run_verification(self, branches: list[_Branch]) -> list[tuple[_Branch, dict[int, dict]]]:
        label = "verification"
        phase = self.spec.verification
        for step in phase.steps:
            for branch in branches:
                self._apply_step(branch, step, label)
        if phase.w_swap:
            self._w_swap(branches)
        branches = self._run_checks_and_measurements(branches, phase.measurements, phase.checks, label)
        return [(branch, self._verification_views(branch)) for branch in branches]

    def accept_ops(self, branch: _Branch, views: dict[int, dict]) -> tuple[list, float]:
        """Per-node accept projectors (resolved) and the predicate product."""
        ops = []
        pred = 1.0
        for accept in self.spec.verification.accepts:
            view = views[accept.node]
            if accept.predicate is not None and not accept.predicate(view):
                pred = 0.0
            if accept.projector is not None:
                resolved = accept.projector(view)
                if resolved is not None:
                    matrix, regs = resolved
                    matrix = np.asarray(matrix, dtype=np.complex128)
                    check_projector(matrix)
                    ops.append((accept.node, matrix, _expand_registers(self.layout, regs)))
        return ops, pred

    # -- main loops -----------------------------------------------------------

    def run_interaction(self) -> list[_Branch]:
        branches = [self.initial_branch()]
        for turn in self.spec.turns:
            if isinstance(turn, ProverTurn):
                branches = self._prover_turn(branches, turn)
            else:
                branches = self._verifier_turn(branches, turn)
        return branches


def _split_outcomes(vec: np.ndarray, qubits: list[int]):
    """Split a vector by computational-basis outcome of ``qubits``.

    Yields (outcome, unnormalized collapsed vector) for every outcome.
    """
    for outcome in range(2 ** len(qubits)):
        yield outcome, project_outcome(vec, qubits, outcome)


def _selector_matrix(k: int, outcome: int) -> np.ndarray:
    diag = np.zeros(2**k)
    diag[outcome] = 1.0
    return np.diag(diag).astype(np.complex128)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Result of executing a protocol: acceptance plus diagnostics."""

    acceptance_probability: float
    mode: str
    per_node_acceptance: dict[int, float]
    seed: int | None = None
    trials: int | None = None
    wilson_interval: tuple[float, float] | None = None
    output_state: np.ndarray | None = None
    derived: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not -1e-9 <= self.acceptance_probability <= 1 + 1e-9:
            raise ValidationError(f"acceptance {self.acceptance_probability!r} outside [0, 1]")
        self.acceptance_probability = min(max(self.acceptance_probability, 0.0), 1.0)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("wilson_interval needs at least one trial")
    phat = successes / trials
    denom = 1 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# Public execution entry points
# ---------------------------------------------------------------------------


def execute_exact(
    spec: ProtocolSpec,
    prover: ProverStrategy,
    coin_mode: str = "branch",
    collect_output: bool = False,
) -> RunReport:
    """Exact acceptance probability by branch-averaging all classical events.

    ``coin_mode='bell'`` first materializes eligible coin flips as Bell pairs
    (see :func:`dqip.transforms.materialize_coins`) and then runs exactly.
    """
    if coin_mode == "bell":
        from .transforms import materialize_coins

        spec, wrap = materialize_coins(spec)
        prover = wrap(prover)
    elif coin_mode != "branch":
        raise ValidationError(f"unknown coin_mode {coin_mode!r}")

    executor = _Executor(spec, prover)
    leaves = executor.run_verification(executor.run_interaction())

    acceptance = 0.0
    node_acc = {u: 0.0 for u in range(spec.graph.node_count)}
    out_mat = None
    out_dim = None
    for branch, views in leaves:
        ops, pred = executor.accept_ops(branch, views)
        projected = branch.vec
        for _, matrix, qubits in ops:
            projected = apply_matrix_vec(projected, matrix, qubits)
        acceptance += branch.weight * pred * float(np.vdot(projected, projected).real)
        for u in range(spec.graph.node_count):
            vec_u = branch.vec
            pred_u = 1.0
            for node, matrix, qubits in ops:
                if node == u:
                    vec_u = apply_matrix_vec(vec_u, matrix, qubits)
            accept_u = next((a for a in spec.verification.accepts if a.node == u), None)
            # pred is 1 only when every predicate passed, this node's among them.
            if pred == 0.0 and accept_u is not None and accept_u.predicate is not None:
                pred_u = 1.0 if accept_u.predicate(views[u]) else 0.0
            node_acc[u] += branch.weight * pred_u * float(np.vdot(vec_u, vec_u).real)
        if collect_output and spec.output_registers is not None and pred > 0:
            regs = spec.output_registers(branch.values)
            qubits = _expand_registers(spec.layout, regs)
            red = branch.weight * reduced_density_from_vec(projected, qubits)
            if out_mat is None:
                out_mat, out_dim = red, len(qubits)
            else:
                out_mat = out_mat + red

    if out_mat is not None and acceptance > 1e-15:
        out_mat = out_mat / acceptance

    return RunReport(
        acceptance_probability=acceptance,
        mode="exact",
        per_node_acceptance={u: min(max(v, 0.0), 1.0) for u, v in node_acc.items()},
        output_state=out_mat,
        metadata={"protocol": spec.name, "turns": spec.num_turns, "strategy": prover.name},
    )


def execute_sampled(spec: ProtocolSpec, prover: ProverStrategy, trials: int, seed: int) -> RunReport:
    """Monte-Carlo execution: sample coins and measurements, count accepts."""
    if trials < 1:
        raise ValidationError("execute_sampled needs at least one trial")
    rng = substream(seed, "protocol.execute_sampled", spec.name)
    executor = _Executor(spec, prover)
    successes = 0
    node_hits = {u: 0 for u in range(spec.graph.node_count)}
    for _ in range(trials):
        branch = _sample_path(executor, rng)
        views = executor._verification_views(branch)
        ops, pred = executor.accept_ops(branch, views)
        # Per-node Bernoulli draws share the branch; the joint accept uses the
        # product projector on the same sampled path.
        projected = branch.vec
        for _, matrix, qubits in ops:
            projected = apply_matrix_vec(projected, matrix, qubits)
        p_all = min(max(pred * float(np.vdot(projected, projected).real), 0.0), 1.0)
        if rng.random() < p_all:
            successes += 1
        for u in range(spec.graph.node_count):
            vec_u = branch.vec
            for node, matrix, qubits in ops:
                if node == u:
                    vec_u = apply_matrix_vec(vec_u, matrix, qubits)
            accept_u = next((a for a in spec.verification.accepts if a.node == u), None)
            pred_u = 1.0
            if pred == 0.0 and accept_u is not None and accept_u.predicate is not None:
                pred_u = 1.0 if accept_u.predicate(views[u]) else 0.0
            p_u = min(max(pred_u * float(np.vdot(vec_u, vec_u).real), 0.0), 1.0)
            if rng.random() < p_u:
                node_hits[u] += 1
    lo, hi = wilson_interval(successes, trials)
    return RunReport(
        acceptance_probability=successes / trials,
        mode="sampled",
        per_node_acceptance={u: node_hits[u] / trials for u in range(spec.graph.node_count)},
        seed=seed,
        trials=trials,
        wilson_interval=(lo, hi),
        metadata={"protocol": spec.name, "turns": spec.num_turns, "strategy": prover.name},
    )


def variable_marginal(spec: ProtocolSpec, prover: ProverStrategy, name: str, value) -> float:
    """Probability that classical variable ``name`` ends with ``value``.

    Sums branch weight times squared norm over all leaves agreeing with the
    value; coins, replies and measurement outcomes are all addressable.
    """
    executor = _Executor(spec, prover)
    leaves = executor.run_verification(executor.run_interaction())
    total = 0.0
    for branch, _ in leaves:
        if branch.values.get(name) == value:
            total += branch.weight * float(np.vdot(branch.vec, branch.vec).real)
    return total


def _sample_path(executor: _Executor, rng: np.random.Generator) -> _Branch:
    """Walk one trajectory: coins and measurement outcomes drawn at random."""
    spec = executor.spec
    branch = executor.initial_branch()

    def sample_measure(m: Measurement, label: str) -> None:
        regs = m.resolve_targets(_view(branch, m.node))
        if not regs:
            return
        executor._check_ownership(branch, m.node, regs, label)
        qubits = _expand_registers(spec.layout, regs)
        outcomes = list(_split_outcomes(branch.vec, qubits))
        probs = np.array([float(np.vdot(v, v).real) for _, v in outcomes])
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        pick = rng.choice(len(outcomes), p=probs)
        outcome, vec = outcomes[pick]
        branch.vec = vec / np.linalg.norm(vec)
        _set_value(branch, m.name, outcome, [m.node, PROVER] if m.to_prover else [m.node])

    def sample_check(check: ProjectiveCheck, label: str) -> None:
        merged: dict = {}
        for node in check.nodes:
            merged.update(_view(branch, node))
        resolved = check.resolve(merged)
        if resolved is None:
            return
        projector, regs = resolved
        qubits = _expand_registers(spec.layout, regs)
        hit = apply_matrix_vec(branch.vec, np.asarray(projector, dtype=np.complex128), qubits)
        p1 = min(max(float(np.vdot(hit, hit).real), 0.0), 1.0)
        if rng.random() < p1:
            branch.vec = hit / np.linalg.norm(hit)
            _set_value(branch, check.name, 1, list(check.nodes))
        else:
            miss = branch.vec - hit
            branch.vec = miss / np.linalg.norm(miss)
            _set_value(branch, check.name, 0, list(check.nodes))

    for turn in spec.turns:
        if isinstance(turn, ProverTurn):
            executor._prover_turn([branch], turn)
        else:
            label = f"turn {turn.index} (verifier)"
            for coin in turn.coins:
                value = int(rng.integers(coin.num_values))
                visible = _all_actors(spec.graph) if coin.owner is None else [PROVER, coin.owner]
                _set_value(branch, coin.name, value, visible)
            for step in turn.steps:
                executor._apply_step(branch, step, label)
            for m in turn.measurements:
                sample_measure(m, label)
            for check in turn.checks:
                sample_check(check, label)
            sends = turn.sends(_view(branch, PROVER)) if callable(turn.sends) else turn.sends
            for register in sends:
                executor._move(branch, register, PROVER, label)

    phase = spec.verification
    for step in phase.steps:
        executor._apply_step(branch, step, "verification")
    if phase.w_swap:
        executor._w_swap([branch])
    for m in phase.measurements:
        sample_measure(m, "verification")
    for check in phase.checks:
        sample_check(check, "verification")
    return branch


# ---------------------------------------------------------------------------
# Verification projector and branch recording
# ---------------------------------------------------------------------------


def verification_projector(spec: ProtocolSpec, assignment: Mapping | None = None) -> np.ndarray:
    """The single operator whose pre-verification expectation is acceptance.

    Builds the product of per-node accept projectors conjugated by the
    verification unitaries, W-swaps and measurement branching, for the given
    classical ``assignment`` (values of any coins and replies the
    verification phase conditions on).  The result is idempotent.
    """
    assignment = dict(assignment or {})
    dim = 2**spec.layout.total_qubits
    qcore.check_budget(16 * dim * dim, f"verification projector of {spec.name!r}")
    executor = _Executor(spec, FunctionalStrategy("unused", lambda *_: None))

    out = np.zeros((dim, dim), dtype=np.complex128)
    all_vis = frozenset(_all_actors(spec.graph))
    for j in range(dim):
        basis = np.zeros(dim, dtype=np.complex128)
        basis[j] = 1.0
        branch = _Branch(
            1.0,
            basis,
            dict(assignment),
            {k: all_vis for k in assignment},
            {name: spec.layout.owner(name) for name in spec.layout.names()},
        )
        # Ownership does not constrain the verification phase analysis here:
        # every register is measured or projected by its final holder.
        for name in branch.owner:
            branch.owner[name] = _final_holder(spec, name)
        forward: list[tuple[np.ndarray, list[int]]] = []
        original_apply = executor._apply

        def recording_apply(br, matrix, qubits, _log=forward):
            _log.append((matrix, qubits))
            original_apply(br, matrix, qubits)

        executor._apply = recording_apply  # type: ignore[method-assign]
        leaves = executor.run_verification([branch])
        executor._apply = original_apply  # type: ignore[method-assign]

        column = np.zeros(dim, dtype=np.complex128)
        for leaf, views in leaves:
            ops, pred = executor.accept_ops(leaf, views)
            if pred == 0.0:
                continue
            vec = leaf.vec
            for _, matrix, qubits in ops:
                vec = apply_matrix_vec(vec, matrix, qubits)
            column += vec
        # Conjugate back through the shared unitary prefix (steps + swaps).
        for matrix, qubits in reversed(forward):
            column = apply_matrix_vec(column, np.asarray(matrix).conj().T, qubits)
        out[:, j] = column

    check_projector(out, atol=1e-9)
    return out


def _final_holder(spec: ProtocolSpec, name: str) -> int:
    owner = spec.layout.owner(name)
    for turn in spec.turns:
        if isinstance(turn, ProverTurn) and not callable(turn.delivers):
            for reg, node in turn.delivers:
                if reg == name:
                    owner = node
        elif isinstance(turn, VerifierTurn) and not callable(turn.sends):
            if name in turn.sends:
                owner = PROVER
    return owner


@dataclass
class BranchPath:
    """One classical leaf of a protocol: coin weight and linear-op sequence.

    ``ops`` entries are ``('mat', matrix, qubits)`` for fixed operators or
    ``('block', key, qubits)`` for prover unitaries; ``accept_ops`` holds the
    final per-node projectors.  Predicate-failing leaves are dropped, so the
    acceptance probability of a strategy assigning unitaries to the blocks is
    ``sum_b weight_b * || accept(ops(|0>)) ||^2``.
    """

    weight: float
    ops: list
    accept_ops: list


def collect_paths(spec: ProtocolSpec, strategy: ProverStrategy) -> tuple[list[BranchPath], np.ndarray]:
    """Record every classical branch with prover gates left symbolic.

    The classical skeleton (transcripts, replies, ownership) is fixed by the
    strategy's reply functions; measurement branches are never pruned, so the
    recorded paths stay valid for any unitary assignment to the blocks.
    Returns the paths and the initial state vector.
    """
    executor = _Executor(spec, strategy, record=True)
    initial = executor.initial_branch().vec
    leaves = executor.run_verification(executor.run_interaction())
    paths = []
    for branch, views in leaves:
        ops, pred = executor.accept_ops(branch, views)
        if pred == 0.0:
            continue
        paths.append(
            BranchPath(
                weight=branch.weight,
                ops=list(branch.ops or []),
                accept_ops=[(matrix, qubits) for _, matrix, qubits in ops],
            )
        )
    return paths, initial


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def spec_to_json(spec: ProtocolSpec) -> dict:
    """Stable JSON form: turn list, gate matrices as [re, im] pairs, registers."""

    def coin_json(c: CoinFlip) -> dict:
        return {"name": c.name, "num_values": c.num_values, "owner": c.owner}

    def turn_json(turn) -> dict:
        if isinstance(turn, ProverTurn):
            return {
                "type": "prover",
                "index": turn.index,
                "acts_on": list(turn.acts_on) if not callable(turn.acts_on) else "dynamic",
                "delivers": [list(d) for d in turn.delivers] if not callable(turn.delivers) else "dynamic",
                "replies": [
                    {"name": r.name, "num_values": r.num_values, "audience": list(r.audience)}
                    for r in turn.replies
                ],
            }
        return {
            "type": "verifier",
            "index": turn.index,
            "coins": [coin_json(c) for c in turn.coins],
            "steps": [s.describe for s in turn.steps],
            "measurements": [m.describe or {"name": m.name, "node": m.node} for m in turn.measurements],
            "checks": [c.describe or {"name": c.name} for c in turn.checks],
            "sends": list(turn.sends) if not callable(turn.sends) else "dynamic",
        }

    phase = spec.verification
    return {
        "format": "dqip-protocol/1",
        "name": spec.name,
        "nodes": spec.graph.node_count,
        "edges": sorted(list(e) for e in spec.graph.edges),
        "registers": [
            {"name": name, "start": start, "size": size, "owner": spec.layout.owner(name)}
            for name, start, size in spec.layout.registers
        ],
        "turns": [turn_json(t) for t in spec.turns],
        "verification": {
            "steps": [s.describe for s in phase.steps],
            "w_swap": phase.w_swap,
            "measurements": [m.describe or {"name": m.name, "node": m.node} for m in phase.measurements],
            "checks": [c.describe or {"name": c.name} for c in phase.checks],
            "broadcasts": [b.describe or {"node": b.node} for b in phase.broadcasts],
            "accepts": [a.describe | {"node": a.node} for a in phase.accepts],
        },
        "allow_node_exchange": spec.allow_node_exchange,
        "metadata": spec.metadata,
    }
