"""Turn scripts and the one walk that executes them.

A protocol is an alternating list of prover and verifier turns followed by a
single verification phase.  Quantum registers move between actors only at
turn boundaries; the executor tracks ownership per branch and rejects any
gate that touches a register its actor does not currently hold.

Classical data (coin flips by nodes, classical replies by the prover,
measurement outcomes) lives in a per-branch transcript, and each actor reads
its own view of it: the variables that actor has seen, in the order they
were set.  A node's gates and predicates can only read that view.

Every run goes through one walk, :class:`_Executor`, with the same
ownership, exchange and visibility checks in every mode.  The protocol's
events (prover turns, coins, steps and measurements in the order listed,
checks, sends, then the verification phase) form one schedule, which each
branch walks depth first: a coin, a group of measurements (one fork, see
:class:`Measurement`) or a check yields its children one at a time, and
each finishes its subtree before the next is built.  Leaves stream out in
the order a level-by-level expansion would list them.  A policy decides
which children are kept:

* exact (:func:`execute_exact`, :func:`variable_marginal`): every child whose
  weight is above ``PRUNE_TOL``; measurement children stay unnormalized
  (their squared norms carry the Born weights), and acceptance sums
  ``weight * ||A psi||^2 * predicate`` over leaves (:meth:`_Executor.acceptance`);
* sample (:func:`execute_sampled`): a branch's weight is its number of
  trials, and a fork deals them over its children by one multinomial draw
  on their Born probabilities; only the children dealt a trial are kept,
  none is renormalized, and each draw divides by the squared norm that the
  marginal it reads already holds (see :class:`_Sample`);
* record (:func:`collect_paths`): every child, with the fixed operators
  and the symbolic prover gates logged instead of any amplitudes, as the
  :class:`BranchPath` list that the see-saw and the exact single-message
  optimum replay.

On the exact and sampled walks a branch's state (:class:`_State`) holds
amplitudes on its free qubits only; every other qubit carries a known basis
bit, 0 until an operator first touches it, or its measured outcome.  So the
initial state is the Kronecker product of the initial factors on their
qubits and a measurement child is a copy of its outcome's slice.  One rule
serves every read (outcome weights, the output state, a check's miss and
the zero-filled vector): the fixed ones of the qubits read are placed at
their bits first (:meth:`_State.placed`, which returns the state itself
when none is fixed), and the read takes the slice.

All three walks take each fixed operator (a step, a check projector, an
accept projector, and on the record walk an outcome's selector) as a
:class:`~dqip.qcore.StructuredOp`, classified once per executor (per process
if read-only, see :meth:`~dqip.qcore.StructuredOp.cached`): the exact
and sampled walks apply it, and a prover gate the same way (a factored one
by its :meth:`~dqip.qcore.FactoredOp.parts`, chosen on the layout's qubit
count), with its targets renumbered into the slice when all are free; one
that touches fixed qubits acts through its columns at their bits and frees
only those (see :meth:`_State.apply`).  The record walk records it, carries
no amplitudes and hands the see-saw the full initial vector.
No vector is modified in place, so the initial state is built once per
executor and shared.
A branch releases its state once its last child is built: a walk holds one
state per open fork on its current path, and exact and sampled walks check
that many full ``2^n`` states, an upper bound on their slices
(:meth:`_Executor.check_budget`), against ``qcore.MAX_DENSE_BYTES`` before
they start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import qcore
from .errors import LayoutError, ProtocolError, ValidationError
from .network import PROVER, NetworkGraph, RegisterLayout, split_register
from .qcore import (
    FactoredOp,
    StructuredOp,
    apply_columns,
    apply_matrix_vec,
    check_projector,
    outcome_slice,
    outcome_weights,
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
    prover.  A measurement runs where it is listed among a turn's ``steps``
    or, in its ``measurements``, after every step; a step listed after it
    reads its outcome from the node's view.  A run of consecutive
    measurements by distinct nodes forks once, on their joint outcome (they
    commute, and none sees another's outcome); a node's second one in a turn
    forks again, so it can read the first's.
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
    acts_on: Callable[[Mapping], list[str]] | tuple[str, ...]
    delivers: Callable[[Mapping], list[tuple[str, int]]] | tuple[tuple[str, int], ...] = ()
    replies: tuple[ReplySlot, ...] = ()


def turn_field(value, view: Mapping):
    """A turn's ``acts_on``, ``delivers`` or ``sends`` as read from ``view``: a static
    tuple as it is, a dynamic one called on the view."""
    return value(view) if callable(value) else value


@dataclass(frozen=True)
class VerifierTurn:
    """The nodes' turn: coins, then ``steps`` and ``measurements`` in the order listed, then checks and sends.

    ``steps`` may list measurements among the unitaries, each run where it
    stands; ``measurements`` run after every step.
    """

    coins: tuple[CoinFlip, ...] = ()
    steps: tuple[Step | Measurement, ...] = ()
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
    """The last local events, run like a verifier turn's, then the broadcasts and each node's accept."""

    steps: tuple[Step | Measurement, ...] = ()
    measurements: tuple[Measurement, ...] = ()
    checks: tuple[ProjectiveCheck, ...] = ()
    broadcasts: tuple[Broadcast, ...] = ()
    accepts: tuple[NodeAccept, ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    """An executable turn script over a fixed layout.

    A turn's number is its 1-based position in ``turns``: the executor hands
    a prover turn's number to :attr:`ProverStrategy.gate_fn` as ``turn_index``,
    and :func:`block_key` keys the turn's prover blocks by it.
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


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProverStrategy:
    """A prover: one gate per prover turn and one value per classical reply slot.

    ``gate_fn(turn_index, view)`` returns the gate of the prover turn at
    position ``turn_index``: a dense ``2^k`` matrix on its ``acts_on`` qubits
    or a :class:`~dqip.qcore.FactoredOp` over them (callers that need the
    matrix use :func:`~dqip.qcore.dense_matrix`).  ``reply_fn(slot_name,
    view)`` returns a reply.  ``view`` is the prover's view; both functions
    must be pure, as :func:`block_key` assumes, and a gate is returned as the
    same object for the same arguments, as the walks' op cache
    (:meth:`~dqip.qcore.StructuredOp.cached`) assumes.
    The see-saw's best strategy looks its gates up by :func:`block_key`
    (:attr:`~dqip.prover.OptimizerTrace.best_gates`).
    """

    name: str
    gate_fn: Callable[[int, Mapping], np.ndarray | FactoredOp]
    reply_fn: Callable[[str, Mapping], int] | None = None

    @classmethod
    def table(cls, name: str, gates: Mapping, inner: ProverStrategy | None = None) -> ProverStrategy:
        """Serves ``gates[turn_index]`` where ``gates`` holds that position and ``inner``'s gate
        elsewhere, with ``inner``'s replies; ``gates`` is read at each call, not copied."""

        def gate(turn_index: int, view: Mapping):
            return gates[turn_index] if inner is None or turn_index in gates else inner.gate_fn(turn_index, view)

        return cls(name, gate, None if inner is None else inner.reply_fn)

    def reply(self, slot_name: str, view: Mapping) -> int:
        if self.reply_fn is None:
            raise ProtocolError(f"strategy {self.name!r} has no reply function for {slot_name!r}")
        return self.reply_fn(slot_name, view)


def block_key(turn_index: int, view: Mapping) -> tuple:
    """The key of a prover gate: the turn's number and the prover's view, as sorted items."""
    return (turn_index, tuple(sorted(view.items())))


# ---------------------------------------------------------------------------
# Step constructors
# ---------------------------------------------------------------------------


def static_step(actor: int, matrix: np.ndarray, registers: Sequence[str]) -> Step:
    regs = list(registers)
    mat = np.asarray(matrix, dtype=np.complex128)
    return Step(
        actor=actor,
        resolve=lambda view: (mat, regs),
        describe={"kind": "gate", "registers": regs, "matrix": mat},
    )


def register_measurement(name: str, node: int, register: str, describe: dict | None = None) -> Measurement:
    """Computational-basis measurement of the whole of ``register``."""
    return Measurement(
        name=name,
        node=node,
        resolve_targets=lambda view: [register],
        describe={"kind": "computational", "register": register} if describe is None else describe,
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
        return fixed[tuple(view[d] for d in deps)]

    describe = {
        "kind": "conditional-gate",
        "depends_on": list(deps),
        "table": {
            ",".join(map(str, k)): (None if v is None else {"registers": v[1], "matrix": v[0]})
            for k, v in fixed.items()
        },
    }
    return Step(actor=actor, resolve=resolve, describe=describe)


def matrix_to_json(mat: np.ndarray) -> list:
    """Row-major [re, im] pairs; the stable wire format for gate matrices."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def first_qubit_zero_accept(node: int, register: str) -> NodeAccept:
    """Canonical accept condition: first qubit of the node's register is |0>."""
    proj = qcore.basis_projector(1)
    describe = {"kind": "first-qubit-zero", "register": register}
    return NodeAccept(node=node, projector=lambda view: (proj, [f"{register}[0]"]), describe=describe)


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


def _norm2(vec: np.ndarray) -> float:
    return float(np.vdot(vec, vec).real)


def _joint(parts: list[list[int]]) -> list[int]:
    """The targets of a joint outcome of ``parts`` whose most significant bits are the first part's."""
    return [q for qubits in reversed(parts) for q in qubits]


def _digits(outcome: int, parts: list[list[int]]) -> list[int]:
    """Each part's outcome in a joint ``outcome`` of ``parts`` (see :func:`_joint`)."""
    return [int(digit) for digit in np.unravel_index(outcome, [2 ** len(qubits) for qubits in parts])]


def _spread(positions: list[int], base: int) -> list[int]:
    """``base`` with each count ``0..2^len(positions) - 1`` spread onto ``positions``: bit ``k`` at ``positions[k]``."""
    return [base | sum((count >> k & 1) << j for k, j in enumerate(positions)) for count in range(2 ** len(positions))]


@dataclass(slots=True)
class _State:
    """A branch's state on ``n`` qubits: amplitudes on its free qubits, a basis bit on the rest.

    ``vec`` holds the amplitudes over ``free`` (ascending; bit ``j`` of its
    index is qubit ``free[j]``), and every other qubit is at its bit of
    ``bits``: 0 until an operator first touches it, or its measured outcome.
    So the state is ``vec`` times one basis state of the fixed qubits, and
    :meth:`full` is the zero-filled vector that stands for.  Like a branch's
    other fields, a state is shared and never modified.
    """

    vec: np.ndarray
    free: tuple[int, ...]
    bits: int
    n: int

    def local(self, qubits: Sequence[int]) -> list[int]:
        """Free ``qubits`` renumbered into the slice."""
        return [self.free.index(q) for q in qubits]

    def outcome(self, qubits: Sequence[int]) -> int:
        """The fixed bits of ``qubits``; bit ``j`` is qubit ``qubits[j]``."""
        return sum((self.bits >> q & 1) << j for j, q in enumerate(qubits))

    def _fixing(self, qubits: Sequence[int], outcome: int) -> int:
        """``bits`` with ``qubits`` set to ``outcome`` (bit ``j`` is ``qubits[j]``)."""
        bits = self.bits
        for j, q in enumerate(qubits):
            bits = bits & ~(1 << q) | (outcome >> j & 1) << q
        return bits

    def placed(self, qubits: Iterable[int]) -> _State:
        """The fixed ones of ``qubits`` freed, the amplitudes placed at their bits; the state itself
        when none is fixed.  Every read that meets a fixed qubit goes through here."""
        fixed = [q for q in qubits if q not in self.free]
        if not fixed:
            return self
        free = tuple(sorted(self.free + tuple(fixed)))
        column = np.zeros((2 ** len(fixed), 1), dtype=self.vec.dtype)
        column[self.outcome(fixed)] = 1.0
        vec = apply_columns(self.vec, column, [], [free.index(q) for q in fixed])
        return _State(vec, free, self._fixing(fixed, 0), self.n)

    def apply(self, op: Callable[[np.ndarray, list[int]], StructuredOp], matrix: np.ndarray, qubits: list[int]):
        """``matrix`` applied to ``qubits``: through ``op(matrix, targets in the slice)`` when all are free,
        else through its columns at the fixed qubits' bits.

        An identity changes nothing.  On fixed qubits alone, a basis column
        (up to a factor) sets their bits and any other is prepared on them;
        among free ones, the fixed qubits are freed.
        """
        fixed = [j for j, q in enumerate(qubits) if q not in self.free]
        if not fixed:
            return _State(op(matrix, self.local(qubits)).apply(self.vec), self.free, self.bits, self.n)
        if op(matrix, qubits).kind == "identity":  # classified on the qubits themselves, which refuses bad ones
            return self
        loose = [j for j, q in enumerate(qubits) if q in self.free]
        columns = matrix[:, _spread(loose, self.outcome(qubits))]  # free qubits' bits are 0
        if not loose and np.count_nonzero(columns) <= 1:
            (rows,) = np.nonzero(columns[:, 0])
            row = int(rows[0]) if len(rows) else self.outcome(qubits)
            vec = self.vec if columns[row, 0] == 1 else self.vec * columns[row, 0]
            return _State(vec, self.free, self._fixing(qubits, row), self.n)
        on_fixed = [qubits[j] for j in fixed]
        free = tuple(sorted(self.free + tuple(on_fixed)))
        vec = apply_columns(self.vec, columns, self.local([qubits[j] for j in loose]), [free.index(q) for q in qubits])
        return _State(vec, free, self._fixing(on_fixed, 0), self.n)

    def measured(self, targets: list[int], outcome: int) -> _State:
        """The child at ``outcome`` of ``targets`` (bit ``j`` is ``targets[j]``): the slice of the free
        ones at their bits, and every target fixed at its bit."""
        free = [j for j, q in enumerate(targets) if q in self.free]
        digits = outcome if len(free) == len(targets) else sum((outcome >> j & 1) << k for k, j in enumerate(free))
        vec = outcome_slice(self.vec, self.local([targets[j] for j in free]), digits)
        return _State(vec, tuple(q for q in self.free if q not in targets), self._fixing(targets, outcome), self.n)

    def weights(self, targets: list[int]) -> np.ndarray:
        """The squared norm on each outcome of ``targets``, read from the slice with them placed."""
        state = self.placed(targets)
        return outcome_weights(state.vec, state.local(targets))

    def density(self, qubits: Sequence[int]) -> np.ndarray:
        """The (unnormalised) reduced density of ``qubits``, in ascending order, read like :meth:`weights`."""
        state = self.placed(qubits)
        return reduced_density_from_vec(state.vec, state.local(qubits))

    def full(self) -> np.ndarray:
        """The zero-filled vector on all ``n`` qubits."""
        return self.placed(range(self.n)).vec


@dataclass
class _Branch:
    """One classical branch: weight, state, transcript and each actor's view of it.

    ``weight`` is the branch's probability weight on the exact and record
    walks, and on the sampled walk the number of trials it holds.  ``state``
    is a :class:`_State`, or on the record walk the chain of
    recorded operators (see :class:`_Record`).  ``views`` maps the prover and
    every node to the variables it has seen, in the order they were set.
    States and view dicts are shared between branches and never modified: a
    new value replaces a view with a longer copy (:func:`_set_value`), so a
    callback's view never changes after it returns, and callbacks must not
    change it either.
    """

    weight: float
    state: object
    values: dict
    views: dict[int, dict]
    owner: dict


class _Exact:
    """Keep every child whose mass is above ``PRUNE_TOL``; coins keep every value.

    A fork method takes the branch's weight and returns each kept child
    with its weight.  Children stay unnormalised: a coin value divides the
    branch weight by its number of values, and an outcome or a check's
    child keeps the branch weight and its slice of the state, whose squared
    norm carries its Born weight.
    """

    records = False

    def __init__(self):
        self._ops: dict = {}  # see StructuredOp.cached

    def op(self, matrix: np.ndarray, qubits: list[int]) -> StructuredOp:
        """The structured op of a fixed operator, classified on its first use."""
        return StructuredOp.cached(self._ops, matrix, qubits)

    def apply(self, state: _State, matrix: np.ndarray, qubits: list[int]) -> _State:
        """A fixed operator applied to ``state`` (see :meth:`_State.apply`)."""
        return state.apply(self.op, matrix, qubits)

    def prover(self, state: _State, strategy: ProverStrategy, turn_index: int, view: Mapping, qubits: list[int]):
        """The prover's gate applied to ``state`` like a fixed operator, or a factored one's parts in order."""
        gate = strategy.gate_fn(turn_index, view)
        parts = gate.parts(qubits, state.n) if isinstance(gate, FactoredOp) else [(gate, qubits)]
        for matrix, targets in parts:
            state = self.apply(state, matrix, targets)
        return state

    def project(self, state: _State, parts: list[list[int]], outcome: int) -> _State:
        return state.measured(_joint(parts), outcome)

    def _keep(self, masses: np.ndarray, weight: float) -> list[tuple[int, float]]:
        """The ``(index, weight)`` of each child whose mass is above ``PRUNE_TOL``: the branch ``weight``."""
        return [(int(i), weight) for i in np.flatnonzero(masses > PRUNE_TOL)]

    def coin(self, n: int, weight: float) -> list[tuple[int, float]]:
        return [(value, weight / n) for value in range(n)]

    def outcomes(self, state: _State, parts: list[list[int]], weight: float) -> list[tuple[int, float]]:
        """Kept joint outcomes from one weight pass; each part's marginal holds at least the joint weight."""
        return self._keep(state.weights(_joint(parts)), weight)

    def check(self, state: _State, projector: np.ndarray, qubits: list[int], weight: float) -> list[tuple]:
        """The kept ``(index, child, weight)`` of a check, hit (0) then miss (1)."""
        hit = self.apply(state, projector, qubits)
        state = state.placed(hit.free)  # the qubits the projector freed: the miss needs them too
        children = [hit, _State(state.vec - hit.vec, hit.free, hit.bits, hit.n)]
        masses = np.array([_norm2(child.vec) for child in children])
        return [(i, children[i], kept) for i, kept in self._keep(masses, weight)]


class _Sample(_Exact):
    """Deal a branch's trials over its children: its weight is its number of trials.

    A fork splits them by one multinomial draw on the children's masses
    (uniform for a coin, the joint weight table for a group of
    measurements, the two squared norms for a check), divided by their sum:
    the squared norm that the marginal holds, so no pass renormalises.  Only
    the children dealt a trial are kept, with their counts as weights, and
    a fork whose masses sum to at most ``PRUNE_TOL`` keeps none.  Dealing N
    independent trials down the tree this way draws their leaves as N
    independent one-branch walks would.
    """

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.rng = rng

    def _keep(self, masses: np.ndarray, weight: int) -> list[tuple[int, int]]:
        total = masses.sum()
        if total <= PRUNE_TOL:
            return []
        counts = self.rng.multinomial(weight, masses / total)
        return [(int(i), int(counts[i])) for i in np.flatnonzero(counts)]

    def coin(self, n: int, weight: int) -> list[tuple[int, int]]:
        return self._keep(np.ones(n), weight)


class _Record(_Exact):
    """Keep every child and carry recorded operators instead of amplitudes.

    A branch's state is a chain ``(previous, op)`` that starts from the
    initial vector, which it never changes.  A fixed operator is recorded as
    its :class:`~dqip.qcore.StructuredOp` (:meth:`_Exact.op`, so each is
    classified once and branches through the same prefix hold the same op
    objects), a prover gate as a ``(block key, qubits)`` pair.
    :func:`_recorded` lists a chain.  The classical flow never reads
    amplitudes.

    A fixed operator on none of the qubits of the outcome selectors that end
    the chain is recorded before them: a selector is a 0/1 diagonal, so the
    two commute exactly, and the branches of those outcomes share the
    operator as a prefix, which a replay on full vectors applies once.
    """

    records = True

    def __init__(self):
        super().__init__()
        self._misses: dict = {}  # id(projector) -> (projector, I - projector), so one op per check projector
        self._selectors: set = set()  # ids of the outcome selectors' ops, which the op cache holds

    def apply(self, chain, matrix: np.ndarray, qubits: list[int]):
        selectors = []
        while isinstance(chain, tuple) and id(chain[1]) in self._selectors and not set(chain[1].targets) & set(qubits):
            chain, selector = chain
            selectors.append(selector)
        chain = chain, self.op(matrix, qubits)
        for selector in reversed(selectors):
            chain = chain, selector
        return chain

    def prover(self, chain, strategy: ProverStrategy, turn_index: int, view: Mapping, qubits: list[int]):
        return chain, (block_key(turn_index, view), tuple(qubits))

    def project(self, chain, parts: list[list[int]], outcome: int):
        for qubits, digit in zip(parts, _digits(outcome, parts)):
            selector = self.op(qcore.basis_projector(len(qubits), digit), qubits)
            self._selectors.add(id(selector))
            chain = chain, selector
        return chain

    def outcomes(self, chain, parts: list[list[int]], weight: float) -> list[tuple[int, float]]:
        return [(outcome, weight) for outcome in range(2 ** sum(map(len, parts)))]

    def check(self, chain, projector: np.ndarray, qubits: list[int], weight: float) -> list[tuple]:
        if id(projector) not in self._misses:
            self._misses[id(projector)] = (projector, np.eye(len(projector)) - projector)
        miss = self._misses[id(projector)][1]
        return [(0, self.apply(chain, projector, qubits), weight), (1, self.apply(chain, miss, qubits), weight)]


def _recorded(chain) -> list:
    """The operators of a record-walk chain, first to last."""
    ops = []
    while isinstance(chain, tuple):
        chain, op = chain
        ops.append(op)
    return ops[::-1]


def _view(branch: _Branch, actor: int) -> dict:
    try:
        return branch.views[actor]
    except KeyError:
        raise ProtocolError(f"actor {actor!r} is neither the prover nor a node of the network") from None


def _set_value(branch: _Branch, name: str, value, visible_to: Iterable[int]) -> None:
    if name in branch.values:
        raise ProtocolError(f"classical variable {name!r} assigned twice")
    branch.values[name] = value
    for actor in visible_to:
        branch.views[actor] = {**_view(branch, actor), name: value}


def _all_actors(graph: NetworkGraph) -> list[int]:
    return [PROVER] + list(range(graph.node_count))


class _Executor:
    """The turn walk: every branch runs one event schedule, depth first.

    The schedule holds ``(function, event, label)`` entries; a prover
    turn's event is its ``(number, turn)`` pair.  A plain event
    changes the branch in place; a fork (a coin, a measurement or a check)
    returns a generator of the branch's kept children, and each child walks
    the rest of the schedule before the next is built.  ``policy``
    (:class:`_Exact` by default, :class:`_Sample` or :class:`_Record`)
    decides which children are kept and what a branch's state carries.
    """

    def __init__(self, spec: ProtocolSpec, strategy: ProverStrategy, policy: _Exact | None = None):
        self.spec = spec
        self.strategy = strategy
        self.policy = policy or _Exact()
        self.layout = spec.layout
        self.graph = spec.graph
        for accept in spec.verification.accepts:
            if accept.node not in range(self.graph.node_count):
                raise ProtocolError(f"verification: accept node {accept.node!r} is not a node of the network")
        self._projectors: dict = {}  # id(matrix) -> matrix, each accept matrix checked once (see accept_ops)
        self._receives = [(u, v, f"recv:{v}") for u in range(self.graph.node_count) for v in self.graph.neighbors(u)]
        # Plain functions, not bound methods: the executor must not refer to
        # itself, or the states it caches would wait for the cyclic collector.
        schedule = []
        for position, turn in enumerate(spec.turns, 1):
            if isinstance(turn, ProverTurn):
                schedule.append((_Executor._prover_turn, (position, turn), f"turn {position} (prover)"))
                continue
            label = f"turn {position} (verifier)"
            schedule += [(_Executor._flip_coin, coin, label) for coin in turn.coins]
            schedule += _local_events(turn, label)
            schedule.append((_Executor._send, turn, label))
        self.schedule = schedule + _local_events(spec.verification, "verification")

    @functools.cached_property
    def initial(self) -> _State:
        """The initial state, built once and shared by every walk: each initial factor prepared
        on its qubits from |0...0>, so its slice is their Kronecker product and the rest is fixed."""
        state = _State(np.ones(1, dtype=np.complex128), (), 0, self.layout.total_qubits)
        for prep, qubits in _preparations(self.spec):
            state = state.apply(StructuredOp, prep, qubits)
        return state

    def check_budget(self) -> None:
        """Refuse a walk that could hold more states at once than ``qcore.MAX_DENSE_BYTES``.

        The deepest path holds the initial state, the current one and two
        built from it, plus one per open fork: the parent of a verifier
        turn's coins or of a group of measurements, and a check's second child.
        Each is counted at the full ``2^n`` entries, an upper bound on a slice.
        """
        forks = [entry for entry in self.schedule if entry[0] in _FORKS]
        coin_turns = {label for function, _, label in forks if function is _Executor._flip_coin}
        live = 4 + len(coin_turns) + sum(function is not _Executor._flip_coin for function, _, _ in forks)
        state_bytes = 16 * 2**self.layout.total_qubits
        last = forks[-1][1] if forks else None
        last = last[-1] if isinstance(last, list) else last  # a group of measurements is named by its last
        deepest = f", deepest fork {forks[-1][2]} {last.name!r}" if forks else ""
        what = f"walk of {self.spec.name!r} ({live} states of {state_bytes} bytes{deepest})"
        qcore.check_budget(live * state_bytes, what)

    # -- the walk -------------------------------------------------------------

    def leaves(self, weight: float = 1.0) -> Iterator[tuple[_Branch, dict[int, dict]]]:
        """Every kept leaf, one at a time, with its nodes' verification views; the root holds
        ``weight`` (on the sampled walk, the number of trials)."""
        if not self.policy.records:
            self.check_budget()
        owner = {name: self.layout.owner(name) for name in self.layout.names()}
        branch = _Branch(weight, self.initial, {}, dict.fromkeys(_all_actors(self.graph), {}), owner)
        for leaf in self._walk(branch, 0):
            yield leaf, self._verification_views(leaf)
            del leaf

    def _walk(self, branch: _Branch, start: int):
        for i in range(start, len(self.schedule)):
            function, item, label = self.schedule[i]
            children = function(self, branch, item, label)
            if children is not None:
                for child in children:
                    yield from self._walk(child, i + 1)
                    del child
                return
        yield branch

    def _fork(self, branch: _Branch, values: list[list[tuple]], states: Iterable, weights: list[float]):
        """The children of ``branch``, one at a time, one per list of ``(name, value, visible)``
        with its weight in ``weights``.

        ``states`` builds each child's state when it is reached; the last
        one releases the parent's.
        """
        for k, (assigned, weight) in enumerate(zip(values, weights)):
            child = _Branch(weight, next(states), dict(branch.values), dict(branch.views), dict(branch.owner))
            if k == len(values) - 1:
                branch.state = None
            for name, value, visible in assigned:
                _set_value(child, name, value, visible)
            yield child
            del child

    # -- events ---------------------------------------------------------------

    def _check_ownership(self, branch: _Branch, actors: tuple, regs: list[str], label: str, who: str = "") -> None:
        for base in (split_register(name)[0] for name in regs):
            if base not in branch.owner:
                raise ProtocolError(f"{label}: unknown register {base!r}")
            if branch.owner[base] not in actors:
                who = who or ("prover" if actors == (PROVER,) else f"node {actors[0]}")
                raise ProtocolError(f"{label}: register {base!r} is not held by {who}")

    def _move(self, branch: _Branch, register: str, new_owner: int, label: str) -> None:
        if register not in branch.owner:
            raise ProtocolError(f"{label}: unknown register {register!r}")
        branch.owner[register] = new_owner

    def _prover_turn(self, branch: _Branch, numbered: tuple[int, ProverTurn], label: str) -> None:
        position, turn = numbered
        view = _view(branch, PROVER)
        regs = list(turn_field(turn.acts_on, view))
        self._check_ownership(branch, (PROVER,), regs, label)
        qubits = self.layout.expand(regs)
        try:
            branch.state = self.policy.prover(branch.state, self.strategy, position, view, qubits)
        except LayoutError as err:
            raise ProtocolError(f"{label}: strategy gate on {len(qubits)} qubits: {err}") from err
        for slot in turn.replies:
            value = int(self.strategy.reply(slot.name, view))
            if not 0 <= value < slot.num_values:
                raise ProtocolError(f"{label}: reply {slot.name!r}={value} out of range")
            _set_value(branch, slot.name, value, [PROVER, *slot.audience])
            view = _view(branch, PROVER)  # the prover sees its own replies
        for register, node in turn_field(turn.delivers, view):
            self._move(branch, register, node, label)

    def _send(self, branch: _Branch, turn: VerifierTurn, label: str) -> None:
        for register in turn_field(turn.sends, _view(branch, PROVER)):
            if branch.owner.get(register) == PROVER:
                raise ProtocolError(f"{label}: register {register!r} already at the prover")
            self._move(branch, register, PROVER, label)

    def _apply_step(self, branch: _Branch, step: Step, label: str) -> None:
        resolved = step.resolve(_view(branch, step.actor))
        if resolved is None:
            return
        matrix, regs = resolved
        self._check_ownership(branch, (step.actor,), regs, label)
        qubits = self.layout.expand(regs)
        try:
            branch.state = self.policy.apply(branch.state, np.asarray(matrix, dtype=np.complex128), qubits)
        except LayoutError as err:
            raise ProtocolError(f"{label}: operator on {regs}: {err}") from err

    def _flip_coin(self, branch: _Branch, coin: CoinFlip, label: str):
        kept = self.policy.coin(coin.num_values, branch.weight)
        visible = _all_actors(self.graph) if coin.owner is None else [PROVER, coin.owner]
        values = [[(coin.name, v, visible)] for v, _ in kept]
        return self._fork(branch, values, (branch.state for _ in kept), [weight for _, weight in kept])

    def _measure(self, branch: _Branch, group: list[Measurement], label: str):
        """One fork on the joint outcome of a group, each member resolved from its node's view
        (empty ones skipped); the first's outcome is most significant, as in one fork each."""
        members, parts = [], []
        for m in group:
            regs = m.resolve_targets(_view(branch, m.node))
            if regs:
                self._check_ownership(branch, (m.node,), regs, label)
                members.append((m.name, [m.node, PROVER] if m.to_prover else [m.node]))
                parts.append(self.layout.expand(regs))
        if not members:
            return None
        kept = self.policy.outcomes(branch.state, parts, branch.weight)
        states = (self.policy.project(branch.state, parts, outcome) for outcome, _ in kept)
        values = [[(name, d, visible) for (name, visible), d in zip(members, _digits(o, parts))] for o, _ in kept]
        return self._fork(branch, values, states, [weight for _, weight in kept])

    def _projective_check(self, branch: _Branch, check: ProjectiveCheck, label: str):
        if len(check.nodes) > 1 and not self.spec.allow_node_exchange:
            raise ProtocolError(f"{label}: cross-node check {check.name!r} requires node exchange")
        resolved = check.resolve({k: v for node in check.nodes for k, v in _view(branch, node).items()})
        if resolved is None:
            return None
        projector, regs = resolved
        self._check_ownership(branch, check.nodes, regs, label, "the checking nodes")
        qubits, projector = self.layout.expand(regs), np.asarray(projector, dtype=np.complex128)
        try:
            children = self.policy.check(branch.state, projector, qubits, branch.weight)
        except LayoutError as err:
            raise ProtocolError(f"{label}: check {check.name!r} on {regs}: {err}") from err
        branch.state = None  # the kept children replace it
        values = [[(check.name, 1 - i, check.nodes)] for i, _, _ in children]
        weights = [weight for _, _, weight in children]
        pending = [child for _, child, _ in children]  # popped when reached: nothing else holds a child's first state
        del children
        return self._fork(branch, values, (pending.pop(0) for _ in weights), weights)

    # -- verification ---------------------------------------------------------

    def _verification_views(self, branch: _Branch) -> dict[int, dict]:
        sent = {bc.node: bc.fn(_view(branch, bc.node)) for bc in self.spec.verification.broadcasts}
        views = {u: dict(branch.views[u]) for u in range(self.graph.node_count)}
        for u, v, key in self._receives:
            if v in sent:
                views[u][key] = sent[v]
        return views

    def accept_ops(self, branch: _Branch, views: dict[int, dict]) -> tuple[list, dict[int, bool]]:
        """Per-node accept projectors (resolved, each matrix checked on its first leaf) and whether each
        node's predicates pass."""
        ops = []
        passed = {u: True for u in range(self.graph.node_count)}
        for accept in self.spec.verification.accepts:
            view = views[accept.node]
            passed[accept.node] &= accept.predicate is None or bool(accept.predicate(view))
            if accept.projector is not None:
                resolved = accept.projector(view)
                if resolved is not None:
                    matrix, regs = resolved
                    matrix = np.asarray(matrix, dtype=np.complex128)
                    if id(matrix) not in self._projectors:
                        check_projector(matrix)
                        self._projectors[id(matrix)] = matrix
                    ops.append((accept.node, matrix, self.layout.expand(regs)))
        return ops, passed

    def acceptance(self, branch: _Branch, views: dict[int, dict], project: bool = False) -> tuple:
        """A leaf's squared norm, joint and per-node accept masses ``||A psi||^2`` before its weight, and
        with ``project`` its accept-projected state ``A psi`` (``None`` if a predicate fails), for ``A``
        the accept ops (node ``u``'s alone for its mass) applied in order through the policy's op cache.

        The joint's ops are applied once, keeping each intermediate state and its squared norm, and
        only as far as a read needs them: a node whose ops are the first ones in ``ops`` (or who has
        none) reads its mass there."""
        ops, passed = self.accept_ops(branch, views)
        prefix, masses = [branch.state], {}  # prefix[k]: the state with ops[:k] applied; masses[k]: its mass

        def mass(k: int) -> float:
            for _, matrix, qubits in ops[len(prefix) - 1 : k]:
                prefix.append(self.policy.apply(prefix[-1], matrix, qubits))
            if k not in masses:
                masses[k] = _norm2(prefix[k].vec)
            return masses[k]

        joint = all(passed.values())
        p_all = mass(len(ops)) if joint else 0.0
        per_node = dict.fromkeys(passed, 0.0)
        for u in (u for u, ok in passed.items() if ok):
            mine = [op for op in ops if op[0] == u]
            if all(a is b for a, b in zip(mine, ops)):  # u's ops come first: the joint's prefix holds its state
                per_node[u] = mass(len(mine))
                continue
            state = branch.state
            for _, matrix, qubits in mine:
                state = self.policy.apply(state, matrix, qubits)
            per_node[u] = _norm2(state.vec)
        return mass(0), p_all, per_node, prefix[-1] if project and joint else None


_FORKS = (_Executor._flip_coin, _Executor._measure, _Executor._projective_check)


def _preparations(spec: ProtocolSpec) -> list[tuple[np.ndarray, list[int]]]:
    """Each initial factor as the ``(matrix, qubits)`` that prepares it from |0...0>: its column 0."""
    preparations = []
    for regs, factor in spec.initial_factors:
        qubits = spec.layout.expand(regs)
        factor = np.asarray(factor, dtype=np.complex128)
        if factor.size != 2 ** len(qubits):
            raise ValidationError(f"initial factor on {regs} has wrong dimension")
        prep = np.zeros((factor.size, factor.size), dtype=np.complex128)
        prep[:, 0] = factor
        preparations.append((prep, qubits))
    return preparations


def initial_vector(spec: ProtocolSpec) -> np.ndarray:
    """The initial state as a full vector: each preparation applied to |0...0> through the gate kernel."""
    vec = np.zeros(2**spec.layout.total_qubits, dtype=np.complex128)
    vec[0] = 1.0
    for prep, qubits in _preparations(spec):
        vec = apply_matrix_vec(vec, prep, qubits)
    return vec


def _local_events(part: VerifierTurn | VerificationPhase, label: str) -> list[tuple]:
    """Schedule entries for the nodes' steps and measurements of a turn or phase, in the order
    listed (``steps``, then ``measurements``), then its checks."""
    events: list[tuple] = []
    for event in (*part.steps, *part.measurements):
        if not isinstance(event, Measurement):
            events.append((_Executor._apply_step, event, label))
        elif events and events[-1][0] is _Executor._measure and event.node not in {m.node for m in events[-1][1]}:
            events[-1][1].append(event)  # each maximal run by distinct nodes forks once
        else:
            events.append((_Executor._measure, [event], label))
    return events + [(_Executor._projective_check, check, label) for check in part.checks]


# ---------------------------------------------------------------------------
# Reports and execution entry points
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

    def to_json(self) -> dict:
        """Every field but ``output_state``, which the reports leave out."""
        return {
            "acceptance_probability": self.acceptance_probability,
            "mode": self.mode,
            "per_node_acceptance": {str(k): v for k, v in self.per_node_acceptance.items()},
            "seed": self.seed,
            "trials": self.trials,
            "wilson_interval": self.wilson_interval,
            "derived": self.derived,
            "metadata": self.metadata,
        }


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    if trials <= 0:
        raise ValidationError("wilson_interval needs at least one trial")
    phat = successes / trials
    denom = 1 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def execute_exact(spec: ProtocolSpec, prover: ProverStrategy, collect_output: bool = False) -> RunReport:
    """Exact acceptance probability by branch-averaging all classical events."""
    executor = _Executor(spec, prover)
    acceptance = 0.0
    node_acc = {u: 0.0 for u in range(spec.graph.node_count)}
    out_mat = None
    project = collect_output and spec.output_registers is not None
    for branch, views in executor.leaves():
        _, p_all, per_node, projected = executor.acceptance(branch, views, project)
        acceptance += branch.weight * p_all
        for u, p_u in per_node.items():
            node_acc[u] += branch.weight * p_u
        if projected is not None:
            regs = spec.output_registers(branch.values)
            red = branch.weight * projected.density(spec.layout.expand(regs))
            out_mat = red if out_mat is None else out_mat + red
        del branch, projected  # the walk frees a leaf's states only once nothing else holds them

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
    """Monte-Carlo execution: ``trials`` sampled histories, accepts counted.

    The trials walk down one branch tree: the root holds all of them, and
    each fork deals its branch's trials over the children by one multinomial
    draw (see :class:`_Sample`), which draws the leaves as ``trials``
    independent one-branch walks would.  A leaf holding ``k`` trials adds
    ``a ~ Binomial(k, p)`` joint accepts, and node ``u`` accepts those and
    ``Binomial(k - a, (p_u - p) / (1 - p))`` more, for its accept probabilities
    ``p <= p_u``: ``Binomial(k, p_u)`` in all, never below the joint.  Trials
    dealt to a fork or a leaf that reads no mass reject for all.  Every draw
    comes from one generator seeded by ``seed`` and the spec's name, so the
    report is a function of them.
    """
    if trials < 1:
        raise ValidationError("execute_sampled needs at least one trial")
    rng = substream(seed, "protocol.execute_sampled", spec.name)
    executor = _Executor(spec, prover, _Sample(rng))
    successes = 0
    node_hits = {u: 0 for u in range(spec.graph.node_count)}
    for branch, views in executor.leaves(trials):
        total, p_all, per_node, _ = executor.acceptance(branch, views)
        if total <= PRUNE_TOL:
            continue
        accepts = int(rng.binomial(branch.weight, min(max(p_all / total, 0.0), 1.0)))
        successes += accepts
        for u, p_u in per_node.items():  # u accepts the joint's accepts and some of its rejects
            rest = min(max((p_u - p_all) / (total - p_all), 0.0), 1.0) if total > p_all else 0.0
            node_hits[u] += accepts + int(rng.binomial(branch.weight - accepts, rest))
    return RunReport(
        acceptance_probability=successes / trials,
        mode="sampled",
        per_node_acceptance={u: node_hits[u] / trials for u in range(spec.graph.node_count)},
        seed=seed,
        trials=trials,
        wilson_interval=wilson_interval(successes, trials),
        metadata={"protocol": spec.name, "turns": spec.num_turns, "strategy": prover.name},
    )


def variable_marginal(spec: ProtocolSpec, prover: ProverStrategy, name: str, value) -> float:
    """Probability that classical variable ``name`` ends with ``value``.

    Sums branch weight times squared norm over all leaves agreeing with the
    value; coins, replies and measurement outcomes are all addressable.
    """
    total = 0.0
    for branch, _ in _Executor(spec, prover).leaves():
        if branch.values.get(name) == value:
            total += branch.weight * _norm2(branch.state.vec)
    return total


# ---------------------------------------------------------------------------
# Branch recording
# ---------------------------------------------------------------------------


@dataclass
class BranchPath:
    """One classical leaf of a protocol: coin weight and recorded operators.

    ``ops`` holds, in the order applied, a :class:`~dqip.qcore.StructuredOp`
    per fixed operator and a ``(block key, qubits)`` pair per prover gate;
    ``accept`` holds the nodes' accept projectors as structured ops.  Paths
    through the same prefix hold the same op objects.  Predicate-failing
    leaves are dropped, so the acceptance probability of a strategy
    assigning unitaries to the blocks is
    ``sum_b weight_b * || accept(ops(|init>)) ||^2``.
    """

    weight: float
    ops: list
    accept: list[StructuredOp]


def collect_paths(spec: ProtocolSpec, strategy: ProverStrategy) -> tuple[list[BranchPath], np.ndarray]:
    """Record every classical branch with prover gates left symbolic.

    The classical skeleton (transcripts, replies, ownership) is fixed by the
    strategy's reply functions; the record walk keeps every measurement
    outcome, so the recorded paths stay valid for any unitary assignment to
    the blocks.  Returns the paths of the leaves whose predicates pass and
    the initial state as a full vector (:func:`initial_vector`), which the
    see-saw replays them from.
    """
    executor = _Executor(spec, strategy, _Record())
    paths = []
    for branch, views in executor.leaves():
        ops, passed = executor.accept_ops(branch, views)
        if all(passed.values()):
            accept = [executor.policy.op(matrix, qubits) for _, matrix, qubits in ops]
            paths.append(BranchPath(branch.weight, _recorded(branch.state), accept))
    return paths, initial_vector(spec)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def spec_to_json(spec: ProtocolSpec) -> dict:
    """Stable JSON form: turn list, gate matrices as [re, im] pairs, registers.

    The spec golden files' serializer; it converts the describes' arrays, which no build does."""

    def event_json(event: Step | Measurement) -> dict:
        if isinstance(event, Measurement):
            return event.describe or {"name": event.name, "node": event.node}
        return event.describe

    def turn_json(position: int, turn) -> dict:
        if isinstance(turn, ProverTurn):
            return {
                "type": "prover",
                "index": position,
                "acts_on": list(turn.acts_on) if not callable(turn.acts_on) else "dynamic",
                "delivers": [list(d) for d in turn.delivers] if not callable(turn.delivers) else "dynamic",
                "replies": [
                    {"name": r.name, "num_values": r.num_values, "audience": list(r.audience)} for r in turn.replies
                ],
            }
        return {
            "type": "verifier",
            "index": position,
            "coins": [{"name": c.name, "num_values": c.num_values, "owner": c.owner} for c in turn.coins],
            "steps": [event_json(s) for s in turn.steps],
            "measurements": [event_json(m) for m in turn.measurements],
            "checks": [c.describe or {"name": c.name} for c in turn.checks],
            "sends": list(turn.sends) if not callable(turn.sends) else "dynamic",
        }

    phase = spec.verification
    return _json_ready({
        "format": "dqip-protocol/1",
        "name": spec.name,
        "nodes": spec.graph.node_count,
        "edges": sorted(list(e) for e in spec.graph.edges),
        "registers": [
            {"name": name, "start": start, "size": size, "owner": spec.layout.owner(name)}
            for name, start, size in spec.layout.registers
        ],
        "turns": [turn_json(position, t) for position, t in enumerate(spec.turns, 1)],
        "verification": {
            "steps": [event_json(s) for s in phase.steps],
            "w_swap": False,  # dqip-protocol/1 keeps the key; no spec exchanges W registers
            "measurements": [event_json(m) for m in phase.measurements],
            "checks": [c.describe or {"name": c.name} for c in phase.checks],
            "broadcasts": [b.describe or {"node": b.node} for b in phase.broadcasts],
            "accepts": [a.describe | {"node": a.node} for a in phase.accepts],
        },
        "allow_node_exchange": spec.allow_node_exchange,
        "metadata": spec.metadata,
    })


def _json_ready(obj):
    """``obj`` with each array in it, at any depth, converted by :func:`matrix_to_json`."""
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    return matrix_to_json(obj) if isinstance(obj, np.ndarray) else obj
