"""Adversarial-prover optimization: coordinate-ascent see-saw and the exact
single-message spectral optimum.

Acceptance of a strategy is ``sum_b w_b || A_b K_b(U_1, U_2, ...) |init> ||^2``
over recorded classical branches ``b`` (coins, replies, measurement
outcomes), where each ``K_b`` is a product of fixed linear maps and prover
unitaries.  The see-saw lifts this to the linear objective

    L({a_b}, {U}) = sum_b w_b Re <a_b| A_b K_b |init>,

whose maximum over the witness vectors ``a_b`` recovers the acceptance.
Holding everything but one unitary fixed, L = Re tr(U M) for a computable
matrix M, and the exact single-block maximizer is the unitary polar factor
of M (from its SVD).  Every block update is an exact maximization, so the
acceptance recorded after each sweep is non-decreasing; the result is a
certified lower bound on the optimal cheating probability.

A *preparation* block is one that no earlier op touches on its qubits, on
any path that visits it, and whose qubits no initial factor covers: it
meets them at |0...0>, so only its column 0, a unit vector ``u``, acts.
Its M is rank one, ``|0><s|``, and ``u = s / ||s||`` is the exact maximizer
over unit vectors: no SVD and no dense ``2^q x 2^q`` gate.  A Haar restart
draws ``u`` as a Haar-random state, and the honest start takes the honest
gate's column 0 (a factored gate's factors applied to ``e_0``).
:attr:`OptimizerTrace.best_strategy` completes ``u`` to a unitary only when
asked.

Both optimizers set up their replay one way: :class:`_Trie` records the
spec's branches for a skeleton prover (gates left symbolic, replies from
the honest strategy's reply function when there is one), finds the
preparation blocks and compiles each path once, fusing fixed ops where that
is exact and folding the fixed ops ``T`` after its last prover block that no
other path shares, with its accept projectors, into one accept form
``E = T^dag T``, so that the path's value is ``w Re <z, E z>`` at the front
``z`` before ``T``.  The paths are
replayed by one walk, :func:`_forward`, over that trie: a sweep's forward
half, each restart's starting value and, once per basis message, the
operator of the single-message optimum all go through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ShapeError, ValidationError
from .protocol import (
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    block_key,
    collect_paths,
    turn_field,
)
from .qcore import (
    FactoredOp,
    StructuredOp,
    _keep_block,
    apply_columns,
    apply_matrix_vec,
    check_budget,
    circuit_matrix,
    dense_matrix,
    haar_matrix,
    haar_state,
    outcome_slice,
)
from .seeding import substream

# A restart stops once a sweep gains less than this.
CONVERGENCE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    sweeps: int = 120
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.sweeps < 1 or self.restarts < 1:
            raise ValidationError("sweeps >= 1 and restarts >= 1 required")


@dataclass
class OptimizerTrace:
    """A see-saw's result.  ``best_gates`` holds the best restart's gate per
    :func:`~dqip.protocol.block_key`: a unitary, or for a preparation block
    the unit vector it prepares.  ``best_strategy`` looks its gates up there,
    completes such a vector to a unitary with that column 0, and gives the
    identity to a block that no recorded path meets (every leaf below it
    fails a predicate)."""

    best_acceptance: float
    best_strategy: ProverStrategy
    best_gates: dict = field(default_factory=dict)
    sweep_acceptance: list[list[float]] = field(default_factory=list)  # per restart
    restarts: int = 0

    def to_json(self) -> dict:
        return {
            "best_acceptance": self.best_acceptance,
            "restarts": self.restarts,
            "sweep_acceptance": self.sweep_acceptance,
        }


# ---------------------------------------------------------------------------
# Gate application and path compilation
# ---------------------------------------------------------------------------


@functools.cache
def _zero_column(k: int) -> np.ndarray:
    column = np.zeros((2**k, 1), dtype=np.complex128)
    column[0, 0] = 1.0
    return column


def _apply_preparation(vec: np.ndarray, u: np.ndarray, qubits) -> np.ndarray:
    """A preparation block: the slice at |0...0> on ``qubits``, with ``u`` placed there."""
    return apply_columns(outcome_slice(vec, qubits, 0), u[:, None], (), qubits)


def _unapply_preparation(vec: np.ndarray, u: np.ndarray, qubits) -> np.ndarray:
    """The adjoint of a preparation block: ``vec`` contracted with ``u*`` on ``qubits``, placed at |0...0>."""
    return apply_columns(u.conj() @ _keep_block(vec, qubits), _zero_column(len(qubits)), (), qubits)


def _first_column(gate) -> np.ndarray:
    """Column 0 of a strategy gate; a factored gate's factors are applied to ``e_0``, so no dense form is built."""
    if not isinstance(gate, FactoredOp):
        return np.ascontiguousarray(np.asarray(gate, dtype=np.complex128)[:, 0])
    vec = np.zeros(2**gate.arity, dtype=np.complex128)
    vec[0] = 1.0
    for mat, positions in gate.factors:
        vec = apply_matrix_vec(vec, mat, positions)
    return vec


def _completed(u: np.ndarray, what: str) -> np.ndarray:
    """A unitary whose column 0 is the unit vector ``u``: a phase times one Householder reflection.

    With ``v = conj(phase) u`` real and non-negative at index 0, the
    reflection along ``e_0 + v`` takes ``e_0`` to ``-v`` without
    cancellation.  Raises :class:`CapacityError` naming ``what`` before the
    three ``dim x dim`` arrays the build holds exceed the budget.
    """
    dim = u.size
    check_budget(3 * 16 * dim * dim, what)
    phase = u[0] / abs(u[0]) if u[0] != 0 else 1.0
    w = np.conj(phase) * u
    w[0] += 1.0
    reflection = np.eye(dim, dtype=np.complex128)
    reflection -= (2 / np.vdot(w, w).real) * np.outer(w, w.conj())
    return -phase * reflection


def _selector(op: StructuredOp) -> bool:
    """A 0/1 diagonal: an outcome's selector or an accept projector."""
    return op.kind == "diagonal" and bool(np.all((op.matrix == 0) | (op.matrix == 1)))


def _qubits(ops) -> list[int]:
    return sorted(set().union(*(op.targets for op in ops)))


def _fuses(run: list, op: StructuredOp, num_qubits: int) -> bool:
    """Whether ``op`` after the fixed ops of ``run`` fuses with them into one exact op.

    Permutations compose exactly, and so does a diagonal with a 0/1 one;
    the composite must also fit the state (``4^k <= 2^n``, the rule of
    :meth:`~dqip.qcore.FactoredOp.parts`).
    """
    kind = run[0].kind
    if op.kind != kind or kind not in ("permutation", "diagonal"):
        return False
    if kind == "diagonal" and not (_selector(op) or all(_selector(part) for part in run)):
        return False
    return 4 ** len(_qubits([*run, op])) <= 2**num_qubits


def _runs(ops: list, num_qubits: int, joins: Callable = lambda a, b: True) -> list:
    """``ops`` in order, their fixed ops cut greedily into runs, lists of ops that fuse (:func:`_fuses`)
    where ``joins`` allows; prover blocks stay as they are."""
    runs: list = []
    for op in ops:
        run = runs[-1] if runs and isinstance(runs[-1], list) else None
        if isinstance(op, StructuredOp) and run and joins(run[-1], op) and _fuses(run, op, num_qubits):
            run.append(op)
        else:
            runs.append([op] if isinstance(op, StructuredOp) else op)
    return runs


def _dense(ops: list, what: str) -> tuple[np.ndarray, list[int]]:
    """The fixed ``ops`` applied in order, as one matrix on the union of their targets, and that union."""
    qubits = _qubits(ops)
    position = {q: j for j, q in enumerate(qubits)}
    return circuit_matrix(len(qubits), [(op.matrix, [position[q] for q in op.targets]) for op in ops], what), qubits


def _composite(run: list, what: str) -> StructuredOp:
    return run[0] if len(run) == 1 else StructuredOp(*_dense(run, what))


class _Trie:
    """The paths a spec records for the skeleton prover, compiled once and merged on their shared prefixes.

    The skeleton prover leaves every gate symbolic and answers each
    classical reply with ``reply_fn`` (:func:`~dqip.protocol.collect_paths`).
    ``blocks`` maps each block key to its qubits, which must agree across
    paths, sorted by turn and then view; ``order`` lists the blocks a sweep
    updates, those of the turns not in ``frozen``; ``preparations`` holds the
    keys of the preparation blocks (see the module docstring).

    A path is compiled in two parts, identities dropped.  Its *head*, the
    ops up to its last prover block, enters the trie.  Its *tail*
    (``tails[i]``), the fixed ops ``T`` after that block and then its accept
    projectors, becomes its accept form ``accept[i]``: ops that take the
    head's last front ``z`` to ``E z``, ``E = T^dag T``, one dense op when
    ``E`` fits the state (``4^k <= 2^n``) and otherwise ``T`` then ``T^dag``,
    fused as below.  Such a chain runs ``T`` once per path, so where another
    path with a chain-form tail holds the first fixed ops of ``T`` after the
    same prefix, those ops move to the head, and the trie runs them once per
    forward.  Paths with the same tail share one form.  Fixed ops fuse exactly:
    adjacent permutations compose into one, and so does a diagonal with an
    adjacent 0/1 diagonal, greedily in path order, when the union of their
    targets keeps ``4^k <= 2^n``, so that no composite is wider than a state
    vector.  In a head an op fuses with the next only where every head that
    holds it goes on to that op (none ends at it), so the paths keep their
    shared prefixes.

    Node 0 stands for the initial state; node ``j > 0`` applies ``op[j]``, a
    fixed op or a ``(block key, qubits)`` pair, to the front of
    ``parent[j]``.  Children are keyed by the identities of their fixed ops
    (paths through the same prefix hold the same op objects) or by the pair.
    ``chains[i]`` lists path ``i``'s nodes from the root and ``ends[j]`` the
    paths whose heads end at node ``j``.  ``schedule[s]`` holds, in creation
    order, the nodes whose nearest updated block at or above them is
    ``order[s - 1]`` (none for ``s = 0``), so their fronts are computed right
    after that update; ``updates`` maps the first stage of each turn to that
    turn's keys, which are updated together.  A front is kept while its node
    has children (``holds``) until the last of them is computed
    (``releases`` marks it); ``peak_fronts`` is the most fronts a sweep holds
    at once, counting the one being computed.

    The constructor only plans: ``operators`` and ``operator_bytes`` count
    the composites, the accept forms and the adjoints of the fixed ops a
    sweep's backward half applies, 16 bytes per entry of each dense form, so
    that a caller can check them before :meth:`compile` builds them and
    binds, once per trie, each node's ``step`` and each path's ``backward``
    program.
    """

    def __init__(self, spec: ProtocolSpec, reply_fn: Callable | None = None, frozen: tuple[int, ...] = ()):
        paths, self.initial = collect_paths(spec, ProverStrategy("skeleton", lambda *_: None, reply_fn))
        self.name, self.num_qubits = spec.name, self.initial.size.bit_length() - 1
        n = self.num_qubits
        blocks: dict = {}
        for op in (op for path in paths for op in path.ops if not isinstance(op, StructuredOp)):
            if blocks.setdefault(*op) != op[1]:
                raise ValidationError("prover block appears with inconsistent targets")
        self.blocks = dict(sorted(blocks.items(), key=lambda item: (item[0][0], repr(item[0][1]))))
        order = [key for key in self.blocks if key[0] not in frozen]
        self.paths, self.order = paths, order
        self._adjoints: dict = {}  # id(op) -> its adjoint; the trie or the paths hold each op, so no id is reused

        covered = {q for regs, _ in spec.initial_factors for q in spec.layout.expand(regs)}
        preparations = {key for key, qubits in self.blocks.items() if not covered & set(qubits)}
        heads, tails = [], []
        prefix: dict = {}  # (node, op or its id) -> node: the recorded paths with chain-form tails, merged
        shared: dict = {}  # node -> how many of those paths pass it
        walks: dict = {}  # path -> its nodes there
        for i, path in enumerate(paths):
            ops = [op for op in path.ops if not isinstance(op, StructuredOp) or op.kind != "identity"]
            touched: set = set()
            last = -1
            for pos, op in enumerate(ops):
                fixed = isinstance(op, StructuredOp)
                if not fixed:
                    last = pos
                    if touched & set(op[1]):
                        preparations.discard(op[0])
                touched.update(op.targets if fixed else op[1])
            heads.append(ops[: last + 1])
            tails.append([*ops[last + 1 :], *(op for op in path.accept if op.kind != "identity")])
            if 4 ** len(_qubits(tails[-1])) > 2**n:
                node, walks[i] = 0, []
                for op in ops:
                    node = prefix.setdefault((node, id(op) if isinstance(op, StructuredOp) else op), len(prefix) + 1)
                    shared[node] = shared.get(node, 0) + 1
                    walks[i].append(node)
        self.preparations = frozenset(preparations)
        # The fixed ops at the front of a chain-form tail that another such path
        # holds after the same prefix move into the head, so that the trie runs
        # them once for both (counts only fall along a walk).
        for i, walk in walks.items():
            moved = sum(shared[node] > 1 for node in walk[len(heads[i]) :])
            heads[i] += tails[i][:moved]
            del tails[i][:moved]
        self.tails = tails

        after: dict = {}  # id(op) -> ids of the ops that follow it in the heads, id(None) where one ends
        for head in heads:
            for op, follower in zip(head, [*head[1:], None]):
                after.setdefault(id(op), set()).add(id(follower))
        rank = {key: s + 1 for s, key in enumerate(order)}
        self.parent, self.op, self.ends, stage = [-1], [None], [[]], [0]
        children: list[dict] = [{}]
        self.chains: list[list[int]] = []
        self.visits: dict = {key: [] for key in order}  # key -> (path, node of its block), in path order
        self.first: list[int] = []  # index in each chain of its first updated block, or the chain's length
        for i, head in enumerate(heads):
            # Each run of fixed ops stays a list until compile() builds its composite.
            runs = _runs(head, n, lambda a, b: after[id(a)] == {id(b)})
            node, chain = 0, []
            self.first.append(len(runs))
            for run in runs:
                fixed = isinstance(run, list)
                child = children[node].setdefault(tuple(map(id, run)) if fixed else run, len(self.parent))
                if child == len(self.parent):
                    self.parent.append(node)
                    self.op.append(run)
                    # A path meets its blocks in turn order, so a block's stage is above
                    # every stage before it.
                    stage.append(stage[node] if fixed or run[0] not in rank else rank[run[0]])
                    children.append({})
                    self.ends.append([])
                if not fixed and run[0] in rank:
                    self.visits[run[0]].append((i, child))
                    self.first[i] = min(self.first[i], len(chain))
                node = child
                chain.append(node)
            self.ends[node].append(i)
            self.chains.append(chain)
        self.schedule: list[list[int]] = [[] for _ in range(len(order) + 1)]
        for node in range(1, len(self.parent)):
            self.schedule[stage[node]].append(node)
        turn_start: dict = {}
        self.updates: dict = {}
        for s, key in enumerate(order, 1):
            self.updates.setdefault(turn_start.setdefault(key[0], s), []).append(key)
        last = {}
        for nodes in self.schedule:
            for node in nodes:
                last[self.parent[node]] = node
        self.holds = [bool(kids) for kids in children]
        self.releases = [False] * len(self.parent)
        for node in last.values():
            self.releases[node] = True
        live = self.peak_fronts = 1
        for nodes in self.schedule:
            for node in nodes:
                self.peak_fronts = max(self.peak_fronts, live + 1)
                live += self.holds[node] - self.releases[node]

        forms: dict = {}  # one accept form per distinct tail: (tail, whether E is dense)
        self.accept = [forms.setdefault(tuple(map(id, t)), (t, 4 ** len(_qubits(t)) <= 2**n)) for t in tails]
        # What compile() builds, by identity: the qubit count of each dense form.
        planned = {("fused", *map(id, op)): len(_qubits(op)) for op in self.op if isinstance(op, list) and len(op) > 1}
        for tail, dense in forms.values():
            if dense:
                planned["accept", id(tail)] = len(_qubits(tail))
                continue
            planned.update((("adjoint", id(op)), len(op.targets)) for op in tail)
            for j, run in enumerate(_runs([*tail, *reversed(tail)], n)):
                if len(run) > 1:
                    planned["accept", id(tail), j] = len(_qubits(run))
        for i, chain in enumerate(self.chains):
            for op in (self.op[node] for node in chain[self.first[i] + 1 :]):
                if isinstance(op, list):
                    planned["adjoint", *map(id, op)] = len(_qubits(op))
        self.operators, self.operator_bytes = len(planned), sum(16 * 4**k for k in planned.values())

    def compile(self) -> "_Trie":
        """Build the composites, the accept forms and the adjoints, and bind each node's step and each
        path's backward program."""
        what = f"a fused fixed op in the see-saw of {self.name!r}"
        composites: dict = {}  # one per run, however many nodes hold it
        for node, op in enumerate(self.op):
            if isinstance(op, list):
                ids = tuple(map(id, op))
                if ids not in composites:
                    composites[ids] = _composite(op, what)
                self.op[node] = composites[ids]
        forms: dict = {}
        for i, (tail, dense) in enumerate(self.accept):
            if id(tail) not in forms:
                forms[id(tail)] = self._accept_form(tail, dense)
            self.accept[i] = forms[id(tail)]
        self.step: list = [None]
        for op in self.op[1:]:
            if isinstance(op, tuple):
                self.step.append((_apply_preparation if op[0] in self.preparations else apply_matrix_vec, *op))
            else:
                self.step.append((op.apply, None, None))
        # Each path's backward program, from its end down to its first updated
        # block: an entry (apply, key, qubits, store) first stores the vector as
        # block ``store``'s suffix when that is set, then applies a fixed op's
        # adjoint (no key) or a block's given its adjoint gate (a preparation's
        # u).  Nothing is applied at the first updated block: nothing reads the
        # vector below it.
        self.backward: list[list[tuple]] = []
        for i, chain in enumerate(self.chains):
            program = []
            for c in range(len(chain) - 1, self.first[i] - 1, -1):
                op = self.op[chain[c]]
                if not isinstance(op, tuple):
                    program.append((self.adjoint(op).apply, None, None, None))
                    continue
                key, qubits = op
                apply = None
                if c > self.first[i]:
                    apply = _unapply_preparation if key in self.preparations else apply_matrix_vec
                program.append((apply, key, qubits, key if key in self.visits else None))
            self.backward.append(program)
        return self

    def _accept_form(self, tail: list, dense: bool) -> list[StructuredOp]:
        """The ops that take a head's last front ``z`` to ``E z``, ``E = T^dag T`` for the fixed ``tail``."""
        what = f"the accept form of a path in the see-saw of {self.name!r}"
        if not tail:
            return []
        if dense:
            t, qubits = _dense(tail, what)
            return [StructuredOp(t.conj().T @ t, qubits)]
        chain = [*tail, *(self.adjoint(op) for op in reversed(tail))]
        return [_composite(run, what) for run in _runs(chain, self.num_qubits)]

    def adjoint(self, op: StructuredOp) -> StructuredOp:
        """The conjugate transpose of a compiled fixed op, on the same targets, built on its first use."""
        if id(op) not in self._adjoints:
            self._adjoints[id(op)] = StructuredOp(np.ascontiguousarray(op.matrix.conj().T), op.targets)
        return self._adjoints[id(op)]


def _polar_maximizer(m: np.ndarray) -> np.ndarray:
    """Unitary U maximizing Re tr(U m): the polar factor from the SVD of m, or of each of a stack of them."""
    w, _, vh = np.linalg.svd(m)
    return (w @ vh).conj().swapaxes(-1, -2)


def _acceptance(values: list[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# See-saw
# ---------------------------------------------------------------------------


def seesaw_optimize(
    spec: ProtocolSpec,
    config: OptimizerConfig,
    honest: ProverStrategy | None = None,
    freeze_turns: tuple[int, ...] = (),
) -> OptimizerTrace:
    """Coordinate-ascent over prover-turn unitaries.

    Classical replies are pinned to the honest strategy's replies; for the
    protocols in this package every deviating reply is annihilated by a
    consistency check, so pinning loses nothing.
    One restart starts from the honest gates when ``honest`` is given; the
    rest start Haar-random.  Blocks of turns listed in ``freeze_turns`` are
    pinned to the honest gates in every restart (used to probe constrained
    adversaries).  Returns a lower bound on the optimal prover acceptance,
    deterministic for a fixed config seed.
    """
    if not any(isinstance(t, ProverTurn) for t in spec.turns):
        raise ShapeError("seesaw_optimize needs at least one prover turn")
    if freeze_turns and honest is None:
        raise ValidationError("freeze_turns requires an honest strategy to pin")
    reply_fn = None if honest is None else honest.reply
    best_gates: dict = {}
    units: dict = {}  # key -> (prepared vector, its completed unitary)

    def best_gate(turn_index, view):
        key = block_key(turn_index, view)
        gate = best_gates.get(key)
        if gate is None:
            return FactoredOp(len(spec.layout.expand(list(turn_field(spec.turns[turn_index - 1].acts_on, view)))))
        if gate.ndim == 2:
            return gate
        if key not in units or units[key][0] is not gate:
            what = f"the unitary of the preparation block of turn {turn_index} in the see-saw of {spec.name!r}"
            units[key] = gate, _completed(gate, what)
        return units[key][1]

    best = ProverStrategy(f"seesaw[{spec.name}]", best_gate, reply_fn)
    trace = OptimizerTrace(best_acceptance=-1.0, best_strategy=best, best_gates=best_gates, restarts=config.restarts)
    trie = _Trie(spec, reply_fn, freeze_turns)
    paths, blocks = trie.paths, trie.blocks
    if not paths:
        # Every branch fails a classical predicate: no unitary can help.
        trace.best_acceptance, trace.sweep_acceptance = 0.0, [[0.0]]
        return trace
    if not trie.order:
        raise ShapeError("freeze_turns pinned every prover block")
    # A sweep holds one witness or new final per path, a suffix per updated
    # block position and the live trie fronts, besides the compiled operators.
    suffixes = sum(len(visits) for visits in trie.visits.values())
    check_budget(
        (len(paths) + suffixes + trie.peak_fronts) * 16 * trie.initial.size + trie.operator_bytes,
        f"see-saw of {spec.name!r} over {len(paths)} paths, {suffixes} block suffixes "
        f"and {trie.peak_fronts} trie fronts, with {trie.operators} compiled fixed operators",
    )
    trie.compile()

    def honest_gate(key) -> np.ndarray:
        turn_index, view_items = key
        gate = honest.gate_fn(turn_index, dict(view_items))
        if key in trie.preparations:
            return _first_column(gate)
        return dense_matrix(gate, f"the honest gate of turn {turn_index} in the see-saw of {spec.name!r}")

    def random_gates(restart: int) -> dict:
        gates = {}
        for b, key in enumerate(blocks):
            if key[0] in freeze_turns:
                gates[key] = honest_gate(key)
                continue
            rng = substream(config.seed, "prover.seesaw", spec.name, str(restart), str(b))
            if key in trie.preparations:
                gates[key] = haar_state(len(blocks[key]), rng)
                continue
            what = f"a Haar block of turn {key[0]} in the see-saw of {spec.name!r}"
            gates[key] = haar_matrix(len(blocks[key]), rng, what)
        return gates

    for restart in range(config.restarts):
        if restart == 0 and honest is not None:
            gates = {key: honest_gate(key) for key in blocks}
        else:
            gates = random_gates(restart)
        finals = [None] * len(paths)
        history = [_acceptance(_forward(trie, gates, finals))]
        for _ in range(config.sweeps):
            value = _acceptance(_sweep(trie, finals, gates))
            history.append(value)
            if value > 1 + 1e-9:
                raise ValidationError(f"see-saw acceptance {value!r} exceeded 1")
            if history[-1] - history[-2] < CONVERGENCE_TOL:
                break
        trace.sweep_acceptance.append(history)
        if history[-1] > trace.best_acceptance:
            trace.best_acceptance = history[-1]
            best_gates.update(gates)  # every restart assigns the same keys
    return trace


def _sweep(trie: _Trie, witnesses: list, gates: dict) -> list[float]:
    """Update each block of ``trie.order`` once, a turn at a time, and replace
    the witnesses by the new ``E z`` of each path; returns each path's value.

    ``witnesses`` hold each path's ``E z`` under the current gates (their
    global scale does not affect the maximizer of any block).  Each one is
    released once its path's backward suffixes are stored, and its slot takes
    the path's new ``E z`` when the forward walk reaches the path's end.
    """
    # Backward suffix vectors at each block position, computed with the
    # pre-sweep gates.  Blocks later in a path are updated after this block
    # within the sweep, so their pre-sweep values are the correct fixed ones.
    adjoints = {
        key: gate if key in trie.preparations else np.ascontiguousarray(gate.conj().T) for key, gate in gates.items()
    }
    suffixes: dict = {}
    for i, program in enumerate(trie.backward):
        vec, witnesses[i] = witnesses[i], None
        for apply, key, qubits, store in program:
            if store is not None:
                suffixes[i, store] = vec
            if apply is not None:
                vec = apply(vec) if key is None else apply(vec, adjoints[key], qubits)

    return _forward(trie, gates, witnesses, suffixes)


def _update(trie: _Trie, keys: list, fronts: dict, suffixes: dict, gates: dict) -> None:
    """Replace the gates of ``keys``, blocks of one turn, by their exact maximizers.

    Each block's witness is summed over its visits in path order (the
    suffixes are consumed): ``s = sum w Y x0*`` for a preparation, whose new
    ``u`` is ``s / ||s||`` (kept when ``s = 0``), and ``M = sum w X Y^dag``
    for a dense block, whose new gate is the polar factor of ``M``, one
    stacked SVD per width.  ``X`` and ``Y`` are the front above the block and
    its suffix with the block's qubits as rows; ``x0`` is the front at
    |0...0> on them.
    """
    dense: dict = {}
    for key in keys:
        qubits = trie.blocks[key]
        preparation = key in trie.preparations
        dim = 2 ** len(qubits)
        witness = np.zeros(dim if preparation else (dim, dim), dtype=np.complex128)
        xs: dict = {}
        for i, node in trie.visits[key]:
            above = trie.parent[node]
            if above not in xs:
                front = fronts[above]
                xs[above] = outcome_slice(front, qubits, 0).conj() if preparation else _keep_block(front, qubits)
            y = _keep_block(suffixes.pop((i, key)), qubits)
            witness += trie.paths[i].weight * (y @ xs[above] if preparation else xs[above] @ y.conj().T)
        if not preparation:
            dense.setdefault(dim, []).append((key, witness))
            continue
        norm = np.linalg.norm(witness)
        if norm > 0:
            gates[key] = witness / norm
    for group in dense.values():
        for (key, _), gate in zip(group, _polar_maximizer(np.stack([m for _, m in group]))):
            gates[key] = gate


def _forward(
    trie: _Trie, gates: dict, finals: list, suffixes: dict | None = None, fronts_out: list | None = None
) -> list[float]:
    """Walk the trie forward, put each path's ``E z`` in its slot of ``finals`` and return each path's value.

    A path's value is ``w Re <z, E z>``, with ``z`` the front at the end of
    its head and ``E`` its accept form; ``fronts_out``, when given, takes each
    ``z``.  Each node's front is computed once, from its parent's; stage ``s``
    of ``trie.schedule`` follows block ``s - 1`` of ``trie.order``.  Given a
    sweep's backward ``suffixes``, the blocks of each turn are first replaced
    by their maximizers (:func:`_update`); without them the walk only
    evaluates.
    """
    values = [0.0] * len(trie.paths)

    def finish(node: int, z: np.ndarray) -> None:
        shared: dict = {}  # paths with one accept form share its E z
        for i in trie.ends[node]:
            form = trie.accept[i]
            if id(form) not in shared:
                ez = z
                for op in form:
                    ez = op.apply(ez)
                shared[id(form)] = ez, float(np.vdot(z, ez).real)
            finals[i], value = shared[id(form)]
            values[i] = trie.paths[i].weight * value
            if fronts_out is not None:
                fronts_out[i] = z

    fronts = {0: trie.initial}
    finish(0, trie.initial)
    for stage, nodes in enumerate(trie.schedule):
        if suffixes is not None and stage in trie.updates:
            _update(trie, trie.updates[stage], fronts, suffixes, gates)
        for node in nodes:
            above = trie.parent[node]
            apply, key, qubits = trie.step[node]
            vec = apply(fronts[above]) if key is None else apply(fronts[above], gates[key], qubits)
            if trie.releases[node]:
                del fronts[above]
            if trie.ends[node]:
                finish(node, vec)
            if trie.holds[node]:
                fronts[node] = vec
    return values


# ---------------------------------------------------------------------------
# Exact optimum for single-message protocols
# ---------------------------------------------------------------------------


def exact_single_message_max(spec: ProtocolSpec) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the acceptance operator over the prover's message.

    Requires exactly one prover turn, occurring first and carrying no
    classical replies, on registers that start at |0...0>, so its block is a
    preparation.  Each basis message ``e_i`` goes through the trie walk as
    that preparation's vector, and the acceptance operator over messages is
    ``sum_b w_b Z_b^dag E_b Z_b``, with ``Z_b`` the fronts at the end of the
    path's head as columns and ``E_b`` its accept form; the optimal
    acceptance is its top eigenvalue (the prover sends the top eigenvector).
    Returns (value, eigenvector).
    """
    prover_turns = [t for t in spec.turns if isinstance(t, ProverTurn)]
    if len(prover_turns) != 1 or not isinstance(spec.turns[0], ProverTurn):
        raise ShapeError("exact_single_message_max needs exactly one prover turn, occurring first")
    if prover_turns[0].replies:
        raise ShapeError("exact_single_message_max does not support classical replies")

    trie = _Trie(spec)
    paths = trie.paths
    dim = 2 ** len(spec.layout.expand(list(turn_field(prover_turns[0].acts_on, {}))))
    if not paths:
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = 1.0
        return 0.0, vec

    (key,) = trie.order
    if key not in trie.preparations:
        raise ShapeError("exact_single_message_max needs the prover's registers at |0...0> before its turn")
    check_budget(
        (2 * dim * len(paths) + trie.peak_fronts) * 16 * trie.initial.size + trie.operator_bytes,
        f"single-message optimum of {spec.name!r} over {dim} basis messages and {len(paths)} paths",
    )
    trie.compile()
    zs = [[None] * len(paths) for _ in range(dim)]
    ezs = [[None] * len(paths) for _ in range(dim)]
    for i in range(dim):
        message = np.zeros(dim, dtype=np.complex128)
        message[i] = 1.0
        _forward(trie, {key: message}, ezs[i], fronts_out=zs[i])
    e = np.zeros((dim, dim), dtype=np.complex128)
    for p, path in enumerate(paths):
        z = np.stack([row[p] for row in zs])
        ez = np.stack([row[p] for row in ezs])
        e += path.weight * (z.conj() @ ez.T)

    vals, vecs = np.linalg.eigh((e + e.conj().T) / 2)
    return float(np.clip(vals[-1], 0.0, 1.0)), vecs[:, -1]
