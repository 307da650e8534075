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

Both optimizers set up their replay one way: :class:`_Trie` records the
spec's branches for a skeleton prover (gates left symbolic, replies from
the honest strategy's reply function when there is one), checks that each
block key keeps one set of qubits, sorts the blocks, merges the paths on
their shared prefixes and, on first use, builds the adjoints of the fixed
ops a sweep's backward half applies.  The recorded branches are replayed
by one walk, :func:`_forward`, over that trie: a sweep's forward half, each
restart's starting value and, once per basis message, the operator of the
single-message optimum all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ShapeError, ValidationError
from .protocol import (
    BranchPath,
    ProtocolSpec,
    ProverStrategy,
    ProverTurn,
    block_key,
    collect_paths,
    turn_field,
)
from .qcore import StructuredOp, _keep_block, apply_matrix_vec, check_budget, dense_matrix, haar_matrix
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
    """A see-saw's result.  ``best_strategy`` looks its gates up in
    ``best_gates``, the best restart's gate per :func:`~dqip.protocol.block_key`."""

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
# Path evaluation helpers
# ---------------------------------------------------------------------------


def _step(vec: np.ndarray, op, gates: Mapping) -> np.ndarray:
    if isinstance(op, StructuredOp):
        return op.apply(vec)
    key, qubits = op
    return apply_matrix_vec(vec, gates[key], qubits)


def _acceptance(paths: list[BranchPath], finals: list[np.ndarray]) -> float:
    total = 0.0
    for path, vec in zip(paths, finals):
        total += path.weight * float(np.vdot(vec, vec).real)
    return total


class _Trie:
    """The paths a spec records for the skeleton prover, merged on their shared prefixes, and a sweep's schedule.

    The skeleton prover leaves every gate symbolic and answers each
    classical reply with ``reply_fn`` (:func:`~dqip.protocol.collect_paths`).
    ``blocks`` maps each block key to its qubits, which must agree across
    paths, sorted by turn and then view; ``order`` lists the blocks a sweep
    updates, those of the turns not in ``frozen``.

    Node 0 stands for the initial state; node ``j > 0`` applies ``op[j]`` to
    the front of ``parent[j]``.  Children are keyed by op identity for fixed
    ops (paths through the same prefix hold the same op objects) and by
    equality for ``(block key, qubits)`` pairs.  ``schedule[s]`` holds, in
    creation order, the nodes whose nearest updated block at or above them
    is ``order[s - 1]`` (none for ``s = 0``), so their fronts are computed
    right after that update.  A front is kept while its node has children
    (``holds``) until the last of them is computed (``releases`` marks it);
    ``peak_fronts`` is the most fronts a sweep holds at once, counting the
    one being computed.  :meth:`adjoint` builds the adjoints of the fixed
    ops that a sweep's backward half applies.
    """

    def __init__(self, spec: ProtocolSpec, reply_fn: Callable | None = None, frozen: tuple[int, ...] = ()):
        paths, self.initial = collect_paths(spec, ProverStrategy("skeleton", lambda *_: None, reply_fn))
        blocks: dict = {}
        for op in (op for path in paths for op in path.ops if not isinstance(op, StructuredOp)):
            if blocks.setdefault(*op) != op[1]:
                raise ValidationError("prover block appears with inconsistent targets")
        self.blocks = dict(sorted(blocks.items(), key=lambda item: (item[0][0], repr(item[0][1]))))
        order = [key for key in self.blocks if key[0] not in frozen]
        self.paths, self.order = paths, order
        self._adjoints: dict = {}  # id(op) -> its adjoint; the paths hold each op, so no id is reused
        rank = {key: s + 1 for s, key in enumerate(order)}
        self.parent, self.op, stage = [-1], [None], [0]
        children: list[dict] = [{}]
        self.ends: list[list[int]] = [[]]  # the paths whose ops end at each node
        self.visits: dict = {key: [] for key in order}  # key -> (path, node of its block), in path order
        self.first: list[int] = []  # position of each path's first updated block, or len(ops)
        for i, path in enumerate(paths):
            node = 0
            self.first.append(len(path.ops))
            for pos, op in enumerate(path.ops):
                fixed = isinstance(op, StructuredOp)
                block = None if fixed else rank.get(op[0])
                child = children[node].setdefault(id(op) if fixed else op, len(self.parent))
                if child == len(self.parent):
                    self.parent.append(node)
                    self.op.append(op)
                    # A path meets its blocks in turn order, so a block's stage is above
                    # every stage before it.
                    stage.append(stage[node] if block is None else block)
                    children.append({})
                    self.ends.append([])
                if block is not None:
                    self.visits[op[0]].append((i, child))
                    self.first[i] = min(self.first[i], pos)
                node = child
            self.ends[node].append(i)
        self.schedule: list[list[int]] = [[] for _ in range(len(order) + 1)]
        for node in range(1, len(self.parent)):
            self.schedule[stage[node]].append(node)
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

    def adjoint(self, op: StructuredOp) -> StructuredOp:
        """The conjugate transpose of a recorded fixed op, on the same targets, built on its first use."""
        if id(op) not in self._adjoints:
            self._adjoints[id(op)] = StructuredOp(np.ascontiguousarray(op.matrix.conj().T), op.targets)
        return self._adjoints[id(op)]


def _polar_maximizer(m: np.ndarray) -> np.ndarray:
    """Unitary U maximizing Re tr(U m): the polar factor from the SVD of m."""
    w, _, vh = np.linalg.svd(m)
    return (w @ vh).conj().T


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
    best = ProverStrategy(
        f"seesaw[{spec.name}]", lambda turn_index, view: best_gates[block_key(turn_index, view)], reply_fn
    )
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
    # block position and the live trie fronts.
    suffixes = sum(len(visits) for visits in trie.visits.values())
    check_budget(
        (len(paths) + suffixes + trie.peak_fronts) * 16 * trie.initial.size,
        f"see-saw of {spec.name!r} over {len(paths)} paths, {suffixes} block suffixes "
        f"and {trie.peak_fronts} trie fronts",
    )

    def honest_gate(key) -> np.ndarray:
        turn_index, view_items = key
        what = f"the honest gate of turn {turn_index} in the see-saw of {spec.name!r}"
        return dense_matrix(honest.gate_fn(turn_index, dict(view_items)), what)

    def random_gates(restart: int) -> dict:
        gates = {}
        for b, key in enumerate(blocks):
            if key[0] in freeze_turns:
                gates[key] = honest_gate(key)
                continue
            rng = substream(config.seed, "prover.seesaw", spec.name, str(restart), str(b))
            what = f"a Haar block of turn {key[0]} in the see-saw of {spec.name!r}"
            gates[key] = haar_matrix(len(blocks[key]), rng, what)
        return gates

    for restart in range(config.restarts):
        if restart == 0 and honest is not None:
            gates = {key: honest_gate(key) for key in blocks}
        else:
            gates = random_gates(restart)
        finals = [None] * len(paths)
        _forward(trie, gates, finals)
        history = [_acceptance(paths, finals)]
        for _ in range(config.sweeps):
            _sweep(trie, finals, gates)
            value = _acceptance(paths, finals)
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


def _sweep(trie: _Trie, witnesses: list, gates: dict) -> None:
    """Update each block of ``trie.order`` once, in order, and replace the
    witnesses by the finals under the updated gates.

    ``witnesses`` are the current final branch vectors (their global scale
    does not affect the polar factor of any block matrix M).  Each one is
    released once its path's backward suffixes are stored, and its slot takes
    the path's new final when the forward walk reaches the path's leaf.
    """
    # Backward suffix vectors at each block position, computed with the
    # pre-sweep gates.  Blocks later in a path are updated after this block
    # within the sweep, so their pre-sweep values are the correct fixed ones.
    # A path's walk stops at its first updated block: nothing reads the
    # adjoint applied before it.
    adjoints = {key: np.ascontiguousarray(gate.conj().T) for key, gate in gates.items()}
    suffixes: dict = {}
    for i, path in enumerate(trie.paths):
        vec, witnesses[i] = witnesses[i], None
        first = trie.first[i]
        if first == len(path.ops):
            continue
        for op in reversed(path.accept):
            vec = trie.adjoint(op).apply(vec)
        for pos in range(len(path.ops) - 1, first - 1, -1):
            op = path.ops[pos]
            if isinstance(op, StructuredOp):
                vec = trie.adjoint(op).apply(vec)
                continue
            if op[0] in trie.visits:
                suffixes[i, op[0]] = vec
            if pos > first:
                vec = _step(vec, op, adjoints)

    _forward(trie, gates, witnesses, suffixes)


def _forward(trie: _Trie, gates: dict, finals: list, suffixes: dict | None = None) -> None:
    """Walk the trie forward and put each path's final vector in its slot of ``finals``.

    Each node's front is computed once, from its parent's; stage ``s`` of
    ``trie.schedule`` follows block ``s - 1`` of ``trie.order``.  Given a
    sweep's backward ``suffixes``, that block's gate is first replaced by
    the polar maximizer of its block matrix, summed over its visits in path
    order (the suffixes are consumed); without them the walk only evaluates.
    """
    fronts = {0: trie.initial}
    for stage, nodes in enumerate(trie.schedule):
        if stage and suffixes is not None:
            key = trie.order[stage - 1]
            qubits = trie.blocks[key]
            dim = 2 ** len(qubits)
            m = np.zeros((dim, dim), dtype=np.complex128)
            xs: dict = {}
            for i, node in trie.visits[key]:
                above = trie.parent[node]
                if above not in xs:
                    xs[above] = _keep_block(fronts[above], qubits)
                y = _keep_block(suffixes.pop((i, key)), qubits)
                m += trie.paths[i].weight * (xs[above] @ y.conj().T)
            gates[key] = _polar_maximizer(m)
        for node in nodes:
            above = trie.parent[node]
            vec = _step(fronts[above], trie.op[node], gates)
            if trie.releases[node]:
                del fronts[above]
            for i in trie.ends[node]:
                final = vec
                for op in trie.paths[i].accept:
                    final = op.apply(final)
                finals[i] = final
            if trie.holds[node]:
                fronts[node] = vec


# ---------------------------------------------------------------------------
# Exact optimum for single-message protocols
# ---------------------------------------------------------------------------


def exact_single_message_max(spec: ProtocolSpec) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the acceptance operator over the prover's message.

    Requires exactly one prover turn, occurring first and carrying no
    classical replies.  The optimal acceptance is the top eigenvalue of
    ``E = sum_b w_b A_b^dag Pi_b A_b`` restricted to the prover's registers
    (the prover sends the top eigenvector); returns (value, eigenvector).
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

    # Basis message i: the block's gate is a preparation mapping |0> to |i>.
    (key,) = trie.order
    check_budget(
        (dim * len(paths) + trie.peak_fronts) * 16 * trie.initial.size,
        f"single-message optimum of {spec.name!r} over {dim} basis messages and {len(paths)} paths",
    )
    finals = [[None] * len(paths) for _ in range(dim)]
    for i, row in enumerate(finals):
        prep = np.zeros((dim, dim), dtype=np.complex128)
        prep[i, 0] = 1.0
        _forward(trie, {key: prep}, row)
    e = np.zeros((dim, dim), dtype=np.complex128)
    for p, path in enumerate(paths):
        u = np.stack([row[p] for row in finals])
        e += path.weight * (u.conj() @ u.T)

    vals, vecs = np.linalg.eigh((e + e.conj().T) / 2)
    return float(np.clip(vals[-1], 0.0, 1.0)), vecs[:, -1]
