"""Dense state-vector engine: states, gates, measurements and distance measures.

Conventions used throughout the package:

* Qubit indexing is little-endian: bit ``q`` of a basis index addresses
  qubit ``q``, so qubit 0 is the least significant bit.
* Gates are complex matrices and pure states complex vectors.  A gate
  carries its own local qubit order; ``apply_matrix_vec(vec, m, targets)``
  maps the matrix's qubit ``j`` onto global qubit ``targets[j]``.
* The named gates ``H, X, Z, CNOT, CZ, SWAP`` and memoised constructors'
  outputs are read-only arrays that every spec in a process shares, each
  classified once per process; writing into one raises ``ValueError``.
* No operation modifies its inputs, so independent calls are safe to
  evaluate in parallel.

Gates act through one planned kernel, :func:`apply_matrix_vec`.  The axis
plan for a ``(qubit count, targets)`` pair (the transpose that brings the
targets to the front, its inverse, and the validated targets) is built once
and kept in a bounded cache; only the matrix shape is checked per call.
:class:`StructuredOp` classifies a fixed ``(matrix, targets)`` pair once as
identity, diagonal, 0/1 permutation or dense, and holds one table, built on
first use through the axis plan of the qubits its targets span and shared by
every state size: an identity returns its input, a diagonal is one multiply,
a permutation one ``np.take`` over that window, and a dense op one matmul
or the planned kernel; the see-saw and the executor's walks apply their
fixed operators and prover gates through it.
:func:`outcome_slice` copies the amplitudes at one outcome of some qubits,
:func:`apply_columns` takes such slices onto the outcomes of other qubits
(a preparation on new qubits, a slice placed back at its outcome, or a
gate's columns at some qubits' bits), and
:func:`basis_projector` is the one constructor of an outcome's projector as
a matrix.  The executor's branches are slices: a vector on their free
qubits, every other qubit at a known basis bit (0 until an operator first
touches it, or its measured outcome), cut by :func:`outcome_slice` when a
qubit is measured and widened by :func:`apply_columns` when an operator
frees one.
:func:`circuit_matrix` is the one dense constructor of composite operators
(node units, star preparations, fan-outs, basis rotations, the span form
of a low-qubit dense gate): it applies their factors to the identity
through the same kernel, and :func:`cnot_fanout` is the one CNOT fan-out.
:func:`embed_operator` builds one embedded operator by index arithmetic;
nothing in the package calls it, and the tests use it as the oracle.

A gate is either a dense matrix or a :class:`FactoredOp`: local factors
applied in order, which may share qubits, identity elsewhere.
:meth:`FactoredOp.parts` applies a factored gate through its dense form,
built once by :func:`circuit_matrix`, when that matrix is no larger than
the state, and factor by factor otherwise; each part, like a dense gate,
is applied as a :class:`StructuredOp`.  Fixed verifier operators,
projectors and see-saw blocks stay dense; honest prover moves made of
local gates are factored: the GHZ
delivery of N+1 star states, the copies of a parallel repetition, and the
honest prefix of a turn reduction, whose dense form would span every qubit.
The dense constructors (:func:`circuit_matrix` and :func:`embed_operator`)
check what they will hold against ``MAX_DENSE_BYTES`` before they allocate
(:func:`check_budget`), and the executor checks the states its deepest
path holds against the same limit before it walks.

A layout holds at most 22 qubits (see :mod:`dqip.network`), and a
schema-valid config can reach that width.  ``MAX_DENSE_BYTES`` bounds what
a dense build, a walk, the see-saw and the closeness test's two inputs
hold, each checked before it allocates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, LayoutError, ValidationError
from .seeding import substream

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
PROJECTOR_ATOL = 1e-9

# Byte budget for the arrays one dense build holds (16 bytes per complex
# entry; circuit_matrix holds three 2^n x 2^n arrays, so 2^30 admits n = 12)
# and for the states an executor walk holds.
MAX_DENSE_BYTES = 2**30

# The low span (see StructuredOp): qubits below SPAN_QUBITS, and the run a
# diagonal's table is tiled to and outcome_weights sums down.
SPAN_QUBITS = 5
SPAN_RUN = 256


def check_budget(requested: int, what: str) -> None:
    """Raise :class:`CapacityError` when ``requested`` bytes exceed ``MAX_DENSE_BYTES``."""
    if requested > MAX_DENSE_BYTES:
        raise CapacityError(
            f"{what} needs {requested} bytes, above the limit of {MAX_DENSE_BYTES}",
            requested=requested,
            limit=MAX_DENSE_BYTES,
        )


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix: Hermitian, unit trace, positive semidefinite."""

    num_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValidationError(f"matrix shape {mat.shape} does not match {self.num_qubits} qubits")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_ATOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"density matrix trace {tr!r} deviates from 1 beyond {TRACE_ATOL}")
        if np.min(np.linalg.eigvalsh(mat)) < EIGENVALUE_FLOOR:
            raise ValidationError("density matrix has an eigenvalue below the PSD floor")
        object.__setattr__(self, "matrix", mat)


# ---------------------------------------------------------------------------
# Named gates
# ---------------------------------------------------------------------------


def _permutation_matrix(k: int, fn) -> np.ndarray:
    mat = np.zeros((2**k, 2**k), dtype=np.complex128)
    for i in range(2**k):
        mat[fn(i), i] = 1.0
    return mat


def _swap_bits(i: int, a: int, b: int) -> int:
    ba, bb = (i >> a) & 1, (i >> b) & 1
    if ba != bb:
        i ^= (1 << a) | (1 << b)
    return i


def read_only(mat: np.ndarray) -> np.ndarray:
    """``mat``, made read-only: a gate every spec in the process shares (see :meth:`StructuredOp.cached`)."""
    mat.flags.writeable = False
    return mat


# Every spec in a process shares these arrays, so writing into one raises.
H = read_only(np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2))
X = read_only(np.array([[0, 1], [1, 0]], dtype=np.complex128))
Z = read_only(np.array([[1, 0], [0, -1]], dtype=np.complex128))

# Control is the gate's qubit 0 in all controlled gates below.
CNOT = read_only(_permutation_matrix(2, lambda i: i ^ 2 if i & 1 else i))
CZ = read_only(np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128))
SWAP = read_only(_permutation_matrix(2, lambda i: _swap_bits(i, 0, 1)))


def acceptance_rotation(c: float) -> np.ndarray:
    """Single-qubit rotation T_c with T_c|0> = sqrt(c)|0> - sqrt(1-c)|1>."""
    if not 0.0 <= c <= 1.0:
        raise ValidationError(f"rotation parameter {c!r} outside [0, 1]")
    sc, ss = np.sqrt(c), np.sqrt(1.0 - c)
    return np.array([[sc, ss], [-ss, sc]], dtype=np.complex128)


def controlled(mat0: np.ndarray, mat1: np.ndarray) -> np.ndarray:
    """Block matrix applying ``mat0`` or ``mat1`` by the control (matrix qubit 0)."""
    dim = mat0.shape[0]
    out = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    for c, mat in ((0, mat0), (1, mat1)):
        idx = [2 * j + c for j in range(dim)]
        out[np.ix_(idx, idx)] = mat
    return out


# ---------------------------------------------------------------------------
# Gate application on raw vectors
# ---------------------------------------------------------------------------


def _check_targets(targets: Sequence[int], num_qubits: int, arity: int) -> None:
    if len(targets) != arity:
        raise LayoutError(f"gate arity {arity} does not match {len(targets)} targets")
    if len(set(targets)) != len(targets):
        raise LayoutError(f"duplicate targets in {list(targets)}")
    for q in targets:
        if not 0 <= q < num_qubits:
            raise LayoutError(f"target qubit {q} outside [0, {num_qubits})")


@dataclass(frozen=True)
class _AxisPlan:
    """How a ``2^n`` vector is viewed so that ``targets`` lead.

    ``shape`` is the vector as a tensor, most significant qubit first.  Each
    axis is a run of adjacent qubits: a run of non-targets (``None`` in
    ``groups``), or a run of targets that are also consecutive in the
    target list (``(j, m)``: the axis value is bits ``j..j+m-1`` of the gate
    index).  ``order`` moves the target axes to the front so that row bit
    ``j`` of the flattened ``(dim, rest)`` block addresses ``targets[j]``;
    ``inverse`` undoes it from ``moved``, the transposed shape.  When the
    targets are the lowest qubits in order (``trailing``), the vector already
    is the transposed block and no axis has to move.
    """

    shape: tuple[int, ...]
    groups: tuple[tuple[int, int] | None, ...]
    order: tuple[int, ...]
    inverse: tuple[int, ...]
    moved: tuple[int, ...]
    dim: int
    trailing: bool

    def front(self, vec: np.ndarray) -> np.ndarray:
        """The ``(dim, rest)`` block of ``vec``: a view, or one copy."""
        if self.trailing:
            return vec.reshape(-1, self.dim).T
        return vec.reshape(self.shape).transpose(self.order).reshape(self.dim, -1)

    def back(self, block: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`front`, as a new C-contiguous vector."""
        return block.reshape(self.moved).transpose(self.inverse).reshape(-1)

    def apply(self, vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
        if self.trailing:
            return (vec.reshape(-1, self.dim) @ mat.T).reshape(-1)
        block = self.front(vec)
        # Rebinding drops the transposed copy of the input before the output
        # copy is made, which bounds the temporaries on large states.
        block = mat @ block
        return self.back(block)


@functools.lru_cache(maxsize=4096)
def _axis_plan(num_qubits: int, targets: tuple[int, ...]) -> _AxisPlan:
    # Raising here caches nothing, so a bad call raises on every repeat.
    _check_targets(targets, num_qubits, len(targets))
    position = {q: j for j, q in enumerate(targets)}
    shape: list[int] = []
    groups: list[tuple[int, int] | None] = []
    for q in range(num_qubits - 1, -1, -1):
        j = position.get(q)
        last = groups[-1] if groups else False
        if (j is None and last is None) or (j is not None and last and last[0] == j + 1):
            shape[-1] *= 2
            if j is not None:
                groups[-1] = (j, last[1] + 1)
        else:
            shape.append(2)
            groups.append(None if j is None else (j, 1))
    lead = tuple(sorted((a for a, g in enumerate(groups) if g), key=lambda a: -groups[a][0]))
    order = lead + tuple(a for a, g in enumerate(groups) if not g)
    inverse = tuple(int(a) for a in np.argsort(order))
    moved = tuple(shape[a] for a in order)
    trailing = len(lead) == 1 and lead[0] == len(shape) - 1 and groups[-1][0] == 0
    return _AxisPlan(tuple(shape), tuple(groups), order, inverse, moved, 2 ** len(targets), trailing)


def _plan_for(vec: np.ndarray, targets: Sequence[int]) -> _AxisPlan:
    return _axis_plan(vec.size.bit_length() - 1, tuple(targets))


def apply_matrix_vec(vec: np.ndarray, mat: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix to ``targets`` of a raw state vector.

    ``mat`` need not be unitary (measurement collapse uses projectors); bit
    ``j`` of the matrix index addresses global qubit ``targets[j]``.  The
    result is a new C-contiguous vector.
    """
    plan = _plan_for(vec, targets)
    if mat.shape != (plan.dim, plan.dim):
        raise LayoutError(f"matrix of shape {mat.shape} does not match {len(targets)} targets")
    return plan.apply(vec, mat)


def circuit_matrix(
    num_qubits: int, factors: Iterable[tuple[np.ndarray, Sequence[int]]], what: str, budget: bool = True
) -> np.ndarray:
    """Dense matrix of ``(matrix, targets)`` factors applied in order, first factor first.

    The identity is viewed as a ``2^(2n)`` vector whose bit ``n+q`` is row
    qubit ``q``, and each factor acts on those row bits through
    :func:`apply_matrix_vec`.  Raises :class:`CapacityError` naming ``what``
    before allocating more than ``MAX_DENSE_BYTES``, unless ``budget`` is
    false: the span form of a dense gate below ``SPAN_QUBITS`` (at most
    32 x 32) is held like the gate itself.
    """
    n = num_qubits
    if budget:  # each factor holds the input, its moved block and the output at once
        check_budget(3 * 16 * 4**n, what)
    vec = np.eye(2**n, dtype=np.complex128).reshape(-1)
    for mat, targets in factors:
        vec = apply_matrix_vec(vec, np.asarray(mat, dtype=np.complex128), [n + q for q in targets])
    return vec.reshape(2**n, 2**n)


@functools.cache
def cnot_fanout(control: int, count: int) -> np.ndarray:
    """CNOTs from qubit ``control`` onto each of the next ``count - 1`` qubits, on ``control + count`` qubits."""
    cnots = [(CNOT, [control, control + j]) for j in range(1, count)]
    what = f"CNOT fan-out from qubit {control} onto {count - 1} qubits"
    return read_only(circuit_matrix(control + count, cnots, what))


class StructuredOp:
    """A fixed ``(matrix, targets)`` pair, classified once for repeated use.

    ``kind`` is ``"identity"`` (applied as nothing: :meth:`apply` returns its
    input), ``"diagonal"``, ``"permutation"`` (a 0/1 matrix with one 1 per row
    and column) or ``"dense"``.  Each op holds one table, built on its first
    use and shared by every state size.  A diagonal is one multiply by its
    diagonal over qubits ``0..max(targets)`` (at most ``2^(max + 1)``
    entries), tiled to ``SPAN_RUN``.  A permutation is one ``np.take`` of the
    source of each amplitude (at most ``2^n`` entries) over its window: the
    qubits from its lowest target to its highest, or from 0 when all lie below
    ``SPAN_QUBITS``.  A dense op below ``SPAN_QUBITS`` is one matmul with the
    gate expanded to qubits ``0..max(targets)``, any other the planned kernel.
    Duplicate or negative targets raise :class:`LayoutError` when the op is
    built, a state too small for them when it is applied.  Every kind matches
    ``embed_operator(matrix, targets, n) @ vec``.
    """

    def __init__(self, matrix: np.ndarray, targets: Sequence[int]):
        mat = np.asarray(matrix, dtype=np.complex128)
        self.targets = tuple(int(q) for q in targets)
        dim = 2 ** len(self.targets)
        if mat.shape != (dim, dim):
            raise LayoutError(f"operator of shape {mat.shape} does not match {len(self.targets)} targets")
        self._top = max(self.targets, default=-1)
        _check_targets(self.targets, self._top + 1, len(self.targets))  # duplicates and negatives
        self.matrix = mat
        self._table: np.ndarray | None = None
        diag = np.diagonal(mat)
        nonzero = mat != 0
        if np.count_nonzero(nonzero) == np.count_nonzero(diag):
            self.kind = "identity" if np.all(diag == 1) else "diagonal"
        elif (
            np.all(np.count_nonzero(nonzero, axis=0) == 1)
            and np.all(np.count_nonzero(nonzero, axis=1) == 1)
            and np.all(mat[nonzero] == 1)
        ):
            self.kind = "permutation"
        else:
            self.kind = "dense"
        self._low = min(self.targets) if self.kind == "permutation" and self._top >= SPAN_QUBITS else 0

    _shared: dict = {}  # see cached

    @classmethod
    def cached(cls, cache: dict, matrix: np.ndarray, targets: Sequence[int]) -> "StructuredOp":
        """The op of ``(matrix, targets)``, keyed on ``id(matrix)``, classified on first use and held with
        the matrix so that the id is not reused: in ``cache``, or for a read-only matrix (a named gate or
        a memoised constructor's, which lives as long as the process) in the process table ``_shared``."""
        cache = cache if matrix.flags.writeable else cls._shared
        key = (id(matrix), tuple(targets))
        if key not in cache:
            cache[key] = (matrix, cls(matrix, targets))
        return cache[key][1]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The operator applied to ``vec``: a new C-contiguous vector, or ``vec`` itself for an identity."""
        n = vec.size.bit_length() - 1
        if self._top >= n:
            raise LayoutError(f"target qubit {self._top} outside [0, {n})")
        if self.kind == "identity":
            return vec
        if self.kind == "dense" and self._top >= SPAN_QUBITS:
            return apply_matrix_vec(vec, self.matrix, self.targets)
        table = self._table = self._prepare() if self._table is None else self._table
        if self.kind == "dense":
            return (vec.reshape(-1, len(table)) @ table).reshape(-1)
        if self.kind == "diagonal":
            run = min(vec.size, table.size)
            return (vec.reshape(-1, run) * table[:run]).reshape(-1)
        return np.take(vec.reshape(-1, table.size, 2**self._low), table, axis=1).reshape(-1)

    def _prepare(self) -> np.ndarray:
        """The op's one table: a dense op's expanded gate, or an index or a diagonal laid out
        through the axis plan of the op's window."""
        if self.kind == "dense":  # the gate expanded to qubits 0..top, transposed
            full = circuit_matrix(self._top + 1, [(self.matrix, self.targets)], "span form", budget=False)
            return np.ascontiguousarray(full.T)
        width = self._top + 1 - self._low
        plan = _axis_plan(width, tuple(q - self._low for q in self.targets))
        if self.kind == "permutation":  # the window index each amplitude reads; gate row r reads row source[r]
            source = np.argmax(self.matrix != 0, axis=1)
            return plan.back(plan.front(np.arange(2**width))[source])
        diag = plan.back(np.broadcast_to(np.diagonal(self.matrix)[:, None], (plan.dim, 2**width // plan.dim)))
        return np.tile(diag, max(1, SPAN_RUN // diag.size))


class FactoredOp:
    """A gate on ``arity`` qubits given as local factors, applied in order.

    Each factor is a ``(matrix, positions)`` pair: bit ``j`` of the matrix
    index addresses position ``positions[j]`` of the gate, and positions index
    the targets the gate is applied to.  Factors act first to last and may
    share positions; positions no factor covers get the identity, so
    ``FactoredOp(k)`` is the identity on ``k`` qubits.  Bad positions or
    factor shapes raise :class:`LayoutError`.  A ``shared`` op, one that a
    memoised constructor keeps for the process, has a :func:`read_only`
    dense form, which the walks classify once per process.
    """

    def __init__(self, arity: int, factors: Iterable[tuple[np.ndarray, Sequence[int]]] = (), shared: bool = False):
        self.arity = int(arity)
        self.shared = shared
        self.factors = tuple(
            (np.asarray(mat, dtype=np.complex128), tuple(int(p) for p in positions)) for mat, positions in factors
        )
        self._dense: np.ndarray | None = None
        for mat, positions in self.factors:
            dim = 2 ** len(positions)
            if mat.shape != (dim, dim):
                raise LayoutError(f"factor of shape {mat.shape} does not match {len(positions)} positions")
            _check_targets(positions, self.arity, len(positions))

    def dense(self, what: str = "") -> np.ndarray:
        """The ``2^arity`` matrix, built once by :func:`circuit_matrix`.

        A refusal names ``what`` the operator is for.  Every call returns the
        same array; callers must not modify it.
        """
        if self._dense is None:
            size = f"dense {2**self.arity}x{2**self.arity} operator"
            dense = circuit_matrix(self.arity, self.factors, f"{size} for {what}" if what else size)
            self._dense = read_only(dense) if self.shared else dense
        return self._dense

    def parts(self, targets: Sequence[int], num_qubits: int) -> list[tuple[np.ndarray, list[int]]]:
        """The ``(matrix, qubits)`` operators that apply this gate to ``targets`` of ``num_qubits``.

        The dense form when that matrix is no larger than the state (``4^k <=
        2^n``), the factors in order otherwise, and none without factors.
        """
        _check_targets(targets, num_qubits, self.arity)  # all of them: the factors may cover only some
        if not self.factors:
            return []
        if 4**self.arity <= 2**num_qubits:
            return [(self.dense(), list(targets))]
        return [(mat, [targets[p] for p in positions]) for mat, positions in self.factors]


def dense_matrix(op, what: str = "") -> np.ndarray:
    """A strategy gate as a dense complex matrix (:meth:`FactoredOp.dense` of ``what`` when factored)."""
    return op.dense(what) if isinstance(op, FactoredOp) else np.asarray(op, dtype=np.complex128)


def _outcome_index(plan: _AxisPlan, outcome: int) -> tuple:
    """A basic index into ``plan.shape``: each target axis at its bits of ``outcome``, the others
    whole (a view even when every axis is a target)."""
    if not 0 <= outcome < plan.dim:
        raise LayoutError(f"outcome {outcome} outside [0, {plan.dim})")
    return (*(slice(None) if group is None else (outcome >> group[0]) % 2 ** group[1] for group in plan.groups), ...)


def outcome_slice(vec: np.ndarray, targets: Sequence[int], outcome: int) -> np.ndarray:
    """The amplitudes of ``vec`` at one ``outcome`` of ``targets``: a new vector on the other qubits, in order.

    Bit ``j`` of ``outcome`` is qubit ``targets[j]``.  :func:`apply_columns`
    with the outcome's basis column puts the slice back where it was.
    """
    plan = _plan_for(vec, targets)
    return np.ascontiguousarray(vec.reshape(plan.shape)[_outcome_index(plan, outcome)]).reshape(-1)


def apply_columns(vec: np.ndarray, matrix: np.ndarray, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """A ``2^len(targets) x 2^len(sources)`` matrix from ``sources`` of ``vec`` onto ``targets`` of the result.

    Bit ``j`` of the column index is qubit ``sources[j]`` of ``vec``, bit
    ``j`` of the row index qubit ``targets[j]`` of the result, and the other
    qubits of ``vec`` are the result's others, in order: column ``c`` takes
    the slice of ``vec`` at ``c`` (:func:`outcome_slice`) to the rows it
    holds.  The result is a new vector with the dtype of the product.  It is
    built from one zero-filled vector and one strided pass per nonzero entry,
    or, for one column of several nonzeros (a preparation on new qubits), as
    one outer product.  With no sources, a basis column places ``vec`` at its
    outcome and zero elsewhere.
    """
    n = vec.size.bit_length() - 1
    source = _axis_plan(n, tuple(sources))
    target = _axis_plan(n - len(sources) + len(targets), tuple(targets))
    if matrix.shape != (target.dim, source.dim):
        raise LayoutError(f"matrix of shape {matrix.shape} does not map {len(sources)} onto {len(targets)} qubits")
    rows, columns = np.nonzero(matrix)
    size, dtype = target.dim * vec.size // source.dim, np.result_type(vec, matrix)
    if source.dim == 1 and len(rows) > 1:  # written through the target plan's axis order, as back() reads it
        out, lead = np.empty(size, dtype=dtype), sum(group is not None for group in target.groups)
        column = matrix[:, 0].reshape(target.moved[:lead] + (1,) * (len(target.moved) - lead))
        np.multiply(column, vec.reshape(target.moved[lead:]), out=out.reshape(target.shape).transpose(target.order))
        return out
    out = np.empty(size, dtype=dtype)
    out.fill(0)  # np.zeros would take fresh zero pages, faulted in one by one, where this reuses freed memory
    into, pieces = out.reshape(target.shape), vec.reshape(source.shape)
    for r, c in zip(rows.tolist(), columns.tolist()):
        rows_at = into[_outcome_index(target, r)]
        piece = pieces[_outcome_index(source, c)].reshape(rows_at.shape)
        rows_at += piece if matrix[r, c] == 1 else matrix[r, c] * piece
    return out


def outcome_weights(vec: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Squared norm of ``vec`` on each computational-basis outcome of ``targets``.

    Entry ``o`` equals ``||outcome_slice(vec, targets, o)||^2``; no slice
    is built.  On a vector longer than ``SPAN_RUN``, targets below
    ``SPAN_QUBITS`` sum the squares down runs of the float view in one pass,
    then fold the sums onto the targets; otherwise the squares come first, so
    the transpose copies reals.
    """
    plan = _plan_for(vec, targets)  # validates the targets
    span = max(targets, default=-1) + 1
    if span <= SPAN_QUBITS and vec.size > SPAN_RUN:
        run = min(vec.size, max(2**span, SPAN_RUN))
        runs = np.ascontiguousarray(vec, dtype=np.complex128).view(np.float64).reshape(-1, 2 * run)
        sums = np.einsum("ij,ij->j", runs, runs).reshape(-1, 2**span, 2).sum(axis=(0, 2))
        return _axis_plan(span, tuple(targets)).front(sums).sum(axis=1)
    squares = vec.real * vec.real + vec.imag * vec.imag
    return plan.front(squares).sum(axis=1)


def embed_operator(op: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Lift an operator on ``targets`` to the full ``2^n`` space.

    Built by explicit index arithmetic, independently of the kernel, as the
    tests' oracle for :func:`apply_matrix_vec`, :class:`StructuredOp` and
    :func:`circuit_matrix`; the package builds operators with the latter.
    """
    k = len(targets)
    _check_targets(targets, num_qubits, int(round(np.log2(op.shape[0]))))
    dim = 2**num_qubits
    check_budget(16 * dim * dim, f"dense {dim}x{dim} operator")
    full = np.zeros((dim, dim), dtype=np.complex128)
    rest = [q for q in range(num_qubits) if q not in set(targets)]
    for env in range(2 ** len(rest)):
        base = 0
        for pos, q in enumerate(rest):
            if (env >> pos) & 1:
                base |= 1 << q
        idx = []
        for g in range(2**k):
            i = base
            for j, q in enumerate(targets):
                if (g >> j) & 1:
                    i |= 1 << q
            idx.append(i)
        full[np.ix_(idx, idx)] = op
    return full


# ---------------------------------------------------------------------------
# Reduced densities and projectors
# ---------------------------------------------------------------------------


def _keep_block(vec: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reshape a vector to (2^k, 2^rest) with row bit j = keep[j]."""
    return _plan_for(vec, keep).front(vec)


def reduced_density_from_vec(vec: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Unnormalized reduced matrix of a raw (possibly unnormalized) vector."""
    keep = sorted(set(keep))
    block = _keep_block(vec, keep)
    return block @ block.conj().T


@functools.cache
def basis_projector(k: int, outcome: int = 0) -> np.ndarray:
    """The projector ``|outcome><outcome|`` on ``k`` qubits, one read-only array per process."""
    proj = np.zeros((2**k, 2**k), dtype=np.complex128)
    proj[outcome, outcome] = 1.0
    return read_only(proj)


def check_projector(op: np.ndarray) -> None:
    if np.max(np.abs(op - op.conj().T)) > PROJECTOR_ATOL:
        raise ValidationError("operator is not Hermitian within tolerance")
    if np.max(np.abs(op @ op - op)) > PROJECTOR_ATOL:
        raise ValidationError("operator is not idempotent within tolerance")


def projector_probability(vec: np.ndarray, projector: np.ndarray, targets: Sequence[int]) -> float:
    """Return <psi| Pi |psi> for the state vector ``vec``, with ``projector`` lifted to the full space."""
    projector = np.asarray(projector, dtype=np.complex128)
    check_projector(projector)
    out = apply_matrix_vec(vec, projector, targets)
    p = float(np.real(np.vdot(vec, out)))
    if p < -NORM_ATOL or p > 1.0 + NORM_ATOL:
        raise ValidationError(f"projector expectation {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Distance measures
# ---------------------------------------------------------------------------


EIGENVALUE_NOISE = 1e-12  # |lambda| below this is treated as an exact zero


def _clamped_eigenvalues(vals: np.ndarray) -> np.ndarray:
    if np.min(vals) < EIGENVALUE_FLOOR:
        raise ValidationError(f"eigenvalue {np.min(vals)!r} below PSD floor")
    out = vals.copy()
    # Square roots amplify eigenvalue noise around zero to ~1e-8; treating
    # sub-noise values as exact zeros keeps rank-deficient inputs accurate.
    out[out < EIGENVALUE_NOISE] = 0.0
    return out


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = _clamped_eigenvalues(vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Fidelity F(rho, sigma) = tr sqrt(sqrt(rho) sigma sqrt(rho)).

    For pure states this equals |<psi|phi>|.  Computed by eigendecomposition
    with eigenvalues clamped at zero (small negative drift is tolerated).
    """
    if rho.num_qubits != sigma.num_qubits:
        raise ValidationError("fidelity arguments have mismatched dimensions")
    sq = _psd_sqrt(rho.matrix)
    inner = sq @ sigma.matrix @ sq
    vals = _clamped_eigenvalues(np.linalg.eigvalsh((inner + inner.conj().T) / 2))
    f = float(np.sum(np.sqrt(vals)))
    return min(max(f, 0.0), 1.0)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace distance dist(rho, sigma) = (1/2) ||rho - sigma||_tr."""
    if rho.num_qubits != sigma.num_qubits:
        raise ValidationError("trace-distance arguments have mismatched dimensions")
    vals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    d = 0.5 * float(np.sum(np.abs(vals)))
    return min(max(d, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Haar-random sampling
# ---------------------------------------------------------------------------


def haar_state(num_qubits: int, seed) -> np.ndarray:
    """Haar-random pure state: normalized complex standard-normal vector.

    ``seed`` is a generator, or an int that seeds the ``qcore.haar`` substream.
    """
    if num_qubits < 1:
        raise ValidationError("haar_state needs at least one qubit")
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), "qcore.haar")
    dim = 2**num_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


# A Haar draw's peak in units of its 16 * dim^2-byte matrix: tracemalloc reads
# 4.06-4.13 at 8-10 qubits (two real normal arrays, z, and q and r from the
# QR), and LAPACK's workspace comes on top.
HAAR_PEAK_MATRICES = 5


def haar_matrix(num_qubits: int, rng: np.random.Generator, what: str) -> np.ndarray:
    """Haar-random unitary matrix: QR of a complex Gaussian with phase-fixed diagonal.

    Raises :class:`CapacityError` naming ``what`` before drawing more than
    ``MAX_DENSE_BYTES`` holds.
    """
    dim = 2**num_qubits
    check_budget(HAAR_PEAK_MATRICES * 16 * dim * dim, what)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(rng: np.random.Generator, n: int) -> DensityOperator:
    """A mixture of one to four Haar-random pure states on ``n`` qubits."""
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for w in weights:
        v = haar_state(n, rng)
        mat += w * np.outer(v, v.conj())
    return DensityOperator(n, mat)


def fvdg_slacks(rng: np.random.Generator, samples: int) -> tuple[float, float, float]:
    """Worst slacks of three inequalities over random mixed-state triples.

    Each sample draws ``rho, sigma, xi`` on one to three qubits.  The slacks
    are ``(1 - F) - D`` and ``D - sqrt(1 - F^2)`` (Fuchs-van de Graaf) and
    ``F(rho, sigma)^2 + F(xi, sigma)^2 - 1 - F(rho, xi)``, for ``F`` and
    ``D`` of ``(rho, sigma)``; each is at most 0 when its inequality holds.
    """
    lower = upper = triple = -1.0
    for _ in range(samples):
        n = int(rng.integers(1, 4))
        rho, sigma, xi = (_random_density(rng, n) for _ in range(3))
        f = fidelity(rho, sigma)
        d = trace_distance(rho, sigma)
        lower = max(lower, (1 - f) - d)
        upper = max(upper, d - float(np.sqrt(max(0.0, 1 - f * f))))
        triple = max(triple, f**2 + fidelity(xi, sigma) ** 2 - 1 - fidelity(rho, xi))
    return lower, upper, triple
