import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqip import qcore
from dqip.errors import CapacityError, LayoutError, ValidationError
from dqip.qcore import (
    CNOT,
    CZ,
    SWAP,
    DensityOperator,
    FactoredOp,
    H,
    StructuredOp,
    X,
    Z,
    acceptance_rotation,
    apply_matrix_vec,
    circuit_matrix,
    controlled,
    embed_operator,
    fidelity,
    haar_state,
    outcome_weights,
    projector_probability,
    trace_distance,
)
from dqip.protocol import ProverStrategy, _Exact, _State
from dqip.seeding import substream

from zero_filled import project_outcome


UNITARY_ATOL = 1e-10  # the tolerance the named gates are held to


def zero(n: int) -> np.ndarray:
    """The state vector |0^n>."""
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[0] = 1.0
    return vec


def density(vec: np.ndarray) -> DensityOperator:
    """The density operator |vec><vec| of a normalized state vector."""
    return DensityOperator(vec.size.bit_length() - 1, np.outer(vec, vec.conj()))


def bell_pair() -> np.ndarray:
    return apply_matrix_vec(apply_matrix_vec(zero(2), H, [0]), CNOT, [0, 1])


def ghz3() -> np.ndarray:
    return apply_matrix_vec(apply_matrix_vec(apply_matrix_vec(zero(3), H, [0]), CNOT, [0, 1]), CNOT, [0, 2])


# ---------------------------------------------------------------------------
# Named gates through apply_matrix_vec
# ---------------------------------------------------------------------------


ROTATIONS = (0.0, 0.36, 0.5, 1.0)


@pytest.mark.parametrize(
    "gate",
    [H, X, Z, CNOT, CZ, SWAP] + [acceptance_rotation(c) for c in ROTATIONS],
    ids=["H", "X", "Z", "CNOT", "CZ", "SWAP"] + [f"T_{c}" for c in ROTATIONS],
)
def test_named_gates_are_unitary(gate):
    dim = len(gate)
    assert gate.shape == (dim, dim) and dim in (2, 4) and gate.dtype == np.complex128
    assert np.max(np.abs(gate.conj().T @ gate - np.eye(dim))) <= UNITARY_ATOL


def test_named_gates_are_read_only():
    # Every spec in a process shares these arrays.
    with pytest.raises(ValueError):
        qcore.H[0, 0] = 0.0
    assert not any(gate.flags.writeable for gate in (H, X, Z, CNOT, CZ, SWAP))
    assert acceptance_rotation(0.5).flags.writeable  # a new array per call


def test_hadamard_on_zero():
    out = apply_matrix_vec(zero(1), H, [0])
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_acceptance_rotation_c036():
    out = apply_matrix_vec(zero(1), acceptance_rotation(0.36), [0])
    assert np.allclose(out, [0.6, -0.8], atol=1e-12)


def brute_force_cswap() -> np.ndarray:
    # Control = qubit 0, swap qubits 1 and 2: explicit permutation on indices.
    mat = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        c, a, b = i & 1, (i >> 1) & 1, (i >> 2) & 1
        j = c | ((b if c else a) << 1) | ((a if c else b) << 2) if c else i
        mat[j, i] = 1.0
    return mat


CSWAP = brute_force_cswap()


def test_controlled_swap_matches_brute_force_permutation():
    assert np.array_equal(controlled(np.eye(4), SWAP), CSWAP)
    rng = substream(7, "test.cswap")
    psi = qcore.haar_state(1, rng)
    phi = qcore.haar_state(1, rng)
    joint = np.kron(np.kron(phi, psi), [0.0, 1.0])  # control=|1>
    out = apply_matrix_vec(joint, CSWAP, [0, 1, 2])
    expected = np.kron(np.kron(psi, phi), [0.0, 1.0])
    assert np.allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("gate", [H, X, CNOT, CZ, SWAP, CSWAP])
def test_fast_application_matches_embedded_operator(gate):
    arity = len(gate).bit_length() - 1
    rng = substream(11, "test.embed", str(arity))
    n = 4
    vec = qcore.haar_state(n, rng)
    targets = list(rng.permutation(n))[:arity]
    fast = apply_matrix_vec(vec, gate, targets)
    slow = embed_operator(gate, targets, n) @ vec
    assert np.allclose(fast, slow, atol=1e-12)


def _random_kernel_case(rng):
    """A normalized random n <= 8 state and arity 1-4 targets in shuffled order."""
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, min(4, n) + 1))
    targets = [int(q) for q in rng.permutation(n)[:k]]
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return n, targets, vec / np.linalg.norm(vec)


def _random_matrices(rng, k):
    dim = 2**k
    return {
        "dense": rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
        "diagonal": np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)),
        "permutation": np.eye(dim, dtype=complex)[rng.permutation(dim)],
    }


def _adjoint(op: StructuredOp) -> StructuredOp:
    """The op of ``op``'s conjugate transpose on the same targets."""
    return StructuredOp(np.ascontiguousarray(op.matrix.conj().T), op.targets)


def test_planned_kernel_and_structured_ops_match_embedded_operator():
    rng = substream(13, "test.kernel-oracle")
    for _ in range(60):
        n, targets, vec = _random_kernel_case(rng)
        for kind, mat in _random_matrices(rng, len(targets)).items():
            op = StructuredOp(mat, targets)
            if kind != "permutation" or not np.array_equal(mat, np.eye(len(mat))):
                assert op.kind == kind
            expected = embed_operator(mat, targets, n) @ vec
            expected_adj = embed_operator(mat.conj().T, targets, n) @ vec
            for got, want in (
                (apply_matrix_vec(vec, mat, targets), expected),
                (op.apply(vec), expected),
                (op.apply(vec), expected),  # served from the per-size cache
                (_adjoint(op).apply(vec), expected_adj),
            ):
                assert got.shape == (2**n,) and got.flags.c_contiguous
                assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert _adjoint(op).kind == op.kind


def _embedded_product(mat, targets, n, vec):
    """``embed_operator(mat, targets, n) @ vec`` for a ``mat`` with one nonzero per row.

    Row ``i`` of the embedded operator has one nonzero, ``mat[g, h]`` in the
    column that keeps ``i``'s other bits and sets its target bits to ``h``
    (``g`` being ``i``'s target bits and ``h`` the nonzero column of row
    ``g``).  The same index arithmetic as ``embed_operator``, without the
    ``4^n`` matrix, so it reaches 17 qubits.
    """
    index = np.arange(2**n)
    rows = sum(((index >> q) & 1) << j for j, q in enumerate(targets))
    cols = np.argmax(mat != 0, axis=1)[rows]
    read = index & ~sum(1 << q for q in targets)
    read |= sum(((cols >> j) & 1) << q for j, q in enumerate(targets))
    return mat[rows, cols] * vec[read]


@pytest.mark.parametrize("n", [3, 7, 12, 17])
def test_structured_permutations_and_diagonals_match_embedded_operator(n):
    rng = substream(n, "test.structured-oracle")
    k = min(3, n - 1)
    target_sets = {
        "non-contiguous": [n - 1, 0, n // 2][:k],
        "reversed": list(range(n - 1, n - 1 - k, -1)),
        "trailing": list(range(k)),
    }
    if n == 17:  # the closeness test's controlled slice swap: control, then two 3-qubit slices
        target_sets["seven-qubit"] = [4, 16, 9, 10, 0, 1, 2]
    if n > 2:  # a window whose highest target is the top qubit
        target_sets["window at the top"] = [n - 1, n - 3]
    if n > qcore.SPAN_QUBITS + 2:  # a window that starts above the span
        target_sets["window above the span"] = [qcore.SPAN_QUBITS, qcore.SPAN_QUBITS + 2]
    assert qcore._axis_plan(n, tuple(target_sets["trailing"])).trailing
    assert not any(qcore._axis_plan(n, tuple(t)).trailing for name, t in target_sets.items() if name != "trailing")
    for name, targets in target_sets.items():
        dim = 2 ** len(targets)
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        order = rng.permutation(dim)
        while np.array_equal(order, np.arange(dim)):
            order = rng.permutation(dim)
        permutation = np.eye(dim, dtype=complex)[order]
        diagonal = np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        for mat in (permutation, diagonal):
            op = StructuredOp(mat, targets)
            assert op.kind == ("permutation" if mat is permutation else "diagonal")
            wants = [_embedded_product(mat, targets, n, vec)]
            if n <= 7:
                wants.append(embed_operator(mat, targets, n) @ vec)
            for got in (op.apply(vec), op.apply(vec)):  # prepared, then from the prepared table
                assert got.shape == (2**n,) and got.flags.c_contiguous
                for want in wants:
                    if mat is permutation:
                        assert np.array_equal(got, want), (name, targets)
                    else:
                        assert np.allclose(got, want, rtol=0, atol=1e-12), (name, targets)


def _span_target_sets(n: int) -> dict[str, tuple[list[int], bool]]:
    """Named target lists for an ``n``-qubit state, each with whether the span rule covers it."""
    span = min(n, qcore.SPAN_QUBITS)
    sets = {
        "low, in order": (list(range(min(2, span))), True),
        "low, reversed": (list(range(span - 1, -1, -1))[:3], True),
        "low, shuffled": ([span - 1, 0, span // 2][: min(3, span)], True),
        "non-adjacent": ([0, span - 1], True),
        "single low qubit": ([span - 1], True),
    }
    if n <= qcore.SPAN_QUBITS:
        sets["span == n"] = ([n - 1, 0], True)
    else:
        sets["one target above the span"] = ([1, qcore.SPAN_QUBITS], False)
        sets["top qubit"] = ([n - 1, 0], False)
        sets["high only"] = ([n - 1, n - 2], False)
    return sets


def _table_shape(targets: list[int], kind: str) -> tuple | None:
    """The shape of the one table a prepared op of ``kind`` on ``targets`` holds."""
    top = max(targets)
    if kind == "identity" or (kind == "dense" and top >= qcore.SPAN_QUBITS):
        return None
    if kind == "dense":
        return (2 ** (top + 1), 2 ** (top + 1))
    if kind == "diagonal":
        return (max(2 ** (top + 1), qcore.SPAN_RUN),)
    low = 0 if top < qcore.SPAN_QUBITS else min(targets)  # a permutation's window
    return (2 ** (top + 1 - low),)


@pytest.mark.parametrize("n", range(2, 11))
def test_span_forms_and_their_adjoints_match_embedded_operator(n):
    # Every kind in span form (targets below SPAN_QUBITS), and on the window
    # and kernel paths otherwise, against the index-arithmetic oracle.
    rng = substream(n, "test.span-forms")
    for name, (targets, in_span) in _span_target_sets(n).items():
        assert len(set(targets)) == len(targets) and (max(targets) < qcore.SPAN_QUBITS) == in_span, name
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        for mat in _random_matrices(rng, len(targets)).values():
            op = StructuredOp(mat, targets)
            for applied, matrix in ((op, mat), (_adjoint(op), mat.conj().T)):
                got, kind = applied.apply(vec), applied.kind  # an identity permutation is an identity
                table = applied._table
                assert (None if table is None else table.shape) == _table_shape(targets, kind), (name, kind)
                assert got.shape == (2**n,) and got.flags.c_contiguous
                want = embed_operator(matrix, targets, n) @ vec
                assert np.allclose(got, want, rtol=0, atol=1e-12), (name, kind, applied is op)
                if kind != "dense":
                    assert np.array_equal(got, applied.apply(vec)), (name, kind)  # from the prepared table
                assert applied._table is table  # the second apply reuses it


@pytest.mark.parametrize("targets", [[3, 0], [5, 2, 7]])
def test_one_op_of_each_kind_serves_every_state_size(targets):
    # One op per kind and its adjoint (of the same kind), applied to states of
    # three sizes, in span form ([3, 0]) and on a window from qubit 2 to 7
    # ([5, 2, 7]).  An identity returns its input and builds no table.
    rng = substream(len(targets), "test.one-op-every-size")
    mats = {**_random_matrices(rng, len(targets)), "identity": np.eye(2 ** len(targets), dtype=complex)}
    for kind, mat in mats.items():
        op = StructuredOp(mat, targets)
        for applied, matrix in ((op, mat), (_adjoint(op), mat.conj().T)):
            assert applied.kind == kind
            tables = set()
            for n in (max(targets) + 1, max(targets) + 2, max(targets) + 3):
                vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                got = applied.apply(vec)
                assert np.allclose(got, embed_operator(matrix, targets, n) @ vec, rtol=0, atol=1e-12), (kind, n)
                assert (got is vec) == (kind == "identity"), kind
                tables.add(id(applied._table))
            assert len(tables) == 1, kind  # prepared once, for every size
            table = applied._table
            assert (None if table is None else table.shape) == _table_shape(targets, kind), kind
            with pytest.raises(LayoutError):
                applied.apply(zero(max(targets)))


def test_outcome_weights_are_the_squared_norms_of_the_projected_outcomes():
    rng = substream(23, "test.outcome-weights")
    for _ in range(60):
        n, targets, vec = _random_kernel_case(rng)
        want = [float(np.vdot(v, v).real) for v in (project_outcome(vec, targets, o) for o in range(2 ** len(targets)))]
        got = outcome_weights(vec, targets)
        assert got.shape == (2 ** len(targets),)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 11))
def test_low_qubit_outcome_weights_match_the_projected_norms(n):
    # Targets below SPAN_QUBITS sum runs of the float view on vectors longer
    # than SPAN_RUN (n >= 9 here), the squares otherwise; in order, reversed
    # and non-adjacent, and one target above the span on the transposing path.
    rng = substream(n, "test.low-outcome-weights")
    span = min(n, qcore.SPAN_QUBITS)
    cases = [list(range(span)), list(range(span))[::-1], [0], [span - 1], [0, span - 1], [span - 1, span // 2, 0]]
    cases += [[1, n - 1]] if n > qcore.SPAN_QUBITS else []
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    vec /= np.linalg.norm(vec)
    for targets in (t for t in cases if len(set(t)) == len(t)):
        want = [float(np.vdot(v, v).real) for v in (project_outcome(vec, targets, o) for o in range(2 ** len(targets)))]
        assert np.allclose(outcome_weights(vec, targets), want, rtol=0, atol=1e-12), targets
    with pytest.raises(LayoutError):
        outcome_weights(vec, [n])


def _columns_oracle(vec, matrix, sources, targets):
    """``apply_columns`` by its definition, one output entry at a time."""
    n = vec.size.bit_length() - 1
    size = n - len(sources) + len(targets)
    rest_in = [q for q in range(n) if q not in sources]
    rest_out = [q for q in range(size) if q not in targets]
    out = np.zeros(2**size, dtype=complex)
    for i in range(2**size):
        row = sum((i >> q & 1) << j for j, q in enumerate(targets))
        rest = sum((i >> q & 1) << k for k, q in enumerate(rest_out))
        for c in range(2 ** len(sources)):
            index = sum((rest >> k & 1) << q for k, q in enumerate(rest_in))
            index |= sum((c >> j & 1) << q for j, q in enumerate(sources))
            out[i] += matrix[row, c] * vec[index]
    return out


def test_apply_columns_matches_its_definition():
    # Random sources and targets in any order, dense and sparse matrices,
    # no sources (a preparation or a placement) and no targets (a contraction).
    rng = substream(29, "test.apply-columns")
    for _ in range(60):
        n = int(rng.integers(0, 6))
        sources = [int(q) for q in rng.permutation(n)[: int(rng.integers(0, min(3, n) + 1))]]
        size = n - len(sources) + int(rng.integers(0, 3))
        targets = [int(q) for q in rng.permutation(size)[: size - (n - len(sources))]]
        matrix = rng.standard_normal((2 ** len(targets), 2 ** len(sources))) + 0j
        matrix[rng.random(matrix.shape) < 0.5] = 0
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        got = qcore.apply_columns(vec, matrix, sources, targets)
        assert got.shape == (2**size,) and got.flags.c_contiguous
        assert np.allclose(got, _columns_oracle(vec, matrix, sources, targets), rtol=0, atol=1e-12), (sources, targets)
    with pytest.raises(LayoutError):
        qcore.apply_columns(np.ones(4), np.ones((2, 2)), [0], [0, 1])


def _prover_apply(vec, op, targets):
    """The exact walk's application of the prover gate ``op`` to ``targets`` of ``vec``."""
    n = vec.size.bit_length() - 1
    state = _State(vec, tuple(range(n)), 0, n)
    return _Exact().prover(state, ProverStrategy("gate", lambda turn_index, view: op), 1, {}, list(targets)).vec


@pytest.mark.parametrize("n", range(2, 11))
def test_low_qubit_prover_gates_take_the_span_form_and_match_embedded_operator(n, monkeypatch):
    # A dense gate, or a factored one through its dense form or factor by
    # factor, whose targets lie below SPAN_QUBITS never hands the state to
    # apply_matrix_vec: the walk applies each part as a StructuredOp, in span form.
    rng = substream(n, "test.low-prover-gates")
    seen = []
    kernel = qcore.apply_matrix_vec
    monkeypatch.setattr(qcore, "apply_matrix_vec", lambda vec, *rest: seen.append(vec) or kernel(vec, *rest))
    for name, (targets, in_span) in _span_target_sets(n).items():
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        dense = _random_matrices(rng, len(targets))["dense"]
        for op in (dense, FactoredOp(len(targets), [(dense, range(len(targets)))])):
            seen.clear()
            got = _prover_apply(vec, op, targets)
            assert got.shape == (2**n,) and got.flags.c_contiguous
            assert np.allclose(got, embed_operator(dense, targets, n) @ vec, rtol=0, atol=1e-12), name
            assert any(arg is vec for arg in seen) == (not in_span), name


def _random_factored(rng, k):
    """Random factors of 1-3 qubits on shuffled disjoint positions, some positions left uncovered,
    then up to two more on random positions that overlap them."""
    positions = [int(p) for p in rng.permutation(k)]
    factors, start = [], 0
    while start < k:
        size = int(rng.integers(1, min(3, k - start) + 1))
        chunk, start = positions[start : start + size], start + size
        if rng.random() < 0.2:
            continue
        factors.append((_random_matrices(rng, size)["dense"], chunk))
    for _ in range(int(rng.integers(0, 3))):
        size = int(rng.integers(1, min(3, k) + 1))
        factors.append((_random_matrices(rng, size)["dense"], [int(p) for p in rng.permutation(k)[:size]]))
    return FactoredOp(k, factors)


def test_factored_op_matches_embedded_operator_on_both_sides_of_the_dense_rule():
    rng = substream(17, "test.factored-oracle")
    paths = set()
    for _ in range(60):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        targets = [int(q) for q in rng.permutation(n)[:k]]
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        op = _random_factored(rng, k)
        # The dense form by embedded products, independent of FactoredOp.dense.
        reference = np.eye(2**k, dtype=complex)
        for mat, positions in op.factors:
            reference = embed_operator(mat, list(positions), k) @ reference
        parts = op.parts(targets, n)
        got = _prover_apply(vec, op, targets)
        dense_path = 4**k <= 2**n and bool(op.factors)
        paths.add(dense_path)
        assert (op._dense is not None) == dense_path
        if dense_path:
            assert len(parts) == 1 and parts[0][0] is op.dense() and parts[0][1] == targets
        else:
            assert [(mat, [targets[p] for p in positions]) for mat, positions in op.factors] == parts
        assert np.allclose(got, embed_operator(reference, targets, n) @ vec, rtol=0, atol=1e-12)
        assert np.allclose(op.dense(), reference, rtol=0, atol=1e-12)
    assert paths == {True, False}


def test_factored_dense_is_the_kron_product():
    rng = substream(19, "test.factored-kron")
    mats = [_random_matrices(rng, size)["dense"] for size in (2, 1, 3)]
    positions = [[0, 1], [2], [3, 4, 5]]
    op = FactoredOp(6, zip(mats, positions))
    assert np.allclose(op.dense(), np.kron(mats[2], np.kron(mats[1], mats[0])), rtol=0, atol=1e-12)
    assert op.dense() is op.dense()
    # Uncovered low positions are an identity factor below the others.
    idle_low = FactoredOp(7, zip(mats, [[p + 1 for p in pos] for pos in positions]))
    assert np.allclose(idle_low.dense(), np.kron(op.dense(), np.eye(2)), rtol=0, atol=1e-12)
    assert np.array_equal(FactoredOp(2).dense(), np.eye(4))
    vec = rng.standard_normal(8) + 0j
    assert FactoredOp(2).parts([0, 2], 3) == []
    assert _prover_apply(vec, FactoredOp(2), [0, 2]) is vec
    for targets in ([0, 1, 2], [0, 0], [0, 3]):  # a wrong arity, a repeated target, one outside the state
        with pytest.raises(LayoutError):
            FactoredOp(2).parts(targets, 3)


def test_dense_constructors_refuse_operators_over_the_budget(monkeypatch):
    monkeypatch.setattr(qcore, "MAX_DENSE_BYTES", 16 * 4**3)
    op = FactoredOp(4, [(H, [0])])
    with pytest.raises(CapacityError) as err:
        op.dense()
    assert err.value.requested == 3 * 16 * 4**4 and err.value.limit == 16 * 4**3
    with pytest.raises(CapacityError):
        embed_operator(H, [0], 4)
    assert embed_operator(H, [0], 3).shape == (8, 8)
    # On a state smaller than its dense form it is applied factor by factor.
    vec = zero(7)
    assert op.parts([0, 1, 2, 3], 7) == [(op.factors[0][0], [0])]
    assert np.allclose(_prover_apply(vec, op, [0, 1, 2, 3]), apply_matrix_vec(vec, H, [0]), atol=1e-15)


def test_circuit_matrix_is_the_product_of_embedded_factors():
    rng = substream(19, "test.circuit-oracle")
    kinds = set()
    for _ in range(40):
        n = int(rng.integers(1, 7))
        factors, reference = [], np.eye(2**n, dtype=complex)
        for _ in range(int(rng.integers(0, 6))):
            k = int(rng.integers(1, min(3, n) + 1))
            targets = [int(q) for q in rng.permutation(n)[:k]]
            mat = qcore.haar_matrix(k, rng, "test gate")
            if rng.integers(2):  # a projector onto the span of the first columns
                basis = mat[:, : int(rng.integers(1, 2**k))] if k > 1 else mat[:, :1]
                mat = basis @ basis.conj().T
            kinds.add(bool(np.allclose(mat @ mat.conj().T, np.eye(2**k))))
            factors.append((mat, targets))
            reference = embed_operator(mat, targets, n) @ reference
        got = circuit_matrix(n, factors, "test circuit")
        assert got.shape == (2**n, 2**n) and got.flags.c_contiguous
        assert np.allclose(got, reference, rtol=0, atol=1e-12)
    assert kinds == {True, False}
    for n in (0, 1, 4):
        assert np.array_equal(circuit_matrix(n, [], "empty circuit"), np.eye(2**n))


@pytest.mark.parametrize("control", [0, 1, 2])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_cnot_fanout_is_the_product_of_embedded_cnots(control, count):
    reference = np.eye(2 ** (control + count), dtype=complex)
    for j in range(1, count):
        reference = embed_operator(CNOT, [control, control + j], control + count) @ reference
    assert np.array_equal(qcore.cnot_fanout(control, count), reference)


def test_circuit_matrix_checks_the_budget_before_allocating():
    # 16 qubits would need a 64 GiB matrix; the refusal names the operator.
    with pytest.raises(CapacityError) as err:
        circuit_matrix(16, [], "x")
    assert str(err.value).startswith("x needs ")
    assert err.value.requested == 3 * 16 * 4**16 and err.value.limit == qcore.MAX_DENSE_BYTES


def test_circuit_matrix_refuses_what_it_cannot_hold_under_a_memory_cap():
    # At 13 qubits the matrix alone fits the 1 GiB budget, but a factor also
    # holds its moved block and its output.  Under a 3 GiB address-space cap
    # the build must be refused, never end in a raw MemoryError.
    resource = pytest.importorskip("resource")
    limit = 3 * 2**30
    code = (
        "from dqip import qcore\n"
        "from dqip.errors import CapacityError\n"
        "try:\n"
        "    qcore.circuit_matrix(13, [(qcore.H, [12])], 'probe')\n"
        "except CapacityError as err:\n"
        "    print(err.requested)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(qcore.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0 and "MemoryError" not in proc.stderr, proc.stderr
    assert proc.stdout.split() == [str(3 * 16 * 4**13)]


@pytest.mark.parametrize("targets, arity", [([1, 1], 2), ([0, 4], 2), ([-1], 1), ([0, 1], 1), ([0], 2)])
def test_bad_targets_raise_on_first_and_cached_call(targets, arity):
    vec = zero(3)
    mat = np.eye(2**arity, dtype=complex)
    for _ in range(2):
        with pytest.raises(LayoutError):
            apply_matrix_vec(vec, mat, targets)
        with pytest.raises(LayoutError):
            StructuredOp(mat, targets).apply(vec)


def test_bad_gate_targets_are_refused():
    with pytest.raises(LayoutError):
        apply_matrix_vec(zero(2), CNOT, [0, 2])
    with pytest.raises(LayoutError):
        apply_matrix_vec(zero(2), CNOT, [1, 1])


def test_norm_preserved_under_random_unitaries():
    rng = substream(3, "test.norm")
    for trial in range(20):
        n = int(rng.integers(1, 5))
        state = qcore.haar_state(n, rng)
        k = int(rng.integers(1, n + 1))
        gate = qcore.haar_matrix(k, rng, "test gate")
        targets = list(rng.permutation(n)[:k])
        out = apply_matrix_vec(state, gate, targets)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# reduced_density_from_vec
# ---------------------------------------------------------------------------


def test_reduced_density_bell_pair():
    red = qcore.reduced_density_from_vec(bell_pair(), [0])
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_product_state():
    rng = substream(5, "test.ptrace")
    psi = qcore.haar_state(2, rng)
    phi = qcore.haar_state(1, rng)
    joint = np.kron(phi, psi)  # psi on qubits 0,1
    red = qcore.reduced_density_from_vec(joint, [0, 1])
    assert np.allclose(red, np.outer(psi, psi.conj()), atol=1e-12)
    assert fidelity(DensityOperator(2, red), density(psi)) >= 1 - 1e-9


def test_reduced_density_ghz_keep_two():
    # Direct computation from the 8-amplitude vector.
    vec = ghz3()
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(8):
        for j in range(8):
            if (i >> 2) == (j >> 2):
                expected[i & 3, j & 3] += vec[i] * np.conj(vec[j])
    red = qcore.reduced_density_from_vec(vec, [0, 1])
    assert np.allclose(red, expected, atol=1e-12)
    target = np.zeros((4, 4), dtype=complex)
    target[0, 0] = target[3, 3] = 0.5
    assert np.allclose(red, target, atol=1e-12)


# ---------------------------------------------------------------------------
# projector_probability
# ---------------------------------------------------------------------------


def test_projector_on_plus_state():
    plus = apply_matrix_vec(zero(1), H, [0])
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    assert abs(projector_probability(plus, p0, [0]) - 0.5) <= 1e-12


def test_projector_first_qubit_zero_lifted():
    rng = substream(9, "test.proj")
    anything = qcore.haar_state(2, rng)
    state = np.kron(anything, [1.0, 0.0])  # qubit 0 = |0>
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    assert abs(projector_probability(state, p0, [0]) - 1.0) <= 1e-12


def test_projector_star_state_stabilizer():
    # P0 for the 3-node star graph state, built from its expansion.
    from dqip.ghz import star_state, stabilizer_tests

    star = star_state(3)
    t0, t1 = stabilizer_tests(3)
    assert abs(projector_probability(star, t0.projector, list(range(3))) - 1.0) <= 1e-10
    assert abs(projector_probability(star, t1.projector, list(range(3))) - 1.0) <= 1e-10


def test_non_idempotent_rejected():
    with pytest.raises(ValidationError):
        projector_probability(zero(1), np.array([[0.5, 0], [0, 1]]), [0])


# ---------------------------------------------------------------------------
# fidelity / trace distance
# ---------------------------------------------------------------------------


def test_fidelity_pure_state_cases():
    rho0, rho1 = density(zero(1)), density(np.array([0, 1], dtype=complex))
    assert abs(fidelity(rho0, rho0) - 1.0) <= 1e-12
    assert fidelity(rho0, rho1) <= 1e-9
    mixed = DensityOperator(1, np.eye(2) / 2)
    assert abs(fidelity(rho0, mixed) - 1 / np.sqrt(2)) <= 1e-10


def test_trace_distance_cases():
    rho0, rho1 = density(zero(1)), density(np.array([0, 1], dtype=complex))
    plus = density(apply_matrix_vec(zero(1), H, [0]))
    assert trace_distance(rho0, rho0) <= 1e-12
    assert abs(trace_distance(rho0, rho1) - 1.0) <= 1e-12
    assert abs(trace_distance(rho0, plus) - 1 / np.sqrt(2)) <= 1e-10


def random_density(rng, num_qubits: int, max_terms: int = 4) -> DensityOperator:
    terms = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(terms))
    dim = 2**num_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = qcore.haar_state(num_qubits, rng)
        mat += w * np.outer(v, v.conj())
    return DensityOperator(num_qubits, mat)


def test_fuchs_van_de_graaf_and_triple_inequality():
    rng = substream(1234, "test.fvdg")
    for trial in range(500):
        n = int(rng.integers(1, 4))
        rho, sigma, xi = (random_density(rng, n) for _ in range(3))
        f = fidelity(rho, sigma)
        d = trace_distance(rho, sigma)
        assert 1 - f <= d + 1e-8
        assert d <= np.sqrt(max(0.0, 1 - f**2)) + 1e-8
        assert fidelity(rho, sigma) ** 2 + fidelity(xi, sigma) ** 2 <= 1 + fidelity(rho, xi) + 1e-8


def test_fidelity_symmetry_and_metric_axioms():
    rng = substream(77, "test.metric")
    for trial in range(50):
        n = int(rng.integers(1, 3))
        rho, sigma, xi = (random_density(rng, n) for _ in range(3))
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-8
        assert trace_distance(rho, sigma) <= trace_distance(rho, xi) + trace_distance(xi, sigma) + 1e-8
    with pytest.raises(ValidationError):
        fidelity(random_density(rng, 1), random_density(rng, 2))


# ---------------------------------------------------------------------------
# Haar draws
# ---------------------------------------------------------------------------


def test_haar_determinism():
    a = haar_state(1, 7)
    b = haar_state(1, 7)
    assert np.array_equal(a, b)
    u1 = qcore.haar_matrix(2, substream(3, "t"), "x")
    u2 = qcore.haar_matrix(2, substream(3, "t"), "x")
    assert np.array_equal(u1, u2)


def test_haar_unitarity():
    for seed in range(5):
        u = qcore.haar_matrix(2, substream(seed, "t"), "x")
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10


def test_haar_matrix_checks_what_the_draw_holds_before_drawing():
    # A 12-qubit matrix is 256 MiB, but the draw holds five of its size.
    rng = np.random.default_rng(0)
    with pytest.raises(CapacityError) as err:
        qcore.haar_matrix(12, rng, "probe block")
    assert str(err.value).startswith("probe block needs ")
    assert err.value.requested == qcore.HAAR_PEAK_MATRICES * 16 * 4**12 > qcore.MAX_DENSE_BYTES
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # nothing drawn


def test_haar_first_moment():
    vals = [abs(haar_state(1, seed)[0]) ** 2 for seed in range(10_000)]
    assert abs(np.mean(vals) - 0.5) <= 0.02


def test_haar_conjugation_invariance():
    # The |<0|psi>|^2 statistic is invariant in law under a fixed unitary.
    fixed = qcore.haar_matrix(1, substream(999, "t"), "x")
    plain = np.array([abs(haar_state(1, s)[0]) ** 2 for s in range(4000)])
    rotated = np.array([abs((fixed @ haar_state(1, s + 50_000))[0]) ** 2 for s in range(4000)])
    assert abs(plain.mean() - rotated.mean()) <= 0.03
    assert abs(plain.var() - rotated.var()) <= 0.03


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_haar_state_always_normalized(seed):
    s = haar_state(2, seed)
    assert abs(np.linalg.norm(s) - 1.0) <= 1e-10


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(1, np.array([[0.5, 0.2], [0.3, 0.5]]))
    with pytest.raises(ValidationError):
        DensityOperator(1, np.array([[0.9, 0.0], [0.0, 0.3]]))
    with pytest.raises(ValidationError):
        DensityOperator(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
