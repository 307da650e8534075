"""The slice walk against the zero-filled walk it replaced.

Each branch holds amplitudes on its free qubits only, with every other qubit
at a known basis bit.  ``zero_filled`` walks the same schedule on full
vectors, as the executor did before; both must list the same leaves in the
same order, with the same transcripts and weights, and equal states,
acceptance reads and output states within 1e-12.
"""

import tracemalloc
from functools import cache

import numpy as np
import pytest

from dqip.corpus import coin_check_honest, two_check_spec
from dqip.dam import catalog_entry
from dqip.dqct import build_pdqct, make_instance
from dqip.ghz import GhzProtocolParams, build_pghz
from dqip.network import allocate_layout, path_graph
from dqip.protocol import (
    Measurement,
    ProjectiveCheck,
    ProtocolSpec,
    VerificationPhase,
    VerifierTurn,
    _Executor,
    _Sample,
    _State,
    execute_exact,
    first_qubit_zero_accept,
    static_step,
)
from dqip.qcore import H, X, reduced_density_from_vec
from dqip.seeding import substream
from dqip.transforms import (
    dam_to_dqip,
    halve_turns_private,
    halve_turns_shared,
    pad_to_turns,
    perfect_completeness,
    seven_to_five,
)

from specs import identity_for, random_clean_spec
from zero_filled import ZeroFilledSample, zero_filled

TOL = 1e-12


def _ghz(nodes, copies):
    compiled = build_pghz(path_graph(nodes), GhzProtocolParams(copies=copies, epsilon=0.25, delta=0.5, seed=1))
    return compiled.spec, compiled.honest


def _closeness(kind, qubits=(3, 3)):
    instance = make_instance(path_graph(len(qubits)), qubits, kind, seed=1)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, epsilon=0.25, prover_qubits=0))
    return compiled.spec, compiled.honest


@cache
def _coin_guess():
    entry = catalog_entry("coin-guess")
    return dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)


def _reduced(reduce, turns):
    padded = pad_to_turns(_coin_guess().spec, _coin_guess().honest, turns)
    compiled = reduce(padded.spec, padded.honest)
    return compiled.spec, compiled.honest


def _perfect_completeness():
    spec = two_check_spec(np.array([1, 0]), np.array([1, 1]) / np.sqrt(2))
    compiled = perfect_completeness(spec, coin_check_honest())
    return compiled.spec, compiled.honest


def fixed_qubits_spec():
    """Node 0 measures V:0[0] after a Hadamard; node 1 flips its fresh V:1[0] to |1>, checks its
    fresh V:1[1] against |+> and measures V:1[0] in the verification; both accept on |0>: accept
    reads and a weight table on a qubit fixed at 1, and a check that frees a fixed qubit."""
    graph = path_graph(2)
    layout = allocate_layout(graph, node_private=2)
    plus = np.full((2, 2), 0.5, dtype=complex)
    turn = VerifierTurn(
        steps=(static_step(0, H, ["V:0[0]"]), static_step(1, X, ["V:1[0]"])),
        measurements=(Measurement("m0", 0, lambda view: ["V:0[0]"]),),
        checks=(ProjectiveCheck("c", (1,), lambda view: (plus, ["V:1[1]"])),),
    )
    verification = VerificationPhase(
        measurements=(Measurement("m1", 1, lambda view: ["V:1[0]"]),),
        accepts=tuple(first_qubit_zero_accept(u, f"V:{u}") for u in range(2)),
    )
    return ProtocolSpec("fixed-qubits", graph, layout, (turn,), verification), None


CASES = {
    **{f"ghz n={n} N={copies}": (lambda n=n, c=copies: _ghz(n, c)) for n in (2, 3, 4, 5) for copies in (1, 2)},
    "ghz n=4 N=3": lambda: _ghz(4, 3),
    **{f"closeness 17 qubits {kind}": (lambda k=kind: _closeness(k)) for kind in ("equal", "orthogonal", "random")},
    **{
        f"random clean {seed}{' coin' if coin else ''}": (lambda s=seed, c=coin: random_clean_spec(s, coin=c))
        for seed in range(4)
        for coin in (False, True)
    },
    "halve-shared": lambda: _reduced(halve_turns_shared, 5),
    "seven-to-five": lambda: _reduced(seven_to_five, 7),
    "halve-private": lambda: _reduced(halve_turns_private, 5),
    "perfect completeness": _perfect_completeness,
    "fixed qubits": fixed_qubits_spec,
}


def _close(a, b) -> bool:
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= TOL


def assert_same_leaf(got_executor, want_executor, got, want, spec):
    """One leaf of each walk: transcript, weight, state, acceptance reads and output state."""
    assert list(got[0].values.items()) == list(want[0].values.items())
    assert got[0].weight == want[0].weight and got[1] == want[1]
    assert _close(got[0].state.full(), want[0].state.vec), got[0].values
    total, joint, per_node, projected = got_executor.acceptance(*got, project=True)
    want_total, want_joint, want_per_node, want_projected = want_executor.acceptance(*want, project=True)
    assert abs(total - want_total) <= TOL and abs(joint - want_joint) <= TOL
    assert per_node.keys() == want_per_node.keys()
    assert all(abs(per_node[u] - want_per_node[u]) <= TOL for u in per_node)
    assert (projected is None) == (want_projected is None)
    if projected is not None:
        assert projected is got[0].state or _close(projected.full(), want_projected.vec)
        if spec.output_registers is not None:
            qubits = spec.layout.expand(spec.output_registers(got[0].values))
            assert _close(projected.density(qubits), reduced_density_from_vec(want_projected.vec, qubits))


@pytest.mark.parametrize("case", CASES)
def test_slice_walk_keeps_the_leaves_of_the_zero_filled_walk(case):
    spec, strategy = CASES[case]()
    strategy = strategy or identity_for(spec)
    got_executor, want_executor = _Executor(spec, strategy), zero_filled(spec, strategy)
    leaves = 0
    for got, want in zip(got_executor.leaves(), want_executor.leaves(), strict=True):
        assert_same_leaf(got_executor, want_executor, got, want, spec)
        leaves += 1
    assert leaves >= 1


@pytest.mark.parametrize("kind", ["equal", "orthogonal", "random"])
def test_sampled_slice_walk_draws_as_the_zero_filled_walk(kind):
    spec, strategy = _closeness(kind)
    got_executor = _Executor(spec, strategy, _Sample(substream(3, "tests.slices")))
    want_executor = zero_filled(spec, strategy, ZeroFilledSample(substream(3, "tests.slices")))
    for _ in range(12):
        (got,) = got_executor.leaves()
        (want,) = want_executor.leaves()
        assert_same_leaf(got_executor, want_executor, got, want, spec)
    assert got_executor.policy.rng.random() == want_executor.policy.rng.random()  # as many draws, in order


def test_the_closeness_tests_initial_state_holds_only_its_inputs():
    # 17 qubits, of which the two 6-qubit inputs are prepared: their
    # Kronecker product is the state, and the other five qubits are fixed at 0.
    spec, strategy = _closeness("random")
    executor = _Executor(spec, strategy)
    initial = executor.initial
    assert spec.layout.total_qubits == 17 and initial.vec.size == 4096
    assert initial.bits == 0 and len(initial.free) == 12
    assert _close(initial.full(), zero_filled(spec, strategy).initial.vec)


def test_a_16_qubit_ghz_walk_holds_less_at_its_leaves_than_zero_filled_children():
    # ghz nodes 4, copies 3: 16 qubits, 4,000 leaves.  At a leaf the walk holds
    # the states of its open forks and the leaf.  Before the measurements the
    # state spans every qubit, but a measured child is its outcome's slice of
    # 2^4 amplitudes; zero-filled, each child is a full 2^16 vector.
    spec, strategy = _ghz(4, 3)
    state_bytes = 16 * 2**spec.layout.total_qubits
    held = {}
    for name, executor in (("slices", _Executor(spec, strategy)), ("zero-filled", zero_filled(spec, strategy))):
        executor.initial  # noqa: B018  (built before tracing, as the walk shares it)
        tracemalloc.start()
        try:
            most = 0
            for leaf, _ in executor.leaves():
                assert leaf.state.vec.size <= 2**4 or name == "zero-filled"
                most = max(most, tracemalloc.get_traced_memory()[0])
                del leaf
        finally:
            tracemalloc.stop()
        held[name] = most / state_bytes
    assert held["slices"] < 3 <= held["zero-filled"], held


def test_the_16_qubit_ghz_run_peaks_below_five_states():
    # execute_exact with the output, ghz nodes 4, copies 3: the peak comes
    # before the measurements, from the delivered state, a rotated copy, the
    # weight pass and the kernel's temporaries.
    spec, strategy = _ghz(4, 3)
    tracemalloc.start()
    try:
        report = execute_exact(spec, strategy, collect_output=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(report.acceptance_probability - 1.0) <= 1e-9
    assert peak < 5 * 16 * 2**spec.layout.total_qubits, peak / (16 * 2**spec.layout.total_qubits)


def _filled_by_index(state):
    """``state`` as a zero-filled vector, each amplitude put at its index by bit arithmetic."""
    full = np.zeros(2**state.n, dtype=complex)
    base = state.bits & ~sum(1 << q for q in state.free)
    for i, amplitude in enumerate(state.vec):
        full[base | sum((i >> j & 1) << q for j, q in enumerate(state.free))] = amplitude
    return full


def _bits_of(index, qubits):
    """Each entry of ``index`` read at ``qubits``: bit ``j`` is qubit ``qubits[j]``."""
    return sum((index >> q & 1) << j for j, q in enumerate(qubits))


@pytest.mark.parametrize("seed", range(6))
def test_reads_place_the_fixed_qubits_they_meet(seed):
    # Random slices on 3-8 qubits, read on targets that mix free and fixed
    # qubits, against the same reads of the zero-filled vector.
    rng = substream(seed, "tests.slice-reads")
    for _ in range(40):
        n = int(rng.integers(3, 9))
        free = tuple(sorted(int(q) for q in rng.choice(n, int(rng.integers(1, n)), replace=False)))
        fixed = [q for q in range(n) if q not in free]
        bits = sum(int(rng.integers(2)) << q for q in fixed)
        vec = rng.standard_normal(2 ** len(free)) + 1j * rng.standard_normal(2 ** len(free))
        state = _State(vec, free, bits, n)
        full, index = _filled_by_index(state), np.arange(2**n)
        assert _close(state.full(), full)
        picked = [int(rng.choice(free)), int(rng.choice(fixed))]
        others = [q for q in range(n) if q not in picked]
        extra = [int(q) for q in rng.choice(others, int(rng.integers(0, n - 1)), replace=False)]
        targets = [int(q) for q in rng.permutation(picked + extra)]
        weights = np.bincount(_bits_of(index, targets), abs(full) ** 2, minlength=2 ** len(targets))
        assert _close(state.weights(targets), weights), (n, free, targets)
        keep = sorted(targets)
        rest = [q for q in range(n) if q not in keep]
        block = np.zeros((2 ** len(keep), 2 ** len(rest)), dtype=complex)
        block[_bits_of(index, keep), _bits_of(index, rest)] = full
        assert _close(state.density(targets), block @ block.conj().T), (n, free, targets)
