"""Every strategy a builder returns hands the walks stored gates.

The exact and sampled walks classify each prover gate once per executor,
keyed on the matrix object (``StructuredOp.cached``), so a ``gate_fn`` that
built a new array or ``FactoredOp`` per call would be classified, and held,
once per call.  A read-only gate (a named one, or a memoised constructor's)
is classified once per process instead, in one table that rebuilt specs
must not grow.
"""

from functools import cache

import numpy as np
import pytest

from dqip import dqct, ghz, protocol, prover, qcore
from dqip.cli import run_experiment
from dqip.corpus import coin_check_honest, coin_check_spec, two_check_spec
from dqip.dam import catalog_entry
from dqip.dqct import build_pdqct, make_instance
from dqip.network import path_graph
from dqip.protocol import _Executor, collect_paths
from dqip.transforms import (
    dam_to_dqip,
    halve_turns_private,
    halve_turns_shared,
    pad_to_turns,
    parallel_repeat,
    perfect_completeness,
    seven_to_five,
)

GHZ = ghz.GhzProtocolParams(copies=1, prover_qubits=1)
E0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


@cache
def _coin_guess():
    entry = catalog_entry("coin-guess")
    return dam_to_dqip(entry.protocol, entry.yes_instance, entry.yes)


def _padded(target: int):
    compiled = _coin_guess()
    return pad_to_turns(compiled.spec, compiled.honest, target)


def _pghz(strategy: str):
    compiled = ghz.build_pghz(path_graph(3), GHZ)
    if strategy == "honest":
        return compiled.spec, compiled.honest
    return compiled.spec, ghz.all_zero_cheat(compiled.spec, GHZ)


def _compiled(build):
    def specify():
        compiled = build()
        return compiled.spec, compiled.honest

    return specify


BUILDERS = {
    "pghz-honest": lambda: _pghz("honest"),
    "pghz-all-zero": lambda: _pghz("all-zero"),
    "closeness-test": _compiled(lambda: build_pdqct(make_instance(path_graph(2), (1, 1), "random", seed=1), GHZ)),
    "coin-check": lambda: (coin_check_spec([E0, PLUS]), coin_check_honest()),
    "dam-to-dqip": _compiled(_coin_guess),
    "pad": _compiled(lambda: _padded(5)),
    "halve-shared": _compiled(lambda: halve_turns_shared(_padded(5).spec, _padded(5).honest)),
    "seven-to-five": _compiled(lambda: seven_to_five(_padded(7).spec, _padded(7).honest)),
    "halve-private": _compiled(lambda: halve_turns_private(_padded(5).spec, _padded(5).honest)),
    "perfect-completeness": _compiled(lambda: perfect_completeness(two_check_spec(E0, PLUS), coin_check_honest())),
    "repeat-AND": _compiled(lambda: parallel_repeat(two_check_spec(E0, PLUS), coin_check_honest(), 2, "AND")),
    "repeat-majority": _compiled(lambda: parallel_repeat(two_check_spec(E0, PLUS), coin_check_honest(), 2, "majority")),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_gate_fn_returns_one_object_per_turn_and_view(name):
    spec, strategy = BUILDERS[name]()
    paths, _ = collect_paths(spec, strategy)
    keys = {op[0] for path in paths for op in path.ops if isinstance(op, tuple)}
    assert keys, name
    for turn_index, view_items in keys:
        first = strategy.gate_fn(turn_index, dict(view_items))
        assert strategy.gate_fn(turn_index, dict(view_items)) is first, (name, turn_index, view_items)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_second_exact_walk_classifies_no_new_operator(name, classified):
    # The op tables hold one entry per (operator object, targets), the
    # process's for a read-only matrix and the executor's for any other: a
    # gate, step or projector (accept projectors included) rebuilt per call is
    # classified again on every walk, and one built once is classified on the
    # first walk only.
    spec, strategy = BUILDERS[name]()
    executor = _Executor(spec, strategy)
    classified.clear()  # a build may run walks of its own
    counts = []
    for _ in range(2):
        before = len(classified)
        for branch, views in executor.leaves():
            executor.acceptance(branch, views)
        counts.append(len(classified) - before)
    keys = [(id(matrix), targets) for matrix, targets in classified]
    assert len(set(keys)) == len(keys), name  # no operator classified twice
    assert counts[0] > 0 and counts[1] == 0, (name, counts)


MEMOISED = {
    "star preparation": lambda: ghz.star_prep_matrix(3),
    "Hadamard layer": lambda: ghz._hadamard_layer(2),
    "controlled slice swap": lambda: dqct._controlled_slice_swap(2),
    "swap-test finish": lambda: dqct._swap_test_finish(),
    "basis projector |0>": lambda: qcore.basis_projector(1),
    "basis projector |11>": lambda: qcore.basis_projector(2, 3),
    "CNOT fan-in": lambda: qcore.cnot_fanout(1, 3),
    "stabilizer projector": lambda: ghz.stabilizer_tests(3)[1].projector,
    "star delivery": lambda: ghz._star_delivery(2, 1, 0).dense(),
}


@pytest.mark.parametrize("name", sorted(MEMOISED))
def test_a_memoised_gate_is_one_read_only_array(name):
    gate = MEMOISED[name]()
    assert MEMOISED[name]() is gate, name
    with pytest.raises(ValueError, match="read-only"):
        gate[0, 0] = 0


def test_rebuilt_specs_do_not_grow_the_process_table(classified, tmp_path):
    # Each `dqip run` rebuilds its spec; the process table holds the ops of
    # read-only gates only, which a second round of the same configs reuses.
    configs = [
        {"experiment": "ghz", "seed": 1, "params": {"nodes": 3, "copies": 1}},
        {"experiment": "ghz", "seed": 1, "mode": "sampled", "trials": 12, "params": {"nodes": 2, "copies": 2}},
        {"experiment": "dqct", "seed": 1, "params": {"nodes": 2, "qubits_per_node": [1, 1], "states": "random"}},
        {
            "experiment": "dqct",
            "seed": 2,
            "mode": "sampled",
            "trials": 12,
            "params": {"nodes": 2, "qubits_per_node": [2, 1], "states": "orthogonal", "prover_qubits": 0},
        },
        {
            "experiment": "compile-pipeline",
            "seed": 1,
            "params": {
                "protocol": "coin-guess",
                "instance": "yes",
                "pipeline": [{"transform": "pad", "target": 5}, {"transform": "halve-shared"}],
            },
        },
    ]
    sizes = []
    for _ in range(2):
        for i, config in enumerate(configs):
            run_experiment(config, tmp_path / str(i))
        sizes.append(len(qcore.StructuredOp._shared))
    assert sizes[0] > 0 and sizes[1] == sizes[0], sizes


def test_a_repeated_sampled_run_makes_no_kernel_call(monkeypatch, tmp_path):
    # Every operator a closeness-test build hands the walks, and every accept
    # form, is built once per process: a second run only applies span forms.
    config = {
        "experiment": "dqct",
        "seed": 1000,
        "mode": "sampled",
        "trials": 12,
        "params": {"nodes": 2, "qubits_per_node": [3, 3], "states": "random", "prover_qubits": 0},
    }
    run_experiment(config, tmp_path / "first")
    calls = []
    original = qcore.apply_matrix_vec

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (qcore, protocol, prover):
        if getattr(module, "apply_matrix_vec", None) is original:
            monkeypatch.setattr(module, "apply_matrix_vec", counting)
    run_experiment({**config, "seed": 1001}, tmp_path / "second")
    assert calls == []
