"""Every strategy a builder returns hands the walks stored gates.

The exact and sampled walks classify each prover gate once per executor,
keyed on the matrix object (``StructuredOp.cached``), so a ``gate_fn`` that
built a new array or ``FactoredOp`` per call would be classified, and held,
once per call.
"""

from functools import cache

import numpy as np
import pytest

from dqip import ghz
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
def test_a_second_exact_walk_classifies_no_new_operator(name):
    # The op cache and the accept forms hold one entry per (operator object,
    # targets): a gate, step or projector rebuilt per call adds entries on
    # every walk, and one built once adds none after the first.
    spec, strategy = BUILDERS[name]()
    executor = _Executor(spec, strategy)
    sizes = []
    for _ in range(2):
        for branch, views in executor.leaves():
            executor.acceptance(branch, views)
        sizes.append((len(executor.policy._ops), len(executor._accept_forms)))
    assert sizes[0] == sizes[1] and sizes[0][0] > 0, (name, sizes)
