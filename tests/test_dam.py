from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from dqip import dam
from dqip.dam import (
    DamProtocol,
    bipartite_pls,
    brute_force_value,
    catalog_entry,
    coin_parity_echo,
    toy_protocols,
)
from dqip.errors import CapacityError, ValidationError
from dqip.network import cycle_graph, path_graph


def test_bipartite_on_even_cycle_is_perfect():
    value = brute_force_value(bipartite_pls(), cycle_graph(4))
    assert value.optimal_acceptance == 1
    # The recorded strategy is a proper 2-coloring.
    coloring = value.strategy[1][()]
    for a, b in cycle_graph(4).edges:
        assert coloring[a] != coloring[b]


def test_bipartite_on_odd_cycle_fails():
    value = brute_force_value(bipartite_pls(), cycle_graph(3))
    # Every one of the 8 certificate assignments has a monochromatic edge.
    assert value.optimal_acceptance == 0


def test_always_accepting_predicate():
    proto = DamProtocol(
        name="trivial",
        turns=1,
        bits_per_turn=1,
        randomness="private",
        broadcast=lambda view: None,
        predicate=lambda view, received: True,
    )
    assert brute_force_value(proto, path_graph(2)).optimal_acceptance == 1


def test_coin_parity_echo_values():
    entry = catalog_entry("coin-parity-echo-private")
    assert entry.completeness == 1
    assert entry.soundness == Fraction(1, 2)


def test_coin_guess_values():
    entry = catalog_entry("coin-guess")
    assert entry.completeness == Fraction(1, 4)
    assert entry.soundness == 0


def test_catalog_has_gap_everywhere():
    entries = toy_protocols()
    assert len(entries) >= 2
    for entry in entries:
        assert entry.completeness > entry.soundness
    # Both c < 1 and s > 0 appear somewhere in the corpus.
    assert any(e.completeness < 1 for e in entries)
    assert any(e.soundness > 0 for e in entries)


def test_catalog_entry_brute_forces_only_its_own_instances(brute_force_calls):
    for protocol, yes, no in dam._catalog_specs():
        name = protocol.name
        brute_force_calls.clear()
        entry = catalog_entry(name)
        assert brute_force_calls == [name, name]
        assert (entry.name, entry.yes_instance, entry.no_instance) == (name, yes, no)
        assert (entry.completeness, entry.soundness) == (
            brute_force_value(protocol, yes).optimal_acceptance,
            brute_force_value(protocol, no).optimal_acceptance,
        )
        brute_force_calls.clear()
        assert catalog_entry(name) is entry
        assert brute_force_calls == []
    assert [entry.name for entry in toy_protocols()] == [spec[0].name for spec in dam._catalog_specs()]
    assert brute_force_calls == []
    with pytest.raises(ValidationError):
        catalog_entry("no-such-protocol")


def test_a_catalog_entry_and_its_values_are_immutable():
    entry = catalog_entry("coin-guess")
    strategy = entry.yes.strategy
    with pytest.raises(TypeError):
        strategy[1] = {}
    with pytest.raises(TypeError):
        strategy[1][()] = (1, 1)
    with pytest.raises(TypeError):
        del strategy[3]
    with pytest.raises(FrozenInstanceError):
        entry.yes.optimal_acceptance = Fraction(1)
    with pytest.raises(FrozenInstanceError):
        entry.no.strategy = {}
    with pytest.raises(FrozenInstanceError):
        entry.yes = entry.no
    assert catalog_entry("coin-guess").completeness == Fraction(1, 4)


def test_shared_equals_private_with_identical_coins():
    shared = coin_parity_echo("shared")
    yes = path_graph(2, ["0", "0"])
    no = path_graph(2, ["0", "1"])
    for instance in (yes, no):
        shared_value = brute_force_value(shared, instance).optimal_acceptance

        # Private-mode protocol whose predicate reads the node's own coin is
        # evaluated on the diagonal (identical coins) by a wrapper predicate.
        base = coin_parity_echo("private")

        def diag_predicate(view, received, _inner=base.predicate):
            return _inner(view, received)

        # Equality holds because the shared value function only ever reads
        # the local coin; enumerate private coins restricted to the diagonal
        # by brute force over the shared protocol with private semantics.
        diagonal = DamProtocol(
            name="diagonal",
            turns=3,
            bits_per_turn=1,
            randomness="shared",
            broadcast=base.broadcast,
            predicate=diag_predicate,
        )
        assert brute_force_value(diagonal, instance).optimal_acceptance == shared_value


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(dam, "ENUMERATION_BUDGET", 10)
    proto = DamProtocol(
        name="big",
        turns=3,
        bits_per_turn=2,
        randomness="private",
        broadcast=lambda view: None,
        predicate=lambda view, received: True,
    )
    with pytest.raises(CapacityError) as err:
        brute_force_value(proto, path_graph(3))
    assert err.value.requested > 10


def test_enumeration_count_matches_structure():
    # k=3, m=1, private, n=2: 4 first certificates, 4 coin histories times 4
    # echo certificates, plus 4 terminal histories.
    value = brute_force_value(coin_parity_echo(), path_graph(2, ["0", "0"]))
    assert value.enumerated == 4 + 4 * 4 + 4


def test_protocol_validation():
    with pytest.raises(ValidationError):
        DamProtocol("x", 0, 1, "private", lambda v: None, lambda v, r: True)
    with pytest.raises(ValidationError):
        DamProtocol("x", 1, 1, "maybe", lambda v: None, lambda v, r: True)
    with pytest.raises(ValidationError):
        catalog_entry("nope")


def test_merlin_arthur_turn_alternation():
    assert coin_parity_echo().merlin_turns() == [1, 3]
    assert coin_parity_echo().arthur_turns() == [2]
    even = DamProtocol("e", 2, 1, "private", lambda v: None, lambda v, r: True)
    assert even.merlin_turns() == [2]
    assert even.arthur_turns() == [1]
