"""Classical distributed Arthur-Merlin protocols with exact brute-force values.

A protocol alternates Merlin turns (per-node certificates) and Arthur turns
(per-node private coins, or one shared coin), ending with a verification
phase in which each node broadcasts a message to its neighbors and decides
from its own transcript plus the received broadcasts.  Merlin's turn-``j``
certificates may depend on every coin sent so far, so the optimal value is

    max_{c_1} avg_{r_2} max_{c_3(r_2)} ... E[all nodes accept],

evaluated here by backward induction over coin histories with exact rational
arithmetic.  This is the same value as maximizing over full certificate
function tables (max distributes over the average), while touching each
(history, choice) pair once; the budget guard counts those pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import CapacityError, ValidationError
from .network import NetworkGraph, cycle_graph, path_graph

ENUMERATION_BUDGET = 2_000_000


@dataclass(frozen=True)
class DamNodeView:
    """Everything node ``u`` knows at verification time."""

    graph: NetworkGraph
    node: int
    label: str
    certificates: Mapping[int, int]  # Merlin turn -> value in [0, 2^m)
    coins: Mapping[int, int]  # Arthur turn -> this node's coin value


@dataclass(frozen=True)
class DamProtocol:
    """Turn structure plus the classical verification of a dAM protocol.

    ``broadcast(view)`` is the message a node sends its neighbors;
    ``predicate(view, received)`` decides accept/reject from the node's own
    transcript and the neighbors' broadcasts (``received`` maps neighbor id
    to its broadcast value).
    """

    name: str
    turns: int
    bits_per_turn: int
    randomness: str  # "private" | "shared"
    broadcast: Callable[[DamNodeView], object]
    predicate: Callable[[DamNodeView, Mapping[int, object]], bool]
    description: str = ""

    def __post_init__(self):
        if self.turns < 1 or self.bits_per_turn < 1:
            raise ValidationError("turns >= 1 and bits_per_turn >= 1 required")
        if self.randomness not in ("private", "shared"):
            raise ValidationError(f"unknown randomness mode {self.randomness!r}")

    def merlin_turns(self) -> list[int]:
        first_is_merlin = self.turns % 2 == 1
        return [j for j in range(1, self.turns + 1) if (j % 2 == 1) == first_is_merlin]

    def arthur_turns(self) -> list[int]:
        merlin = set(self.merlin_turns())
        return [j for j in range(1, self.turns + 1) if j not in merlin]


@dataclass(frozen=True)
class DamValue:
    """Exact optimal acceptance and the optimal Merlin strategy tables, all read-only."""

    optimal_acceptance: Fraction
    strategy: Mapping[int, Mapping[tuple, tuple]]  # merlin turn -> {coin history -> per-node certificates}
    enumerated: int = 0


def _coin_values(protocol: DamProtocol, graph: NetworkGraph) -> list:
    per_value = 2**protocol.bits_per_turn
    if protocol.randomness == "shared":
        return list(range(per_value))
    return list(itertools.product(range(per_value), repeat=graph.node_count))


def _coin_of(protocol: DamProtocol, coins_value, node: int) -> int:
    return coins_value if protocol.randomness == "shared" else coins_value[node]


def evaluate_outcome(
    protocol: DamProtocol,
    graph: NetworkGraph,
    certificates: Mapping[int, tuple[int, ...]],
    coins: Mapping[int, object],
) -> bool:
    """All-nodes-accept for one full transcript."""
    views = []
    for u in range(graph.node_count):
        views.append(
            DamNodeView(
                graph=graph,
                node=u,
                label=graph.node_inputs[u],
                certificates={j: certs[u] for j, certs in certificates.items()},
                coins={j: _coin_of(protocol, value, u) for j, value in coins.items()},
            )
        )
    messages = {u: protocol.broadcast(views[u]) for u in range(graph.node_count)}
    for u in range(graph.node_count):
        received = {v: messages[v] for v in graph.neighbors(u)}
        if not protocol.predicate(views[u], received):
            return False
    return True


def brute_force_value(protocol: DamProtocol, instance: NetworkGraph) -> DamValue:
    """Exact optimum over all Merlin strategies, averaged over all coins.

    Refuses, before it recurses, an enumeration above ``ENUMERATION_BUDGET``.
    """
    cert_choices = list(
        itertools.product(range(2**protocol.bits_per_turn), repeat=instance.node_count)
    )
    coin_values = _coin_values(protocol, instance)

    # Count the (coin history, certificate choice) pairs before recursing.
    enumerated = 0
    histories = 1
    for j in range(1, protocol.turns + 1):
        if j in protocol.merlin_turns():
            enumerated += histories * len(cert_choices)
        else:
            histories *= len(coin_values)
    enumerated += histories  # terminal predicate evaluations per leaf certificate set
    if enumerated > ENUMERATION_BUDGET:
        raise CapacityError(
            f"enumeration size {enumerated} exceeds the budget of {ENUMERATION_BUDGET}",
            requested=enumerated,
            limit=ENUMERATION_BUDGET,
        )

    strategy: dict[int, dict] = {j: {} for j in protocol.merlin_turns()}
    optimal = _game_value(protocol, instance, cert_choices, coin_values, strategy)
    return DamValue(optimal, MappingProxyType({j: MappingProxyType(t) for j, t in strategy.items()}), enumerated)


def _game_value(protocol, instance, cert_choices, coin_values, strategy) -> Fraction:
    merlin = set(protocol.merlin_turns())
    memo: dict = {}

    def value(turn: int, certificates: tuple, coins: tuple) -> Fraction:
        key = (turn, certificates, coins)
        if key in memo:
            return memo[key]
        if turn > protocol.turns:
            result = Fraction(1 if evaluate_outcome(protocol, instance, dict(certificates), dict(coins)) else 0)
        elif turn in merlin:
            result = max(value(turn + 1, certificates + ((turn, choice),), coins) for choice in cert_choices)
        else:
            total = Fraction(0)
            for coin in coin_values:
                total += value(turn + 1, certificates, coins + ((turn, coin),))
            result = total / len(coin_values)
        memo[key] = result
        return result

    # Forward descent along one optimal strategy: later certificate choices
    # see the actually chosen earlier certificates, so the recorded tables
    # are mutually consistent and replayable as the honest Merlin.
    def extract(turn: int, certificates: tuple, coins: tuple, history: tuple) -> None:
        if turn > protocol.turns:
            return
        if turn in merlin:
            best, best_choice = Fraction(-1), None
            for choice in cert_choices:
                v = value(turn + 1, certificates + ((turn, choice),), coins)
                if v > best:
                    best, best_choice = v, choice
            strategy[turn][history] = best_choice
            extract(turn + 1, certificates + ((turn, best_choice),), coins, history)
        else:
            for coin in coin_values:
                extract(turn + 1, certificates, coins + ((turn, coin),), history + (coin,))

    extract(1, (), (), ())
    return value(1, (), ())


# ---------------------------------------------------------------------------
# Toy catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DamCatalogEntry:
    """A catalog protocol, its yes and no instances and their exact values.

    Brute-forced once per process by :func:`catalog_entry` and shared, so immutable.
    """

    name: str
    protocol: DamProtocol
    yes_instance: NetworkGraph
    no_instance: NetworkGraph
    yes: DamValue
    no: DamValue

    @property
    def completeness(self) -> Fraction:
        return self.yes.optimal_acceptance

    @property
    def soundness(self) -> Fraction:
        return self.no.optimal_acceptance


def bipartite_pls() -> DamProtocol:
    """One-turn proof-labeling scheme: a 1-bit side certificate per node."""

    def broadcast(view: DamNodeView):
        return view.certificates[1]

    def predicate(view: DamNodeView, received) -> bool:
        return all(view.certificates[1] != other for other in received.values())

    return DamProtocol(
        name="bipartite-pls",
        turns=1,
        bits_per_turn=1,
        randomness="private",
        broadcast=broadcast,
        predicate=predicate,
        description="2-coloring certificate checked across every edge",
    )


def coin_parity_echo(randomness: str = "private") -> DamProtocol:
    """3-turn commit / coin / echo game with a label-dependent parity twist.

    Merlin commits a bit, each node flips a coin, and Merlin's reply must
    equal the commitment XOR (coin AND label) while agreeing across edges.
    On label-constant instances the reply is coin-independent (value 1); a
    label mismatch on an edge forces Merlin to predict a coin (value 1/2).
    """

    def broadcast(view: DamNodeView):
        return (view.certificates[1], view.certificates[3])

    def predicate(view: DamNodeView, received) -> bool:
        a, b = view.certificates[1], view.certificates[3]
        x = int(view.label or "0")
        if b != a ^ (view.coins[2] & x):
            return False
        return all(b == other_b for (_, other_b) in received.values())

    return DamProtocol(
        name=f"coin-parity-echo-{randomness}",
        turns=3,
        bits_per_turn=1,
        randomness=randomness,
        broadcast=broadcast,
        predicate=predicate,
        description="commit a bit, echo it XOR (coin AND label), compare across edges",
    )


def coin_guess() -> DamProtocol:
    """3-turn game Merlin cannot win surely: the commitment must equal a
    later coin.  Label 1 marks a poisoned node that always rejects."""

    def broadcast(view: DamNodeView):
        return view.certificates[1]

    def predicate(view: DamNodeView, received) -> bool:
        if view.label == "1":
            return False
        a = view.certificates[1]
        if view.certificates[3] != a or view.coins[2] != a:
            return False
        return all(a == other for other in received.values())

    return DamProtocol(
        name="coin-guess",
        turns=3,
        bits_per_turn=1,
        randomness="private",
        broadcast=broadcast,
        predicate=predicate,
        description="committed bit must match every node's later coin",
    )


def _catalog_specs() -> list[tuple[DamProtocol, NetworkGraph, NetworkGraph]]:
    """(protocol, yes-instance, no-instance) of every catalog entry, in order."""
    return [
        (bipartite_pls(), cycle_graph(4), cycle_graph(3)),
        (coin_parity_echo(), path_graph(2, ["0", "0"]), path_graph(2, ["0", "1"])),
        (coin_guess(), path_graph(2, ["0", "0"]), path_graph(2, ["0", "1"])),
    ]


def catalog_names() -> list[str]:
    """The catalog entries' names, in order, read without brute-forcing any."""
    return [protocol.name for protocol, _, _ in _catalog_specs()]


def toy_protocols() -> list[DamCatalogEntry]:
    """Catalog of brute-forceable protocols with yes/no instance pairs."""
    return [catalog_entry(name) for name in catalog_names()]


@cache
def catalog_entry(name: str) -> DamCatalogEntry:
    """The named catalog entry.  Memoised: each process brute-forces an entry's
    two instances once, and every call returns the same immutable entry."""
    for protocol, yes, no in _catalog_specs():
        if protocol.name == name:
            yes_value, no_value = brute_force_value(protocol, yes), brute_force_value(protocol, no)
            return DamCatalogEntry(name, protocol, yes, no, yes_value, no_value)
    raise ValidationError(f"no catalog entry named {name!r}")
