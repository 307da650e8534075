"""Network graphs, qubit register layouts and spanning-tree labels.

A :class:`RegisterLayout` is the single source of truth mapping named
registers to disjoint qubit ranges; no other module hardcodes positions.
It also owns the register grammar (``name[i]`` is qubit i of ``name``, see
:func:`split_register`) and, with :func:`extend_layout`, how a layout grows.
Register ownership starts from the layout's initial assignment and moves
between actors only at turn boundaries (tracked by the executor).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, LayoutError, ValidationError

#: Sentinel owner id for the prover (nodes are 0..n-1).
PROVER = -1

#: The leader: the node that flips the leader coins, roots the spanning tree
#: whose labels the prover supplies, and centres each star state.
LEADER = 0

#: Dense simulation stays practical below this total qubit count.
DEFAULT_QUBIT_CEILING = 22


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkGraph:
    """Connected undirected graph with optional per-node classical labels."""

    node_count: int
    edges: frozenset[tuple[int, int]]
    node_inputs: tuple[str, ...]

    def neighbors(self, u: int) -> list[int]:
        """``u``'s neighbors in increasing order, as a new list."""
        return list(self._neighbor_table.get(u, ()))

    @functools.cached_property
    def _neighbor_table(self) -> dict[int, tuple[int, ...]]:
        """Each node's sorted neighbors, computed on first use."""
        return {u: tuple(sorted(vs)) for u, vs in _adjacency(self.node_count, self.edges).items()}


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {u: [] for u in range(n)}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def _components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj = _adjacency(n, edges)
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp, queue = [], deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def build_network(
    n: int,
    edges: Iterable[tuple[int, int]],
    node_inputs: Sequence[str] | None = None,
) -> NetworkGraph:
    """Validate and build a connected network graph on nodes ``0..n-1``."""
    if n < 1:
        raise ValidationError("a network needs at least one node")
    canon: set[tuple[int, int]] = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"edge ({a}, {b}) references an unknown node")
        if a == b:
            raise ValidationError(f"self-loop at node {a}")
        pair = (min(a, b), max(a, b))
        if pair in canon:
            raise ValidationError(f"duplicate edge {pair}")
        canon.add(pair)
    comps = _components(n, canon)
    if len(comps) > 1:
        raise ValidationError(f"graph is disconnected; offending component: {comps[1]}")
    if node_inputs is None:
        node_inputs = [""] * n
    if len(node_inputs) != n:
        raise ValidationError("node_inputs length does not match node count")
    return NetworkGraph(n, frozenset(canon), tuple(node_inputs))


def path_graph(n: int, node_inputs: Sequence[str] | None = None) -> NetworkGraph:
    return build_network(n, [(i, i + 1) for i in range(n - 1)], node_inputs)


def cycle_graph(n: int, node_inputs: Sequence[str] | None = None) -> NetworkGraph:
    return build_network(n, [(i, (i + 1) % n) for i in range(n)], node_inputs)


# ---------------------------------------------------------------------------
# Register layout
# ---------------------------------------------------------------------------


def reg_p() -> str:
    return "P"


def reg_v(u: int) -> str:
    return f"V:{u}"


def reg_m(u: int) -> str:
    return f"M:{u}"


def split_register(name: str) -> tuple[str, int | None]:
    """``name[i]`` as ``(name, i)``, a whole register as ``(name, None)``."""
    if name.endswith("]") and "[" in name:
        base, index = name[:-1].split("[")
        return base, int(index)
    return name, None


@dataclass(frozen=True)
class RegisterLayout:
    """Named registers mapped to disjoint qubit ranges plus initial owners."""

    registers: tuple[tuple[str, int, int], ...]  # (name, start, size)
    initial_owner: Mapping[str, int]
    total_qubits: int

    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {name: (start, size) for name, start, size in self.registers})

    def names(self) -> list[str]:
        return [name for name, _, _ in self.registers]

    def has(self, name: str) -> bool:
        return name in self._index

    def size(self, name: str) -> int:
        """The register's qubit count; 0 for one the layout does not hold (none has size 0)."""
        return self._index.get(name, (0, 0))[1]

    def qubits(self, name: str) -> list[int]:
        if name not in self._index:
            raise LayoutError(f"unknown register {name!r}")
        start, size = self._index[name]
        return list(range(start, start + size))

    def expand(self, names: Iterable[str]) -> list[int]:
        """The qubits of ``names``, in order; ``name[i]`` selects qubit i of ``name``."""
        out: list[int] = []
        for name in names:
            base, index = split_register(name)
            qubits = self.qubits(base)
            out += qubits if index is None else [qubits[index]]
        return out

    def owner(self, name: str) -> int:
        return self.initial_owner[name]


def allocate_layout(
    graph: NetworkGraph,
    prover_qubits: int = 0,
    node_private: int = 0,
    node_message: int = 0,
    extras: Sequence[tuple[str, int, int]] = (),
) -> RegisterLayout:
    """Deterministic layout over (P, per-node V/M, extras).

    Every node gets ``node_private`` V qubits and ``node_message`` M qubits.
    ``extras`` entries are (name, size, initial owner).  Raises
    :class:`CapacityError` when the total exceeds ``DEFAULT_QUBIT_CEILING``.
    """
    regs: list[tuple[str, int, int]] = []
    owners: dict[str, int] = {}
    cursor = 0

    def add(name: str, size: int, owner: int) -> None:
        nonlocal cursor
        if size < 0:
            raise ValidationError(f"register {name!r} has negative size")
        if name in owners:
            raise LayoutError(f"duplicate register name {name!r}")
        if size > 0:
            regs.append((name, cursor, size))
            owners[name] = owner
            cursor += size

    add(reg_p(), prover_qubits, PROVER)
    for u in range(graph.node_count):
        add(reg_v(u), node_private, u)
        add(reg_m(u), node_message, PROVER)
    for name, size, owner in extras:
        add(name, size, owner)

    if cursor > DEFAULT_QUBIT_CEILING:
        raise CapacityError(
            f"layout needs {cursor} qubits, above the ceiling of {DEFAULT_QUBIT_CEILING}",
            requested=cursor,
            limit=DEFAULT_QUBIT_CEILING,
        )
    return RegisterLayout(tuple(regs), owners, cursor)


def extend_layout(
    graph: NetworkGraph,
    layout: RegisterLayout,
    extras: Sequence[tuple[str, int, int]],
    p_size: int | None = None,
    owners: Mapping[str, int] | None = None,
) -> RegisterLayout:
    """``layout``'s registers in place, then ``extras`` (name, size, owner).

    P is resized to ``p_size`` when given, and ``owners`` overrides the
    initial owner of the registers it names.  The layout is built by
    :func:`allocate_layout`, so it is held to the qubit ceiling.
    """
    owners = owners or {}
    kept = [(name, size, owners.get(name, layout.owner(name))) for name, _, size in layout.registers if name != "P"]
    if p_size is None:
        p_size = layout.size("P")
    return allocate_layout(graph, prover_qubits=p_size, extras=kept + list(extras))


# ---------------------------------------------------------------------------
# Spanning trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanningTreeLabels:
    """Per-node (parent, distance-to-root) labels; parent is None at the root."""

    root: int
    parent: tuple[int | None, ...]
    distance: tuple[int, ...]

    def children(self, u: int) -> list[int]:
        return [v for v, p in enumerate(self.parent) if p == u]


def spanning_tree(graph: NetworkGraph, root: int) -> SpanningTreeLabels:
    """BFS spanning tree rooted at ``root``."""
    if not 0 <= root < graph.node_count:
        raise ValidationError(f"root {root} is not a node")
    parent: list[int | None] = [None] * graph.node_count
    dist = [-1] * graph.node_count
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return SpanningTreeLabels(root, tuple(parent), tuple(dist))


def tree_label_slots(graph: NetworkGraph) -> tuple:
    """Reply slots through which the prover tells each node its claimed leader, parent and distance.

    Parent ``n`` stands for "no parent".
    """
    from .protocol import ReplySlot  # protocol builds on this module

    n = graph.node_count
    return tuple(
        slot
        for u in range(n)
        for slot in (
            ReplySlot(f"leader:{u}", n, audience=(u,)),
            ReplySlot(f"parent:{u}", n + 1, audience=(u,)),
            ReplySlot(f"dist:{u}", n, audience=(u,)),
        )
    )


def tree_label_replies(tree: SpanningTreeLabels) -> dict[str, int]:
    """The honest answers to :func:`tree_label_slots`, by slot name."""
    n = len(tree.parent)
    replies = {}
    for u in range(n):
        replies[f"leader:{u}"] = tree.root
        replies[f"parent:{u}"] = n if tree.parent[u] is None else tree.parent[u]
        replies[f"dist:{u}"] = tree.distance[u]
    return replies


def neighbors_agree(
    u: int, fields: Sequence[str], view: Mapping, received: Mapping, anchor: Mapping | None = None
) -> bool:
    """Node ``u``'s check that its value of each bundle field equals every neighbor's.

    Node u holds field ``f`` as ``view[f"{f}:{u}"]``, and ``received`` maps
    each neighbor to its broadcast, which carries that neighbor's value under
    ``f``.  The leader passes ``anchor``, the value each field must take
    (say the coin it flipped), so that agreement along every edge of a
    connected network ties each node's values to the leader's.  Plain loops:
    pGHZ calls this once per node on every leaf.
    """
    for f in fields:
        mine = view[f"{f}:{u}"]
        if anchor is not None and anchor[f] != mine:
            return False
        for got in received.values():
            if got[f] != mine:
                return False
    return True


def tree_labels_hold(graph: NetworkGraph, root: int, u: int, view: Mapping, received: Mapping) -> bool:
    """Node ``u``'s local check of the labels from :func:`tree_label_slots`.

    ``received`` maps each neighbor to its broadcast, which carries that
    neighbor's ``leader`` and ``dist`` labels.  Every neighbor must name the
    same leader and ``root`` must name itself; a node naming itself leader
    has no parent and distance 0, and any other node's parent is a neighbor
    one step closer to the leader.
    """
    if not neighbors_agree(u, ("leader",), view, received, {"leader": root} if u == root else None):
        return False
    leader, parent, dist = view[f"leader:{u}"], view[f"parent:{u}"], view[f"dist:{u}"]
    if leader == u:
        return parent == graph.node_count and dist == 0
    return parent in received and dist >= 1 and received[parent]["dist"] + 1 == dist
