import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqip.errors import CapacityError, LayoutError, ValidationError
from dqip.network import (
    PROVER,
    NetworkGraph,
    SpanningTreeLabels,
    allocate_layout,
    build_network,
    cycle_graph,
    extend_layout,
    path_graph,
    spanning_tree,
    split_register,
    tree_label_replies,
    tree_labels_hold,
)


def test_path_graph_valid():
    g = path_graph(3)
    assert g.node_count == 3
    assert g.neighbors(1) == [0, 2]
    # diameter 2: node 0 to node 2 via node 1
    assert (0, 2) not in g.edges


def _random_connected(n: int, seed: int) -> NetworkGraph:
    """A random spanning tree on ``n`` nodes plus random extra edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.3}
    return build_network(n, sorted(edges))


@pytest.mark.parametrize(
    "graph",
    [path_graph(5), cycle_graph(6), build_network(5, [(0, v) for v in range(1, 5)]), _random_connected(8, 3)],
    ids=["path", "cycle", "star", "random"],
)
def test_neighbors_are_the_sorted_edge_scan_and_a_fresh_list(graph):
    for u in range(graph.node_count):
        scan = sorted([b for a, b in graph.edges if a == u] + [a for a, b in graph.edges if b == u])
        got = graph.neighbors(u)
        assert got == scan and isinstance(got, list)
        got.append(-7)
        got.clear()
        assert graph.neighbors(u) == scan


def test_four_cycle_two_colorable():
    g = cycle_graph(4)
    color = {0: 0, 1: 1, 2: 0, 3: 1}
    assert all(color[a] != color[b] for a, b in g.edges)


def test_disconnected_rejected_with_component():
    with pytest.raises(ValidationError) as err:
        build_network(4, [(0, 1), (2, 3)])
    assert "[2, 3]" in str(err.value)


def test_bad_edges_rejected():
    with pytest.raises(ValidationError):
        build_network(2, [(0, 0)])
    with pytest.raises(ValidationError):
        build_network(2, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        build_network(2, [(0, 5)])
    with pytest.raises(ValidationError):
        build_network(0, [])


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


def test_layout_ordering_rule():
    g = path_graph(2)
    layout = allocate_layout(g, prover_qubits=1, node_private=1, node_message=1)
    assert layout.total_qubits == 5
    assert layout.qubits("P") == [0]
    assert layout.names() == ["P", "V:0", "M:0", "V:1", "M:1"]
    assert layout.owner("V:0") == 0 and layout.owner("M:0") == PROVER


def test_split_register():
    assert split_register("V:0") == ("V:0", None)
    assert split_register("V:0[2]") == ("V:0", 2)
    assert split_register("W:0:1[0]") == ("W:0:1", 0)


def test_expand_lists_whole_registers_and_single_qubits_in_order():
    layout = allocate_layout(path_graph(2), prover_qubits=2, node_private=2, node_message=1)
    assert layout.names() == ["P", "V:0", "M:0", "V:1", "M:1"]
    assert layout.expand(["V:1", "P"]) == [5, 6, 0, 1]
    assert layout.expand(["M:1", "V:0[1]", "P[0]", "V:0"]) == [7, 3, 0, 2, 3]
    assert layout.expand([]) == []


def test_absent_register_has_size_zero_and_expand_refuses_it():
    layout = allocate_layout(path_graph(2), prover_qubits=0, node_private=1, node_message=0)
    assert not layout.has("P") and not layout.has("M:0")
    assert layout.size("P") == 0 and layout.size("M:0") == 0 and layout.size("V:1") == 1
    with pytest.raises(LayoutError, match="unknown register 'M:0'"):
        layout.expand(["V:0", "M:0"])
    with pytest.raises(LayoutError, match="unknown register 'X'"):
        layout.expand(["X[0]"])


def test_extend_layout_keeps_registers_in_place_and_appends_extras():
    g = path_graph(2)
    layout = allocate_layout(g, prover_qubits=1, node_private=1, node_message=1)
    wider = extend_layout(g, layout, [("B", 2, 0)], p_size=3, owners={"V:1": PROVER})
    assert wider.names() == ["P", "V:0", "M:0", "V:1", "M:1", "B"]
    assert wider.size("P") == 3 and wider.qubits("B") == [7, 8]
    assert wider.owner("V:1") == PROVER and wider.owner("V:0") == 0 and wider.owner("B") == 0
    assert extend_layout(g, layout, []) == layout
    with pytest.raises(CapacityError):
        extend_layout(g, layout, [("B", 20, 0)])


def test_layout_capacity_error():
    g = path_graph(2)
    with pytest.raises(CapacityError) as err:
        allocate_layout(g, prover_qubits=30, node_private=5)
    assert err.value.requested == 40
    assert "40" in str(err.value)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_layout_is_bijection(prover, private, message):
    g = path_graph(3)
    layout = allocate_layout(g, prover, private, message)
    seen: list[int] = []
    for name in layout.names():
        seen.extend(layout.qubits(name))
    assert sorted(seen) == list(range(layout.total_qubits))


def test_unknown_register_raises():
    layout = allocate_layout(path_graph(2), 1, 1, 1)
    with pytest.raises(LayoutError):
        layout.qubits("B'")


# ---------------------------------------------------------------------------
# Spanning trees
# ---------------------------------------------------------------------------


def verify_spanning_tree(graph: NetworkGraph, labels: SpanningTreeLabels) -> list[bool]:
    """``tree_labels_hold`` at every node, for labels that every node claims truthfully.

    Node ``u`` checks only its own label against its neighbors' labels:
    the root has no parent and distance 0, every other node's parent is an
    adjacent node one step closer to the root.  All nodes return True iff
    the labels encode a spanning tree rooted at ``labels.root``.
    """
    claims = tree_label_replies(labels)
    bundles = {v: {"leader": labels.root, "dist": labels.distance[v]} for v in range(graph.node_count)}
    return [
        tree_labels_hold(graph, labels.root, u, claims, {v: bundles[v] for v in graph.neighbors(u)})
        for u in range(graph.node_count)
    ]


def test_bfs_tree_on_path():
    g = path_graph(3)
    labels = spanning_tree(g, 0)
    assert labels.parent == (None, 0, 1)
    assert labels.distance == (0, 1, 2)
    assert all(verify_spanning_tree(g, labels))


def test_bad_distance_detected_at_offending_node():
    g = path_graph(3)
    labels = SpanningTreeLabels(0, (None, 0, 1), (0, 1, 5))
    assert verify_spanning_tree(g, labels) == [True, True, False]


def test_parent_cycle_rejected():
    g = path_graph(3)
    labels = SpanningTreeLabels(0, (None, 2, 1), (0, 1, 1))
    assert not all(verify_spanning_tree(g, labels))


def all_label_assignments(g: NetworkGraph, root: int):
    n = g.node_count
    parent_choices = [[None] + list(range(n)) for _ in range(n)]
    for parents in itertools.product(*parent_choices):
        for dists in itertools.product(range(n), repeat=n):
            yield SpanningTreeLabels(root, tuple(parents), tuple(dists))


def is_true_tree(g: NetworkGraph, labels: SpanningTreeLabels) -> bool:
    n = g.node_count
    if labels.parent[labels.root] is not None or labels.distance[labels.root] != 0:
        return False
    for u in range(n):
        if u == labels.root:
            continue
        p = labels.parent[u]
        if p is None or p not in g.neighbors(u):
            return False
        if labels.distance[u] != labels.distance[p] + 1:
            return False
    # Every node must reach the root by following parents.
    for u in range(n):
        cur, steps = u, 0
        while cur != labels.root:
            cur = labels.parent[cur]
            steps += 1
            if cur is None or steps > n:
                return False
    return True


@pytest.mark.parametrize(
    "graph,root",
    [(path_graph(3), 0), (path_graph(3), 1), (cycle_graph(4), 0), (cycle_graph(3), 2)],
)
def test_verification_exhaustively_characterizes_trees(graph, root):
    for labels in all_label_assignments(graph, root):
        assert all(verify_spanning_tree(graph, labels)) == is_true_tree(graph, labels)


def test_every_label_assignment_on_three_path_checked():
    g = path_graph(3)
    accepted = [
        labels
        for labels in all_label_assignments(g, 0)
        if all(verify_spanning_tree(g, labels))
    ]
    # The 3-path has exactly one spanning tree rooted at 0.
    assert len(accepted) == 1
    assert accepted[0].parent == (None, 0, 1)
