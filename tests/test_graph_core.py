import pickle
import random

import pytest

from planar_turan.graph import (
    Graph,
    build_graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_connected,
    is_tree,
    path_with_edges,
    star_graph,
)


def test_build_graph_normalizes_edges():
    g = build_graph(4, [(2, 0), (0, 2), (1, 3), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.edge_count == 2
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def test_zero_vertex_graph():
    g = build_graph(0, [])
    assert g.n == 0 and g.edges == ()


def test_degrees_and_adjacency():
    g = star_graph(3)
    assert g.degree(0) == 3
    assert g.adj[0] == (1, 2, 3)
    assert g.degree_sequence() == (1, 1, 1, 3)
    assert all(g.degree(v) == 1 for v in (1, 2, 3))


def test_named_graphs_shapes():
    assert path_with_edges(0).n == 1
    assert path_with_edges(4).n == 5
    assert path_with_edges(4).edge_count == 4
    assert cycle_graph(5).degree_sequence() == (2,) * 5
    assert complete_graph(4).edge_count == 6
    assert complete_bipartite(2, 3).edge_count == 6
    assert complete_bipartite(2, 3).degree_sequence() == (2, 2, 2, 3, 3)
    assert empty_graph(6).edge_count == 0
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_with_edges(-1)


def test_equality_and_hash():
    a = build_graph(3, [(0, 1), (1, 2)])
    b = path_with_edges(2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_graph(3, [(0, 1)])
    assert a != build_graph(4, [(0, 1), (1, 2)])


def test_relabel_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        inverse = [0] * n
        for v, p in enumerate(perm):
            inverse[p] = v
        assert h.relabel(inverse) == g
        assert h.degree_sequence() == g.degree_sequence()
    with pytest.raises(ValueError):
        complete_graph(3).relabel([0, 0, 1])


def test_with_vertex_and_delete_vertex():
    g = cycle_graph(4)
    h = g.with_vertex([0, 2])
    assert h.n == 5
    assert h.has_edge(4, 0) and h.has_edge(4, 2)
    assert h.delete_vertex(4) == g
    back = complete_graph(4).delete_vertex(0)
    assert back == complete_graph(3)
    with pytest.raises(ValueError):
        g.delete_vertex(4)


def test_with_vertex_equals_the_built_graph():
    # with_vertex extends the rows and the sorted edges directly; the
    # result must be the graph build_graph makes, view for view
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(0, 8)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.4])
        attach = [v for v in range(n) if rng.random() < 0.5]
        rng.shuffle(attach)
        h = g.with_vertex(attach)
        want = build_graph(n + 1, list(g.edges) + [(a, n) for a in attach])
        assert (h.n, h.edges, h.adj, h.bits) == (want.n, want.edges,
                                                 want.adj, want.bits)
    for bad in ([4], [-1], [0, 0], [1, 2, 1]):
        with pytest.raises(ValueError):
            cycle_graph(4).with_vertex(bad)


def test_induced_subgraph_relabels_sorted():
    g = build_graph(6, [(0, 3), (3, 5), (1, 2), (2, 4)])
    sub = induced_subgraph(g, [5, 0, 3])
    # kept ids 0, 3, 5 become 0, 1, 2
    assert sub.n == 3
    assert sub.edges == ((0, 1), (1, 2))
    assert induced_subgraph(g, []) == build_graph(0, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [6])


def test_connectivity_helpers():
    two = disjoint_union([cycle_graph(3), path_with_edges(1)])
    comps = connected_components(two)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3, 4]]
    assert not is_connected(two)
    assert is_connected(cycle_graph(6))
    assert is_tree(path_with_edges(3))
    assert is_tree(star_graph(4))
    assert not is_tree(cycle_graph(3))
    assert not is_tree(two)
    assert is_tree(empty_graph(1))
    assert not is_tree(empty_graph(2))


def test_disjoint_union_offsets():
    g = disjoint_union([complete_graph(3), complete_graph(2)])
    assert g.n == 5
    assert g.has_edge(3, 4)
    assert not any(g.has_edge(a, b) for a in (0, 1, 2) for b in (3, 4))


def test_pickle_roundtrip():
    g = complete_bipartite(2, 4)
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g
    assert clone.adj == g.adj
    assert clone.bits == g.bits


def test_rows_come_out_sorted_from_any_edge_order():
    # build_graph fills each row from the sorted edge list and sorts no
    # row itself; shuffled, duplicated and reversed pairs must not matter
    rng = random.Random(2718)
    for _ in range(200):
        n, p = rng.randint(0, 12), rng.uniform(0.1, 0.9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        given = edges + rng.sample(edges, len(edges) // 2)
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in given]
        rng.shuffle(given)
        g = build_graph(n, given)
        assert g == build_graph(n, edges)
        for v, row in enumerate(g.adj):
            assert list(row) == sorted(row)
            assert sum(1 << w for w in row) == g.bits[v]
            assert len(set(row)) == len(row)
