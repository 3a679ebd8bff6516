import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_turan.bruteforce import beta_brute
from planar_turan.cycles import ForbiddenFamily
from planar_turan.graph import (
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    path_with_edges,
    star_graph,
)
from planar_turan.params import (
    beta,
    degeneracy,
    min_edge_degree_sum,
    tree_partition,
)
from planar_turan.search import SearchBudget, enumerate_constrained
from planar_turan.verify import random_tree

# few examples and no example database: tier-1 stays fast and leaves no files
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def test_beta_path_closed_form():
    for ell in range(1, 5):
        for k in range(1, 13):
            want = 1 + (k + ell - 1) // (ell + 1)
            assert beta(path_with_edges(k), ell).value == want


def test_beta_cycle_closed_form():
    for ell in range(1, 5):
        for k in range(3, 13):
            assert beta(cycle_graph(k), ell).value == k // (ell + 1)


def test_beta_counts_isolated_vertices():
    # a degree-0 vertex is a valid singleton component
    for ell in (1, 2, 3):
        assert beta(empty_graph(4), ell).value == 4
        assert beta(empty_graph(1), ell).value == 1
    mixed = disjoint_union([path_with_edges(2), empty_graph(1)])
    assert beta(mixed, 1).value == 3


def _path_cycle_union(rng, max_n):
    """A randomly relabelled disjoint union of paths and cycles."""
    parts = []
    total = 0
    while True:
        part = (cycle_graph(rng.randint(3, 9)) if rng.random() < 0.5
                else path_with_edges(rng.randint(0, 7)))
        if total + part.n > max_n:
            break
        parts.append(part)
        total += part.n
    g = disjoint_union(parts)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return parts, g.relabel(perm)


def _closed_form(part, ell):
    """beta of one path (k edges) or cycle, as in the closed-form tests."""
    if part.edge_count == part.n:
        return part.n // (ell + 1)
    return 1 + (part.edge_count + ell - 1) // (ell + 1)


def _branchy_host(rng, max_n):
    """K4 with pendant paths and degree-2 chains between its vertices,
    randomly relabelled: every degree-<=2 piece is a path attached to a
    degree->=3 vertex."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    n = 4
    while True:
        length = rng.randint(1, 6)
        if n + length > max_n:
            break
        ends = rng.sample(range(4), 2)
        chain = [ends[0]] + list(range(n, n + length))
        if rng.random() < 0.5:
            chain.append(ends[1])  # a chain between two branch vertices
        edges += list(zip(chain, chain[1:]))
        n += length
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, edges).relabel(perm)


def _assert_valid_witness(h, ell, wit):
    assert len(wit.components) == wit.value
    chosen = [v for comp in wit.components for v in comp]
    assert len(chosen) == len(set(chosen))
    sub = induced_subgraph(h, chosen)
    # no edges may run between two chosen components
    assert sub.edge_count == sum(len(c) - 1 for c in wit.components)
    for comp in wit.components:
        if len(comp) == 1 and h.degree(comp[0]) <= 1:
            continue
        assert len(comp) == ell
        assert all(h.degree(v) == 2 for v in comp)
        assert induced_subgraph(h, comp).edge_count == ell - 1


def test_beta_witness_is_valid():
    rng = random.Random(246)
    for _ in range(60):
        n = rng.randint(2, 12)
        t = random_tree(rng, n)
        ell = rng.randint(1, 3)
        _assert_valid_witness(t, ell, beta(t, ell))
    # non-tree hosts up to the 24-vertex cap
    for k in range(3, 25):
        for ell in range(1, 5):
            wit = beta(cycle_graph(k), ell)
            _assert_valid_witness(cycle_graph(k), ell, wit)
            assert wit.value == k // (ell + 1)
    for _ in range(60):
        ell = rng.randint(1, 4)
        parts, g = _path_cycle_union(rng, 24)
        wit = beta(g, ell)
        _assert_valid_witness(g, ell, wit)
        assert wit.value == sum(_closed_form(p, ell) for p in parts)
        h = _branchy_host(rng, 24)
        _assert_valid_witness(h, ell, beta(h, ell))
    # the cycle 0, 2, 3, ..., 23, 1: the chosen run through 0 wraps to 1,
    # the vertex before the cycle's start in walk order
    wrap = cycle_graph(24).relabel([0] + list(range(2, 24)) + [1])
    for ell in (2, 3, 4):
        wit = beta(wrap, ell)
        _assert_valid_witness(wrap, ell, wit)
        assert wit.value == 24 // (ell + 1)
        assert wit.components[0][:2] == (0, 1)


def test_beta_matches_brute_on_all_small_classes():
    classes = [g for n in range(1, 8)
               for g in enumerate_constrained(n, require_planar=False)]
    assert len(classes) == 1252
    for g in classes:
        for ell in range(1, 5):
            assert beta(g, ell) == beta_brute(g, ell)


def test_beta_matches_brute_on_trees_and_path_cycle_unions():
    rng = random.Random(808)
    hosts = []
    while len(hosts) < 80:
        t = random_tree(rng, rng.randint(2, 16))
        if sum(1 for v in range(t.n) if t.degree(v) <= 2) <= 12:
            hosts.append(t)
        hosts.append(_path_cycle_union(rng, rng.randint(3, 12))[1])
    for g in hosts:
        for ell in range(1, 5):
            assert beta(g, ell) == beta_brute(g, ell)


@st.composite
def sparse_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs),
                         max_size=len(pairs)))
    return build_graph(n, [p for p, k in zip(pairs, keep) if k == 0])


@PROPERTY
@given(sparse_graphs(), st.integers(1, 4))
def test_property_beta_matches_brute(g, ell):
    assert beta(g, ell) == beta_brute(g, ell)


def test_beta_validation():
    with pytest.raises(ValueError):
        beta(path_with_edges(2), 0)
    with pytest.raises(ValueError):
        beta(empty_graph(25), 1)


def test_tree_partition_path_all_deep():
    part = tree_partition(path_with_edges(6), 1)
    assert sorted(part.leaves) == [0, 6]
    assert not part.branch_vertices
    assert sorted(part.deep_degree_two) == [1, 2, 3, 4, 5]
    assert not part.chain_middles and not part.other_degree_two
    assert part.path_forest.n == 7
    assert part.path_forest.edge_count == 6


def test_tree_partition_star():
    for ell in (1, 2, 3):
        part = tree_partition(star_graph(3), ell)
        assert sorted(part.leaves) == [1, 2, 3]
        assert sorted(part.branch_vertices) == [0]
        assert part.path_forest.n == 3
        assert part.path_forest.edge_count == 0
        assert beta(part.path_forest, ell).value == beta(star_graph(3), ell).value == 3


def test_tree_partition_spider():
    # center 0 with three legs 0-1-2, 0-3-4, 0-5-6
    spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    part = tree_partition(spider, 2)
    assert sorted(part.branch_vertices) == [0]
    assert sorted(part.leaves) == [2, 4, 6]
    # leg middles sit next to the branch vertex, so they are not deep
    assert not part.deep_degree_two
    assert sorted(part.other_degree_two) == [1, 3, 5]
    assert beta(part.path_forest, 2).value == beta(spider, 2).value == 3


def test_tree_partition_preserves_beta_on_known_tree():
    t = build_graph(9, [(0, 5), (0, 7), (1, 2), (1, 4), (1, 5), (2, 6),
                        (2, 8), (3, 8)])
    expected = {1: 5, 2: 4, 3: 4}
    for ell, value in expected.items():
        part = tree_partition(t, ell)
        assert beta(t, ell).value == value
        assert beta(part.path_forest, ell).value == value


def test_tree_partition_invariants():
    rng = random.Random(135)
    for _ in range(80):
        t = random_tree(rng, rng.randint(2, 14))
        ell = rng.randint(1, 3)
        part = tree_partition(t, ell)
        classes = (part.leaves, part.branch_vertices, part.deep_degree_two,
                   part.chain_middles, part.other_degree_two)
        union = set()
        total = 0
        for cls in classes:
            union |= cls
            total += len(cls)
        assert union == set(range(t.n))
        assert total == t.n
        kept = part.leaves | part.deep_degree_two | part.chain_middles
        assert part.forest_vertices == tuple(sorted(kept))
        forest = part.path_forest
        assert forest.n == len(kept)
        # a disjoint union of paths: degrees at most 2 and no cycles
        assert all(forest.degree(v) <= 2 for v in range(forest.n))
        comps = len(set(map(frozenset, _component_sets(forest))))
        assert forest.edge_count == forest.n - comps


def _component_sets(g):
    from planar_turan.graph import connected_components
    return connected_components(g)


def _distances(t, source):
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for w in t.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _deep_and_middles_by_definition(t, ell):
    """deep: degree 2 and BFS distance >= ell to every branch vertex (or
    none exists); middles: for each chain between branch vertices a < b
    of length in [ell + 1, 2*ell - 1], its internal vertex at index
    length // 2 - 1 counted from a."""
    branch = [v for v in range(t.n) if t.degree(v) >= 3]
    dist = {c: _distances(t, c) for c in branch}
    deep = {v for v in range(t.n) if t.degree(v) == 2
            and all(dist[c][v] >= ell for c in branch)}
    middles = set()
    for a, b in combinations(branch, 2):
        length = dist[a][b]
        inner = sorted((v for v in range(t.n) if v not in (a, b)
                        and dist[a][v] + dist[b][v] == length), key=dist[a].get)
        if (ell + 1 <= length <= 2 * ell - 1
                and all(t.degree(v) == 2 for v in inner)):
            middles.add(inner[length // 2 - 1])
    return deep, middles


def test_tree_partition_matches_its_definitions():
    trees = [t for n in range(1, 10)
             for t in enumerate_constrained(
                 n, ForbiddenFamily.of_lengths(*range(3, n + 1)),
                 require_connected=True, budget=SearchBudget(max_vertices=9))]
    assert len(trees) == 95
    rng = random.Random(1818)
    trees += [random_tree(rng, rng.randint(1, 24)) for _ in range(200)]
    for t in trees:
        for ell in range(1, 6):
            part = tree_partition(t, ell)
            deep, middles = _deep_and_middles_by_definition(t, ell)
            assert (part.deep_degree_two, part.chain_middles) == (deep, middles)


def test_tree_partition_validation():
    with pytest.raises(ValueError):
        tree_partition(cycle_graph(4), 1)
    with pytest.raises(ValueError):
        tree_partition(path_with_edges(3), 0)


@pytest.mark.parametrize("g,expect", [
    (empty_graph(3), 0),
    (path_with_edges(5), 1),
    (star_graph(6), 1),
    (cycle_graph(7), 2),
    (complete_graph(4), 3),
    (complete_bipartite(2, 3), 2),
    (complete_graph(5), 4),
])
def test_degeneracy(g, expect):
    assert degeneracy(g) == expect


def test_degeneracy_of_planar_graphs_is_at_most_five():
    rng = random.Random(579)
    from planar_turan.planarity import is_planar
    seen = 0
    while seen < 40:
        n = rng.randint(4, 9)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.5])
        if not is_planar(g).is_planar:
            continue
        seen += 1
        assert degeneracy(g) <= 5


@pytest.mark.parametrize("g,expect", [
    (cycle_graph(5), 4),
    (complete_graph(4), 6),
    (star_graph(3), 4),
    (path_with_edges(3), 3),
    (empty_graph(4), None),
    (empty_graph(0), None),
])
def test_min_edge_degree_sum(g, expect):
    assert min_edge_degree_sum(g) == expect
