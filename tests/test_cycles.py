import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_turan.bruteforce import count_cycles_brute
from planar_turan.constructions import ck_c4free_parallel, cycle_blowup
from planar_turan.cycles import (
    EMPTY_FAMILY,
    ForbiddenFamily,
    closing_partners,
    count_cycles,
    has_cycle,
    is_family_free,
    path_row,
)
from planar_turan.graph import (
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_with_edges,
    star_graph,
)
from planar_turan.graph6 import from_graph6, to_graph6

# few examples and no example database: tier-1 stays fast and leaves no files
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def _random_graph(rng, n, p):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, kept in zip(pairs, keep) if kept])


@st.composite
def cycles_with_pendant_trees(draw):
    """C_k with trees hung on it: exactly one cycle, of length k."""
    k = draw(st.integers(3, 8))
    edges = list(cycle_graph(k).edges)
    n = k + draw(st.integers(0, 6))
    for v in range(k, n):
        edges.append((draw(st.integers(0, v - 1)), v))
    perm = draw(st.permutations(range(n)))
    return k, build_graph(n, edges).relabel(perm)


@st.composite
def subdivided_multigraphs(draw, max_n=9):
    """2-5 hubs joined by chains of 1-4 edges (parallel chains between
    one pair of hubs, and loop chains of 3-4 edges back to one hub), with
    pendant vertices, relabelled: the host shapes of the walker's chain
    step, with anchors inside chains and members below the anchor."""
    hubs = draw(st.integers(2, 5))
    n, edges = hubs, []
    for _ in range(draw(st.integers(1, 5))):
        u, v = draw(st.integers(0, hubs - 1)), draw(st.integers(0, hubs - 1))
        length = draw(st.integers(3 if u == v else 1, 4))
        for _ in range(draw(st.integers(1, 3))):  # parallel chains
            if n + length - 1 > max_n:
                break
            path = [u, *range(n, n + length - 1), v]
            edges += zip(path, path[1:])
            n += length - 1
    while n < max_n and draw(st.booleans()):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return build_graph(n, edges).relabel(draw(st.permutations(range(n))))


def _theta(m, length):
    """m internally disjoint paths of `length` edges between 0 and 1."""
    edges, n = [], 2
    for _ in range(m):
        path = [0, *range(n, n + length - 1), 1]
        edges += zip(path, path[1:])
        n += length - 1
    return build_graph(n, edges)


def _wheel(rim):
    hub = rim
    return build_graph(rim + 1, list(cycle_graph(rim).edges)
                       + [(hub, v) for v in range(rim)])


def _book(pages):
    """`pages` triangles sharing the edge 0-1."""
    return build_graph(pages + 2, [(0, 1)] + [(s, p) for p in range(2, pages + 2)
                                              for s in (0, 1)])


@pytest.mark.parametrize("g,expected", [
    (complete_graph(4), {3: 4, 4: 3}),
    (complete_graph(5), {3: 10, 4: 15, 5: 12}),
    (complete_bipartite(2, 4), {3: 0, 4: 6}),
    (complete_bipartite(2, 6), {4: 15}),
    (complete_bipartite(3, 3), {3: 0, 4: 9, 5: 0, 6: 6}),
])
def test_frozen_counts(g, expected):
    for k, want in expected.items():
        assert count_cycles(g, k) == want


def test_cycle_counts_itself_once():
    for k in range(3, 10):
        assert count_cycles(cycle_graph(k), k) == 1
        for other in range(3, 10):
            if other != k:
                assert count_cycles(cycle_graph(k), other) == 0


def test_acyclic_hosts():
    for g in (path_with_edges(6), star_graph(5), empty_graph(4)):
        assert all(count_cycles(g, k) == 0 for k in range(3, 8))


def test_matches_brute_oracle():
    rng = random.Random(90210)
    for _ in range(150):
        n = rng.randint(3, 8)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        for k in range(3, n + 1):
            assert count_cycles(g, k) == count_cycles_brute(g, k)


def test_has_cycle_consistent_with_count():
    rng = random.Random(41)
    for _ in range(80):
        g = _random_graph(rng, rng.randint(3, 8), rng.uniform(0.1, 0.8))
        for k in range(3, g.n + 1):
            assert has_cycle(g, k) == (count_cycles(g, k) > 0)


def test_length_validation():
    with pytest.raises(ValueError):
        count_cycles(complete_graph(4), 2)
    with pytest.raises(ValueError):
        has_cycle(complete_graph(4), 0)


def test_forbidden_family_basics():
    fam = ForbiddenFamily.of_lengths(4, 6)
    assert fam.sorted_lengths == (4, 6)
    assert EMPTY_FAMILY.sorted_lengths == ()
    assert ForbiddenFamily.even_cycles_through(1).sorted_lengths == ()
    assert ForbiddenFamily.even_cycles_through(3).sorted_lengths == (4, 6)
    with pytest.raises(ValueError):
        ForbiddenFamily.of_lengths(2)
    with pytest.raises(ValueError):
        ForbiddenFamily.even_cycles_through(0)


def test_is_family_free():
    c4 = ForbiddenFamily.of_lengths(4)
    assert is_family_free(cycle_graph(5), c4)
    assert not is_family_free(cycle_graph(4), c4)
    assert not is_family_free(complete_graph(4), c4)
    assert is_family_free(complete_graph(4), EMPTY_FAMILY)
    both = ForbiddenFamily.of_lengths(4, 6)
    assert is_family_free(cycle_graph(7), both)
    assert not is_family_free(cycle_graph(6), both)


def test_extra_patterns_in_family():
    claw_free = ForbiddenFamily(frozenset(), extra_patterns=(star_graph(3),))
    assert not is_family_free(star_graph(3), claw_free)
    assert not is_family_free(complete_bipartite(1, 5), claw_free)
    assert is_family_free(cycle_graph(6), claw_free)
    assert is_family_free(path_with_edges(4), claw_free)


def test_extra_patterns_are_compiled_once_out_of_equality():
    claw_free = ForbiddenFamily(frozenset(), extra_patterns=(star_graph(3),))
    again = ForbiddenFamily(frozenset(), extra_patterns=(star_graph(3),))
    assert [p.graph for p in claw_free.compiled] == [star_graph(3)]
    assert claw_free == again and hash(claw_free) == hash(again)
    assert repr(claw_free) == ("ForbiddenFamily(cycle_lengths=frozenset(), "
                               "extra_patterns=(Graph(n=4, m=3),))")
    assert EMPTY_FAMILY.compiled == ()
    # C_k compiles with the closed form |Aut C_k| = 2k, above the 64
    # vertices of canonical's cap too; any other pattern there is refused
    c70_free = ForbiddenFamily(frozenset(), (cycle_graph(70),))
    chord = build_graph(70, [*cycle_graph(70).edges, (0, 35)])
    for g in [cycle_graph(k) for k in range(68, 73)] + [chord, path_with_edges(80)]:
        assert is_family_free(g, c70_free) == (not has_cycle(g, 70))
    with pytest.raises(ValueError, match="capped at 64"):
        ForbiddenFamily(frozenset(), (path_with_edges(64),))


def test_closing_partners_match_new_cycles():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.7))
        family = ForbiddenFamily(frozenset(rng.sample(range(3, 9), rng.randint(0, 3))))
        partners = closing_partners(g, family)
        for mask in range(1 << n):
            attach = [v for v in range(n) if mask >> v & 1]
            child = g.with_vertex(attach)
            new_cycle = any(count_cycles(child, k) > count_cycles(g, k)
                            for k in family.cycle_lengths)
            assert any(partners[a] & mask for a in attach) == new_cycle, \
                (g.edges, sorted(family.cycle_lengths), attach)


def _path_ends(g, a):
    """(end, edges) of every simple path from a, by a plain DFS over
    vertex lists."""
    found = []
    stack = [[a]]
    while stack:
        path = stack.pop()
        if len(path) > 1:
            found.append((path[-1], len(path) - 1))
        for w in g.adj[path[-1]]:
            if w not in path:
                stack.append(path + [w])
    return found


def test_closing_partners_and_path_rows_equal_a_plain_path_dfs():
    # closing_partners takes its last step as one mask and path_row
    # counts its last step from one; both against every simple path
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(0, 8)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.8))
        family = ForbiddenFamily(frozenset(rng.sample(range(3, 11), rng.randint(1, 4))))
        ends = [_path_ends(g, a) for a in range(n)]
        want = tuple(sum({1 << b for b, d in ends[a] if d + 2 in family.cycle_lengths})
                     for a in range(n))
        assert closing_partners(g, family) == want, (g.edges, family)
        for length in range(1, 7):
            table = [[0] * n for _ in range(n)]
            for a in range(n):
                for b, d in ends[a]:
                    table[a][b] += d == length
            assert [path_row(g, a, length) for a in range(n)] == table, \
                (g.edges, length)


@PROPERTY
@given(small_graphs())
def test_property_count_matches_brute(g):
    for k in range(3, g.n + 2):
        assert count_cycles(g, k) == count_cycles_brute(g, k)


@PROPERTY
@given(small_graphs())
def test_property_has_cycle_is_positive_count(g):
    for k in range(3, g.n + 2):
        assert has_cycle(g, k) == (count_cycles(g, k) > 0)


@PROPERTY
@given(cycles_with_pendant_trees())
def test_property_single_cycle_found_and_counted_once(case):
    k, g = case
    for length in range(3, g.n + 1):
        assert count_cycles(g, length) == (length == k)
        assert has_cycle(g, length) == (length == k)


@PROPERTY
@given(st.integers(0, 70).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))), max_size=3 * n))))
def test_property_graph6_round_trip(case):
    n, pairs = case
    g = build_graph(n, [(u, v) for u, v in pairs if u != v])
    assert from_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("g", [
    _wheel(7), _wheel(7).relabel([1, 2, 3, 4, 5, 6, 7, 0]),
    complete_bipartite(2, 6), complete_bipartite(6, 2), complete_bipartite(3, 5),
    _book(6), _book(6).relabel([6, 7, 0, 1, 2, 3, 4, 5]),
], ids=["wheel7-hub-last", "wheel7-hub-first", "K2,6", "K6,2", "K3,5",
        "book6", "book6-spine-last"])
def test_hub_heavy_hosts_match_brute(g):
    # hubs recur as the last walked vertex with many free neighbours, so
    # the closing count meets the same hub under many different visited
    # sets
    for k in range(3, g.n + 1):
        want = count_cycles_brute(g, k)
        assert count_cycles(g, k) == want
        assert has_cycle(g, k) == (want > 0)


def test_hub_heavy_hosts_match_closed_forms():
    rim = 14
    wheel = _wheel(rim)
    for k in range(3, rim + 2):
        # k - 1 consecutive rim vertices through the hub, plus the rim itself
        assert count_cycles(wheel, k) == rim + (k == rim)
    for m in (9, 20):
        kb = complete_bipartite(2, m)
        assert count_cycles(kb, 4) == m * (m - 1) // 2
        assert all(count_cycles(kb, k) == 0 for k in (3, 5, 6))
        book = _book(m)
        assert count_cycles(book, 3) == m
        assert count_cycles(book, 4) == m * (m - 1) // 2
        assert all(count_cycles(book, k) == 0 for k in (5, 6))


def test_large_parallel_path_host_matches_closed_form():
    # three bundles of (n - 3) // 6 paths; a 9-cycle takes one path of each
    n = 483
    g = ck_c4free_parallel(9, n, count_cap=0).graph
    assert count_cycles(g, 9) == ((n - 3) // 6) ** 3 == 80 ** 3
    assert has_cycle(g, 9)
    assert not has_cycle(g, 4)


def test_large_cycle_blowup_matches_declared_count():
    # an 8-cycle picks one of the m twins in each of the four blown
    # classes; 384 is the largest size of the growth-exponents sweep
    for n in (96, 384):
        out = cycle_blowup(8, n, count_cap=0)
        m = 2 * n // 8 - 1
        assert count_cycles(out.graph, 8) == out.certification.declared_count == m ** 4


@PROPERTY
@given(subdivided_multigraphs(), st.integers(3, 9))
def test_property_subdivided_multigraphs_match_brute(g, k):
    want = count_cycles_brute(g, k)
    assert count_cycles(g, k) == want
    assert has_cycle(g, k) == (want > 0)


@pytest.mark.parametrize("length", range(2, 7))
def test_theta_graphs_match_closed_form(length):
    # two of the m paths make each cycle, so there are C(m, 2) of them,
    # all of length 2 * length; relabelling puts the anchor inside a path
    # and members of a parallel class below it
    rng = random.Random(length)
    for m in range(2, 6):
        theta = _theta(m, length)
        for g in [theta] + [theta.relabel(rng.sample(range(theta.n), theta.n))
                            for _ in range(4)]:
            for k in range(3, min(g.n, 2 * length + 3) + 1):
                want = m * (m - 1) // 2 if k == 2 * length else 0
                assert count_cycles(g, k) == want
                assert has_cycle(g, k) == (want > 0)
