"""Copy counting via two independent routes plus the path helpers."""

import random
from itertools import permutations
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_turan.bruteforce import (_labelled_copies, automorphism_count_brute,
                                     count_copies_brute, count_paths_brute)
from planar_turan.canonical import automorphism_count
from planar_turan.counting import (
    EmpiricalBound,
    Pattern,
    count_copies,
    count_injective_homs,
    count_paths_between,
    probe_bounded_paths,
)
from planar_turan.cycles import ForbiddenFamily, count_cycles, is_family_free
from planar_turan.graph import (
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_with_edges,
    star_graph,
)
from planar_turan.graph6 import to_graph6
from planar_turan.search import enumerate_constrained

# few examples and no example database: tier-1 stays fast and leaves no files
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def _random_graph(rng, n, p):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


@pytest.mark.parametrize("h,g,copies", [
    (star_graph(3), complete_graph(4), 4),
    (path_with_edges(2), cycle_graph(5), 5),
    (path_with_edges(3), complete_graph(4), 12),
    (cycle_graph(3), complete_graph(5), 10),
    (complete_graph(5), complete_graph(6), 6),
    (empty_graph(1), empty_graph(2), 2),
    (cycle_graph(4), cycle_graph(5), 0),
])
def test_frozen_copy_counts(h, g, copies):
    assert count_copies(h, g) == copies
    assert count_copies_brute(h, g) == copies


def test_copies_times_automorphisms_is_injective_homs():
    assert count_injective_homs(path_with_edges(2), cycle_graph(5)) == 10
    rng = random.Random(321)
    for _ in range(150):
        h = _random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.9))
        g = _random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.8))
        copies = count_copies(h, g)
        assert copies * automorphism_count(h) == count_injective_homs(h, g)
        assert copies == count_copies_brute(h, g)


def _spider(legs):
    """A centre 0 with one path of each given length hung on it."""
    edges, n = [], 1
    for length in legs:
        path = [0, *range(n, n + length)]
        edges += zip(path, path[1:])
        n += length
    return build_graph(n, edges)


def _double_star(a, b):
    """The edge 0-1 with a leaves on 0 and b leaves on 1."""
    return build_graph(2 + a + b, [(0, 1)] + [(0, 2 + i) for i in range(a)]
                       + [(1, 2 + a + i) for i in range(b)])


# patterns whose embedding order ends in leaves on one vertex, in leaves
# on two different vertices, in isolated vertices, or in a run of vertices
# that share two or three placed neighbours
LEAFY_PATTERNS = (
    [star_graph(t) for t in range(1, 6)]
    + [_spider(legs)
       for legs in [(1, 1, 2), (2, 2, 1, 1), (1, 1, 1, 2), (2, 1), (3, 1, 1)]]
    + [_double_star(a, b) for a, b in [(0, 2), (1, 1), (2, 2), (3, 1), (1, 3)]]
    + [disjoint_union([h, empty_graph(r)]) for h in
       [empty_graph(1), path_with_edges(1), path_with_edges(2), star_graph(3)]
       for r in (1, 2)]
    + [disjoint_union([path_with_edges(1), star_graph(2)])]
    + [complete_bipartite(2, 3), complete_bipartite(2, 4),
       complete_bipartite(3, 3),
       # K1,1,3: three triangles on the edge 0-1
       build_graph(5, [(0, 1)] + [(i, j) for i in (0, 1) for j in (2, 3, 4)]),
       empty_graph(3),
       disjoint_union([complete_bipartite(2, 3), empty_graph(1)])])


def test_leafy_patterns_copies_times_automorphisms_is_injective_homs():
    rng = random.Random(1729)
    hosts = [star_graph(6), _double_star(3, 4), complete_graph(6), cycle_graph(7)]
    hosts += [_random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.8))
              for _ in range(12)]
    for h in LEAFY_PATTERNS:
        aut = automorphism_count(h)
        for g in hosts:
            homs = count_injective_homs(h, g)
            assert count_copies(h, g) * aut == homs
            assert Pattern.from_graph(h).occurs_in(g) == (homs > 0)


@pytest.mark.parametrize("t", range(3, 7))
def test_k2t_copies_in_k2m_are_subsets_of_the_big_side(t):
    # the two vertices of degree t >= 3 must land on the host's two hubs,
    # so a copy is a t-subset of the m degree-2 vertices
    for m in [*range(t - 1, 13), 40, 60]:
        assert count_copies(complete_bipartite(2, t),
                            complete_bipartite(2, m)) == comb(m, t)


def test_star_copies_are_neighbourhood_subsets():
    rng = random.Random(4242)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 12), rng.uniform(0.2, 0.9))
        for t in range(2, 8):
            assert count_copies(star_graph(t), g) == sum(
                comb(g.degree(v), t) for v in range(g.n))


# Closed forms that neither route computes: they check each oracle
# against something other than the production count.
@pytest.mark.parametrize("n", range(1, 9))
def test_brute_copies_in_complete_graphs_match_closed_forms(n):
    for k in range(3, n + 1):
        # a k-cycle is a k-subset with one of its (k - 1)!/2 cyclic orders
        assert count_copies_brute(cycle_graph(k), complete_graph(n)) == (
            comb(n, k) * factorial(k - 1) // 2)
    # a 2-edge path is a 3-subset with a choice of middle vertex, and a
    # 3-leaf star a 4-subset with a choice of centre
    assert count_copies_brute(path_with_edges(2), complete_graph(n)) == 3 * comb(n, 3)
    assert count_copies_brute(star_graph(3), complete_graph(n)) == 4 * comb(n, 4)


def test_brute_copies_of_an_edgeless_pattern_are_vertex_subsets():
    rng = random.Random(2718)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(0, 8), rng.uniform(0.0, 1.0))
        for k in range(0, 5):
            assert count_copies_brute(empty_graph(k), g) == comb(g.n, k)


def _labelled_graphs(k):
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for code in range(1 << len(pairs)):
        yield build_graph(k, [p for b, p in enumerate(pairs) if code >> b & 1])


@pytest.mark.parametrize("k", range(0, 5))
def test_brute_copies_in_complete_graphs_are_subsets_times_labellings(k):
    # a copy of h in K_n is a k-subset with one of h's k!/|Aut(h)|
    # labelled copies on it; only the oracles are called
    for h in _labelled_graphs(k):
        labellings = factorial(k) // automorphism_count_brute(h)
        for n in range(k, 8):
            assert count_copies_brute(h, complete_graph(n)) == (
                comb(n, k) * labellings)


def test_brute_copies_times_automorphisms_is_injective_homs():
    rng = random.Random(1123)
    patterns = [_random_graph(rng, rng.randint(1, 5), rng.uniform(0.0, 1.0))
                for _ in range(30)]
    hosts = [_random_graph(rng, rng.randint(0, 7), rng.uniform(0.0, 1.0))
             for _ in range(30)]
    for h in patterns:
        aut = automorphism_count_brute(h)
        for g in hosts:
            assert count_copies_brute(h, g) * aut == count_injective_homs(h, g)


def test_injective_homs_into_complete_graphs_are_falling_factorials():
    rng = random.Random(3141)
    for n in range(0, 9):
        for _ in range(6):
            h = _random_graph(rng, rng.randint(0, 6), rng.uniform(0.0, 1.0))
            assert count_injective_homs(h, complete_graph(n)) == perm(n, h.n)


def _homs_by_permutations(h, g):
    """Injective maps V(h) -> V(g) that keep every edge, listed plainly."""
    return sum(1 for img in permutations(range(g.n), h.n)
               if all(g.has_edge(img[u], img[v]) for u, v in h.edges))


def test_injective_homs_equal_a_plain_permutation_count():
    # the oracle of the embedding counter checked by the plainest route,
    # on every labelled pattern with at most 4 vertices
    rng = random.Random(4242)
    hosts = [complete_graph(3), complete_graph(6), empty_graph(6),
             cycle_graph(6)] + [_random_graph(rng, n, 0.5) for n in (5, 6, 6)]
    for k in range(0, 5):
        for h in _labelled_graphs(k):
            assert count_injective_homs(h, h) == automorphism_count_brute(h)
            for g in hosts:
                assert count_injective_homs(h, g) == _homs_by_permutations(h, g)


def test_labelled_copies_times_automorphisms_is_all_labellings():
    # orbit-stabiliser: the k! labellings of h fall into its labelled
    # copies, |Aut(h)| labellings each
    rng = random.Random(5151)
    patterns = [h for k in range(0, 5) for h in _labelled_graphs(k)]
    for c in enumerate_constrained(5, require_planar=False):
        order = list(range(5))
        rng.shuffle(order)
        patterns.append(c.relabel(order))
    for h in patterns:
        copies = _labelled_copies(h)[1]
        assert len(copies) * automorphism_count_brute(h) == factorial(h.n)


@st.composite
def small_hosts(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, kept in zip(pairs, keep) if kept])


@st.composite
def relabelled_cycles(draw):
    k = draw(st.integers(3, 6))
    return k, cycle_graph(k).relabel(draw(st.permutations(range(k))))


@PROPERTY
@given(relabelled_cycles(), small_hosts())
def test_property_cycle_patterns_match_cycle_walker_and_brute(case, g):
    k, h = case
    want = count_cycles(g, k)
    assert count_copies(h, g) == want
    assert count_copies(Pattern.from_graph(h), g) == want
    assert count_copies_brute(h, g) == want


@PROPERTY
@given(st.sampled_from([(3, 3), (3, 4)]), small_hosts())
def test_property_disjoint_cycles_take_the_embedding_route(sizes, g):
    # 2-regular but disconnected: not a cycle, so not count_cycles(g, n)
    h = disjoint_union([cycle_graph(k) for k in sizes])
    assert count_copies(h, g) == count_copies_brute(h, g)
    assert count_copies(Pattern.from_graph(h), g) == count_copies_brute(h, g)


def test_pattern_reuse():
    pat = Pattern.from_graph(cycle_graph(5), "C5")
    assert pat.automorphisms == 10
    assert pat.name == "C5"
    assert count_copies(pat, cycle_graph(5)) == 1


def test_compiled_fields_follow_the_graph():
    c5 = Pattern.from_graph(cycle_graph(5).relabel([2, 4, 1, 0, 3]))
    assert (c5.cycle_length, c5.plan) == (5, None)
    # a cycle takes |Aut C_k| = 2k, the dihedral group, from the closed form
    for k in range(3, 13):
        for c in (cycle_graph(k), cycle_graph(k).relabel(
                random.Random(k).sample(range(k), k))):
            assert (Pattern.from_graph(c).automorphisms
                    == automorphism_count(c) == 2 * k)
    two_triangles = Pattern.from_graph(disjoint_union([cycle_graph(3)] * 2))
    assert two_triangles.cycle_length == 0 and two_triangles.plan is not None
    for h in LEAFY_PATTERNS + [path_with_edges(4), complete_graph(4)]:
        plan = Pattern.from_graph(h).plan
        assert sorted(plan.order) == list(range(h.n))
        for i, v in enumerate(plan.order):
            assert plan.placed[i] == tuple(
                j for j in range(i) if h.has_edge(v, plan.order[j]))
            assert plan.degrees[i] == h.degree(v)
        # the trailing run: every position from tail on, and none before
        # it, has the last position's placed neighbours
        assert all(plan.placed[i] == plan.placed[-1]
                   for i in range(plan.tail, h.n))
        assert plan.tail == 0 or plan.placed[plan.tail - 1] != plan.placed[-1]
    assert Pattern.from_graph(star_graph(4)).plan.tail == 1


def test_compiled_and_bare_patterns_agree_with_both_oracles():
    # every class on 1-5 vertices, compiled once and as a bare graph,
    # against every class on at most 6 vertices; a pattern's labelled
    # copies and contained-copy counts are cached by the brute force, so
    # patterns of one size and edge count must not share them
    hosts = [g for n in range(1, 7)
             for g in enumerate_constrained(n, require_planar=False)]
    for k in range(1, 6):
        for h in enumerate_constrained(k, require_planar=False):
            pattern = Pattern.from_graph(h)
            for g in hosts:
                copies = count_copies(pattern, g)
                assert count_copies(h, g) == copies == count_copies_brute(h, g)
                assert (copies * pattern.automorphisms
                        == count_injective_homs(h, g))


def test_pattern_larger_than_host():
    assert count_copies(complete_graph(5), complete_graph(4)) == 0
    assert count_injective_homs(complete_graph(5), complete_graph(4)) == 0
    assert not Pattern.from_graph(complete_graph(5)).occurs_in(complete_graph(4))


def test_pattern_occurs_in():
    def occurs(h, g):
        return Pattern.from_graph(h).occurs_in(g)

    assert occurs(path_with_edges(3), cycle_graph(6))
    assert occurs(star_graph(3), complete_graph(4))
    assert not occurs(cycle_graph(4), cycle_graph(5))
    assert not occurs(star_graph(3), cycle_graph(8))
    rng = random.Random(654)
    for _ in range(120):
        h = _random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.9))
        g = _random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.8))
        assert occurs(h, g) == (count_copies(h, g) > 0)


def test_count_paths_between_frozen():
    c6 = cycle_graph(6)
    assert count_paths_between(c6, 0, 3, 3) == 2
    assert count_paths_between(c6, 0, 3, 1) == 0
    assert count_paths_between(c6, 0, 1, 1) == 1
    assert count_paths_between(complete_graph(4), 0, 1, 2) == 2
    assert count_paths_between(complete_graph(4), 0, 1, 3) == 2


def test_count_paths_between_matches_brute():
    rng = random.Random(987)
    for _ in range(100):
        n = rng.randint(2, 7)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        u, v = rng.sample(range(n), 2)
        for k in range(1, 7):
            assert count_paths_between(g, u, v, k) == count_paths_brute(g, u, v, k)


def test_count_paths_between_validation():
    with pytest.raises(ValueError):
        count_paths_between(cycle_graph(4), 0, 0, 2)
    with pytest.raises(ValueError):
        count_paths_between(cycle_graph(4), 0, 9, 2)


def test_probe_bounded_paths():
    hosts = [path_with_edges(5), star_graph(4), cycle_graph(5)]
    bound = probe_bounded_paths(hosts, 2, 1)
    assert isinstance(bound, EmpiricalBound)
    assert bound.observed_max == 1
    assert bound.parameters == {"ell": 2, "k": 1, "instances": 3}
    assert bound.witness_pair is not None


def _random_free_host(rng, n, family):
    """A random graph on n vertices free of `family`'s cycles: the pairs
    in random order, each kept with probability 0.7 when it closes no
    forbidden cycle."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    edges = []
    for pair in pairs:
        if rng.random() < 0.7 and is_family_free(build_graph(n, edges + [pair]),
                                                 family):
            edges.append(pair)
    return build_graph(n, edges)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_probe_bounded_paths_equals_an_all_pairs_brute_scan(ell):
    # the probe reads one path row per source; the maximum, and the first
    # graph and pair in (a, b) order that reach it, must be those of a
    # scan of every pair by count_paths_brute
    family = ForbiddenFamily.even_cycles_through(ell)
    rng = random.Random(100 + ell)
    for k in range(1, ell + 1):
        for _ in range(8):
            hosts = [_random_free_host(rng, rng.randint(2, 9), family)
                     for _ in range(3)]
            best, witness = -1, None
            for g in hosts:
                for a in range(g.n):
                    for b in range(a + 1, g.n):
                        c = count_paths_brute(g, a, b, k)
                        if c > best:
                            best, witness = c, (to_graph6(g), (a, b))
            bound = probe_bounded_paths(hosts, ell, k)
            assert bound.observed_max == best
            assert (bound.witness_graph6, bound.witness_pair) == witness, k


def test_probe_bounded_paths_validation():
    with pytest.raises(ValueError):
        probe_bounded_paths([], 2, 1)
    with pytest.raises(ValueError):
        probe_bounded_paths([path_with_edges(3)], 2, 3)
    with pytest.raises(ValueError):
        # hosts must avoid the even cycles the probe is studying
        probe_bounded_paths([cycle_graph(4)], 2, 1)


@pytest.mark.parametrize("hosts", [[empty_graph(1)], [empty_graph(0), empty_graph(1)]],
                         ids=["one-vertex", "no-pair-in-any"])
def test_probe_bounded_paths_refuses_a_stream_with_no_vertex_pair(hosts):
    with pytest.raises(ValueError, match="two vertices"):
        probe_bounded_paths(hosts, 1, 1)
