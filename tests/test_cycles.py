import random

import pytest

from planar_turan.bruteforce import count_cycles_brute
from planar_turan.cycles import (
    EMPTY_FAMILY,
    ForbiddenFamily,
    closing_partners,
    count_cycles,
    has_cycle,
    is_family_free,
    shortest_even_cycle,
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


def _random_graph(rng, n, p):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


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


def test_shortest_even_cycle():
    assert shortest_even_cycle(cycle_graph(5)) is None
    assert shortest_even_cycle(cycle_graph(6)) == 6
    assert shortest_even_cycle(complete_graph(4)) == 4
    assert shortest_even_cycle(path_with_edges(5)) is None
    # C5 with one chord has a C4 but the odd cycles do not count
    chorded = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert shortest_even_cycle(chorded) == 4


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
