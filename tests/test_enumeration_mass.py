"""Labelled mass of every enumeration, against independent counts.

If `enumerate_constrained` yields each isomorphism class exactly once,
the sum of n!/|Aut G| over the yielded classes is the number of labelled
graphs on n vertices with the same constraints.  Class counts alone miss
a dropped class that a duplicate offsets; the mass misses it only when
the two classes have the same automorphism group order.  The expected
masses come from closed forms, OEIS A066537, the exponential formula for
connected graphs, and a labelled brute force that uses only the
`bruteforce` oracles.
"""

from functools import cache
from itertools import combinations
from math import comb, factorial

import pytest

from planar_turan.bruteforce import count_cycles_brute, is_planar_by_subdivision
from planar_turan.canonical import automorphism_count
from planar_turan.cycles import ForbiddenFamily
from planar_turan.graph import build_graph
from planar_turan.search import enumerate_constrained

# OEIS A066537: labelled planar graphs on n = 1..8 vertices
LABELLED_PLANAR = (1, 2, 8, 64, 1023, 32071, 1823707, 163947848)


@cache
def _mass(n: int, lengths: tuple[int, ...] = (), require_planar: bool = True,
          require_connected: bool = False) -> int:
    family = ForbiddenFamily.of_lengths(*lengths)
    return sum(factorial(n) // automorphism_count(g)
               for g in enumerate_constrained(
                   n, family, require_planar,
                   require_connected=require_connected))


@cache
def _labelled_graphs(n: int) -> tuple:
    """(planar, {k: number of k-cycles for k = 3..n}) for each of the
    2^C(n,2) labelled graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    rows = []
    for bits in range(1 << len(pairs)):
        g = build_graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
        rows.append((is_planar_by_subdivision(g),
                     {k: count_cycles_brute(g, k) for k in range(3, n + 1)}))
    return tuple(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_mass_of_all_graphs_is_two_to_the_pairs(n):
    assert _mass(n, require_planar=False) == 2 ** comb(n, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_mass_of_planar_graphs_is_a066537(n):
    assert _mass(n) == LABELLED_PLANAR[n - 1]


@pytest.mark.parametrize("require_planar, top", [(True, 8), (False, 7)])
def test_connected_masses_satisfy_the_exponential_formula(require_planar, top):
    # a_n = sum_k C(n - 1, k - 1) c_k a_{n-k}: split off the component of
    # vertex 0, which has k vertices; a_0 = 1
    a = [1] + [_mass(n, (), require_planar) for n in range(1, top + 1)]
    c = [0] + [_mass(n, (), require_planar, True) for n in range(1, top + 1)]
    for n in range(1, top + 1):
        assert a[n] == sum(comb(n - 1, k - 1) * c[k] * a[n - k]
                           for k in range(1, n + 1)), n
    if require_planar:
        assert c[8] == 149248656


@pytest.mark.parametrize("lengths, at_five", [((4,), 548), ((3,), 388),
                                              ((3, 5), 376)])
@pytest.mark.parametrize("n", range(1, 6))
def test_planar_family_masses_match_labelled_brute_force(lengths, at_five, n):
    expected = sum(planar and not any(counts.get(k) for k in lengths)
                   for planar, counts in _labelled_graphs(n))
    assert _mass(n, lengths) == expected
    if n == 5:
        assert expected == at_five
