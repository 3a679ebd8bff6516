"""Canonical labeling checked against permutation brute force.

The brute oracle tries every vertex permutation, so cross-checks stay
at 6 vertices or fewer; the fast path is additionally exercised on
larger random graphs through relabel invariance.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from planar_turan.bruteforce import are_isomorphic_brute, automorphism_count_brute
from planar_turan.canonical import (
    _equitable,
    automorphism_count,
    canonical_form,
    canonical_search,
    orbits_of,
    root_partition,
)
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
from planar_turan.graph6 import from_graph6, to_graph6
from planar_turan.search import enumerate_constrained

FORM_CORPUS = Path(__file__).parent / "data" / "canonical_forms.json"


def _all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs))
                              if mask >> i & 1])


def _random_graph(rng, n, p):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


def test_eleven_classes_on_four_vertices():
    forms = {}
    for g in _all_labeled_graphs(4):
        forms.setdefault(canonical_form(g), 0)
        forms[canonical_form(g)] += 1
    assert len(forms) == 11
    assert sum(forms.values()) == 64


def test_relabel_invariance():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(1, 8)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_isomorphism_agrees_with_brute():
    rng = random.Random(99)
    agree_true = agree_false = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.8))
        h = _random_graph(rng, n, rng.uniform(0.2, 0.8))
        want = are_isomorphic_brute(g, h)
        assert (canonical_form(g) == canonical_form(h)) == want
        if want:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 0 and agree_false > 0


def test_different_order_never_isomorphic():
    assert canonical_form(empty_graph(3)) != canonical_form(empty_graph(4))


def test_automorphism_counts_exhaustive_small():
    for n in range(1, 5):
        for g in _all_labeled_graphs(n):
            assert automorphism_count(g) == automorphism_count_brute(g)


def test_automorphism_counts_random():
    rng = random.Random(555)
    for _ in range(60):
        n = rng.randint(5, 6)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.8))
        assert automorphism_count(g) == automorphism_count_brute(g)


@pytest.mark.parametrize("g,count", [
    (cycle_graph(5), 10),
    (cycle_graph(6), 12),
    (complete_graph(4), 24),
    (path_with_edges(3), 2),
    (star_graph(3), 6),
    (complete_bipartite(3, 3), 72),
    (empty_graph(4), 24),
    (empty_graph(0), 1),
])
def test_automorphism_counts_named(g, count):
    assert automorphism_count(g) == count


def test_canonical_labeling_realizes_form():
    rng = random.Random(808)
    for _ in range(80):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        form = canonical_form(g)
        _, pos, _ = canonical_search(g)
        assert sorted(pos) == list(range(n))
        assert g.relabel(pos) == form.as_graph()
        # applying a canonical form to its own graph is a fixed point
        assert canonical_form(form.as_graph()) == form


def test_forms_order_deterministically():
    forms = sorted(canonical_form(g) for g in _all_labeled_graphs(3))
    again = sorted(canonical_form(g) for g in reversed(list(_all_labeled_graphs(3))))
    assert forms == again


def test_vertex_cap():
    with pytest.raises(ValueError):
        canonical_form(empty_graph(65))


def _group_order(g, generators):
    """Order of the permutation group the generators span, by closure,
    after checking that each generator is an automorphism of g."""
    assert all(g.relabel(p) == g for p in generators)
    identity = tuple(range(g.n))
    seen = {identity}
    todo = [identity]
    while todo:
        p = todo.pop()
        for q in generators:
            r = tuple(q[x] for x in p)
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return len(seen)


def test_search_generators_span_the_automorphism_group():
    # search relies on this for both orbit pruning and its parent test.
    # automorphism_count is read off the same generators, so the oracle
    # is the brute-force count of each enumerated class.  The pinned
    # relabellings do not depend on the enumeration, which itself runs
    # on canonical_search; each is checked against its class's count.
    classes = [g for n in range(1, 8)
               for g in enumerate_constrained(n, require_planar=False)]
    assert len(classes) == 1252
    brute = {}
    for g in classes:
        form = canonical_form(g)
        _, _, generators = canonical_search(g)
        brute[form] = automorphism_count_brute(g)
        order = _group_order(g, generators)
        assert order == automorphism_count(g) == brute[form], form
    relabelled = [from_graph6(row[0]) for row in
                  json.loads(FORM_CORPUS.read_text())[:1252]]
    for h in relabelled:
        form = canonical_form(h)
        _, _, generators = canonical_search(h)
        order = _group_order(h, generators)
        assert order == automorphism_count(h) == brute[form], to_graph6(h)


def _petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _cube():
    return build_graph(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3)
                           if v < v ^ 1 << b])


NAMED_HOSTS = {
    "Petersen": (_petersen, 120),
    "Q3": (_cube, 48),
    "4K2": (lambda: disjoint_union([complete_graph(2)] * 4), 384),
    "K4,4": (lambda: complete_bipartite(4, 4), 1152),
    "K2,6": (lambda: complete_bipartite(2, 6), 1440),
    "C9": (lambda: cycle_graph(9), 18),
    "empty8": (lambda: empty_graph(8), 40320),
    "K8": (lambda: complete_graph(8), 40320),
}


@pytest.mark.parametrize("name", sorted(NAMED_HOSTS))
def test_search_generators_of_named_hosts(name):
    build, order = NAMED_HOSTS[name]
    g = build()
    perm = list(range(g.n))
    random.Random(len(name)).shuffle(perm)
    for h in (g, g.relabel(perm)):
        _, _, generators = canonical_search(h)
        assert _group_order(h, generators) == order
        assert automorphism_count(h) == order


def test_canonical_forms_match_pinned_corpus():
    """Each row holds a relabelling (graph6, random.Random(8101) shuffles
    in class order) of one class: all 1 252 classes with n <= 7, then
    the 351 planar C4-free classes on 8 vertices.  Beside it are the
    canonical graph6 and the position map canonical_search gave when the
    corpus was written.  Any change to cell order or to which leaf wins
    fails here instead of silently changing search witnesses."""
    corpus = json.loads(FORM_CORPUS.read_text())
    assert len(corpus) == 1252 + 351
    for text, canon, pos in corpus:
        g = from_graph6(text)
        form = canonical_form(g)
        _, got, _ = canonical_search(g)
        assert (to_graph6(form.as_graph()), list(got)) == (canon, pos), text


def test_last_canonical_position_has_maximum_degree():
    # search prunes attachment masks by this before building a child
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        _, pos, _ = canonical_search(g)
        assert g.degree(pos.index(n - 1)) == max(g.degree(v) for v in range(n))


def _orbit_masks(size, perms):
    """The orbit of each point of range(size), as a vertex mask."""
    return [orbits_of(1 << v, perms) for v in range(size)]


def test_orbits_of_closes_each_orbit():
    # (0 1 2)(3 4) and the identity on 5
    assert _orbit_masks(6, [(1, 2, 0, 4, 3, 5)]) == [7, 7, 7, 24, 24, 32]
    assert _orbit_masks(4, []) == [1, 2, 4, 8]
    assert _orbit_masks(4, [(0, 1, 3, 2), (1, 0, 2, 3), (0, 2, 1, 3)]) == [15] * 4
    # a mask of several points closes to the union of their orbits
    assert orbits_of(0b1001, [(1, 2, 0, 4, 3, 5)]) == 0b11111
    assert orbits_of(0, [(1, 0)]) == 0


def test_descend_prunes_only_with_automorphisms_fixing_its_prefix():
    # a node skips a child only by automorphisms that fix its
    # individualized vertices; one that moves them maps the node onto
    # another node and proves nothing about its children.  Pruning with
    # every known automorphism goes wrong first above 8 vertices: on
    # some labelings of this 4-regular graph on 9 vertices it counts 16
    # automorphisms, not 32
    g = from_graph6("Ht`JqWt")
    assert g.n == 9 and {g.degree(v) for v in range(9)} == {4}
    assert automorphism_count_brute(g) == 32
    rng = random.Random(2029)
    forms = set()
    for _ in range(12):
        order = list(range(9))
        rng.shuffle(order)
        h = build_graph(9, [(order[u], order[v]) for u, v in g.edges])
        assert automorphism_count(h) == 32, to_graph6(h)
        forms.add(canonical_form(h))
    assert len(forms) == 1


def _textbook_equitable(bits, cells):
    """Reference refinement: each round splits every cell by its vertices'
    counts against every cell of the partition, pieces in increasing
    order of those count tuples, until no cell splits."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new = []
        for cell in cells:
            groups = {}
            for v in cell:
                key = tuple((bits[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            new.extend(tuple(groups[key]) for key in sorted(groups))
        if len(new) == len(cells):
            return cells
        cells = new


def _members(cells):
    """Mask cells as the tuples of their vertices, in increasing order."""
    return [tuple(v for v in range(cell.bit_length()) if cell >> v & 1)
            for cell in cells]


def test_refinement_matches_the_textbook_refinement():
    # from the unit partition, and from each node one individualization
    # below the root, as canonical_search descends
    individualized = 0
    for n in range(1, 8):
        for g in enumerate_constrained(n, require_planar=False):
            root = root_partition(g.bits)
            assert _members(root) == _textbook_equitable(g.bits, [tuple(range(n))])
            for i, cell in enumerate(_members(root)):
                if len(cell) == 1:
                    continue
                for v in cell:
                    cells = (root[:i] + [1 << v, root[i] ^ 1 << v]
                             + root[i + 1:])
                    assert (_members(_equitable(g.bits, cells, [1 << v]))
                            == _textbook_equitable(g.bits, _members(cells))), (g.edges, v)
                    individualized += 1
    assert individualized == 4779  # vertices in non-singleton root cells


def test_root_partition_cells_are_disjoint_masks_covering_every_vertex():
    assert root_partition(()) == []
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 12)
        cells = root_partition(_random_graph(rng, n, rng.uniform(0.1, 0.9)).bits)
        union = 0
        for cell in cells:
            assert cell and not cell & union
            union |= cell
        assert union == (1 << n) - 1
