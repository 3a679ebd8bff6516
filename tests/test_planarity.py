import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_turan.bruteforce import is_planar_by_subdivision
from planar_turan.constructions import ConstructionSpec, build_construction
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
from planar_turan.graph6 import from_graph6
from planar_turan.planarity import _lr_planar, is_planar
from planar_turan.search import enumerate_constrained
from planar_turan.verify import CERTIFICATION_MATRIX


def _random_graph(rng, n, p):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


def test_small_planar_graphs():
    for g in (cycle_graph(5), complete_graph(4), path_with_edges(6),
              star_graph(5), complete_bipartite(2, 4),
              disjoint_union([complete_graph(4), complete_graph(4)])):
        verdict = is_planar(g)
        assert verdict.is_planar
        assert verdict.witness_kind is None


def test_k5_and_k33_are_not_planar():
    v5 = is_planar(complete_graph(5), want_witness=True)
    assert not v5.is_planar
    assert v5.witness_kind == "K5"
    v33 = is_planar(complete_bipartite(3, 3), want_witness=True)
    assert not v33.is_planar
    assert v33.witness_kind == "K3,3"


def test_k5_minus_edge_is_planar():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges.remove((0, 1))
    assert is_planar(build_graph(5, edges)).is_planar


def test_witness_is_a_nonplanar_subgraph():
    rng = random.Random(2601)
    found = 0
    while found < 10:
        g = _random_graph(rng, rng.randint(6, 9), rng.uniform(0.5, 0.9))
        verdict = is_planar(g, want_witness=True)
        if verdict.is_planar:
            continue
        found += 1
        assert verdict.witness_kind in ("K5", "K3,3")
        for u, v in verdict.witness_edges:
            assert g.has_edge(u, v)
        vertices = sorted({x for e in verdict.witness_edges for x in e})
        witness = build_graph(len(vertices),
                              [(vertices.index(u), vertices.index(v))
                               for u, v in verdict.witness_edges])
        assert not is_planar_by_subdivision(witness)


def test_agreement_with_subdivision_oracle():
    rng = random.Random(113)
    for _ in range(250):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.95))
        assert is_planar(g).is_planar == is_planar_by_subdivision(g)


# ----------------------------------------------------------------------
# The Kuratowski degree pre-check: with fewer than 6 vertices of degree
# >= 3 and fewer than 5 of degree >= 4 there is no K3,3 or K5
# subdivision, so the left-right test returns True at once.
# ----------------------------------------------------------------------

def _subdivide(g, edge):
    u, v = edge
    return build_graph(g.n + 1, [e for e in g.edges if e != edge]
                       + [(u, g.n), (v, g.n)])


def _petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


K5_SUB = _subdivide(complete_graph(5), (0, 1))
K33_SUB = _subdivide(complete_bipartite(3, 3), (0, 3))
K5_MINUS_EDGE = [e for e in complete_graph(5).edges if e != (0, 1)]


def test_lr_test_agrees_with_subdivision_oracle_on_every_small_class():
    for n in range(1, 8):
        for g in enumerate_constrained(n, require_planar=False):
            assert _lr_planar(g.n, g.adj) == is_planar_by_subdivision(g), g.edges


@pytest.mark.parametrize("g, planar", [
    (complete_graph(5), False),
    (complete_bipartite(3, 3), False),
    (K5_SUB, False),       # five vertices of degree 4
    (K33_SUB, False),      # six vertices of degree 3
    # the pre-check's boundary: K5 - e has five vertices of degree >= 3;
    # with a leaf on vertex 0, four of them have degree 4
    (build_graph(5, K5_MINUS_EDGE), True),
    (build_graph(6, K5_MINUS_EDGE + [(0, 5)]), True),
    # K4 with a leaf on each vertex: four of degree 4
    (build_graph(8, list(complete_graph(4).edges)
                 + [(v, v + 4) for v in range(4)]), True),
    # past the pre-check: planar with many branch vertices
    (build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                     if j != i + 3]), True),   # octahedron, six of degree 4
    (_petersen(), False),
])
def test_degree_precheck_boundary(g, planar):
    assert _lr_planar(g.n, g.adj) is planar
    assert is_planar_by_subdivision(g) is planar


@pytest.mark.parametrize("g, kind, edges", [
    (K5_SUB, "K5", ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                    (1, 5), (2, 3), (2, 4), (3, 4))),
    (K33_SUB, "K3,3", ((0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (2, 3),
                       (2, 4), (2, 5), (3, 6))),
    (build_graph(7, list(K5_SUB.edges) + [(6, 0), (6, 5), (6, 2)]), "K3,3",
     ((0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6),
      (5, 6))),
    (build_graph(8, list(K33_SUB.edges) + [(0, 1), (6, 7), (7, 2), (4, 7)]),
     "K3,3", ((0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (2, 7),
              (3, 6), (4, 7), (6, 7))),
    (_petersen(), "K3,3", ((1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8),
                           (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9))),
])
def test_witnesses_of_subdivisions_are_pinned(g, kind, edges):
    # the deletion loop meets many graphs the pre-check settles; the
    # witnesses are those the left-right test alone gave
    verdict = is_planar(g, want_witness=True)
    assert (verdict.is_planar, verdict.witness_kind) == (False, kind)
    assert verdict.witness_edges == edges


# ----------------------------------------------------------------------
# The left-right test against networkx's check_planarity, the reference
# implementation of the same criterion (networkx comes with the test
# extra; the package itself does not import it).
# ----------------------------------------------------------------------

PROPERTY = settings(max_examples=40, deadline=None, database=None)
WITNESS_CORPUS = Path(__file__).parent / "data" / "planarity_witnesses.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _nx_planar(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.check_planarity(h)[0]


def _triangulated_grid(rows, cols):
    """A planar grid with one diagonal per cell: 3n - O(sqrt n) edges."""
    def at(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                edges.append((at(r, c), at(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                edges.append((at(r, c), at(r + 1, c + 1)))
    return rows * cols, edges


def _grid(k):
    return build_graph(k * k, [(r * k + c, r * k + c + 1) for r in range(k)
                               for c in range(k - 1)]
                       + [(r * k + c, (r + 1) * k + c) for r in range(k - 1)
                          for c in range(k)])


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, kept in zip(pairs, keep) if kept])


def test_agreement_with_networkx_on_random_graphs():
    rng = random.Random(4021)
    verdicts = []
    for _ in range(300):
        # a random graph with n <= 40 and up to about 4n edges
        n = rng.randint(0, 40)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n, rng.sample(pairs, min(len(pairs), rng.randint(0, 4 * n))))
        verdicts.append(is_planar(g).is_planar)
        assert verdicts[-1] == _nx_planar(g), g.edges
    for _ in range(300):
        # a thinned planar triangulated grid plus 0-3 random chords,
        # relabelled: both sides of the boundary at m close to 3n
        n, edges = _triangulated_grid(rng.randint(2, 6), rng.randint(2, 6))
        p = rng.choice((1.0, 0.9, 0.7))
        edges = [e for e in edges if rng.random() < p]
        for _ in range(rng.randint(0, 3)):
            edges.append(tuple(rng.sample(range(n), 2)))
        perm = list(range(n))
        rng.shuffle(perm)
        g = build_graph(n, edges).relabel(perm)
        verdicts.append(is_planar(g).is_planar)
        assert verdicts[-1] == _nx_planar(g), g.edges
    assert 100 < verdicts.count(True) < 500


@PROPERTY
@given(small_graphs())
def test_property_agrees_with_networkx(g):
    assert is_planar(g).is_planar == _nx_planar(g)


def test_agreement_with_networkx_on_construction_hosts():
    hosts = [build_construction(ConstructionSpec(family, params), n=n,
                                count_cap=0).graph
             for family, params, n in CERTIFICATION_MATRIX]
    growth = ConstructionSpec("ck_c4free_parallel", {"k": 9})
    hosts += [build_construction(growth, n=n, count_cap=0).graph
              for n in (123, 243, 483)]
    assert len(hosts) == 73
    for g in hosts:
        assert is_planar(g).is_planar == _nx_planar(g) is True


def test_tiny_and_disconnected_graphs():
    for g in (empty_graph(0), empty_graph(1), empty_graph(2),
              path_with_edges(1), empty_graph(9)):
        assert is_planar(g).is_planar
    k5, k33, k4 = complete_graph(5), complete_bipartite(3, 3), complete_graph(4)
    cases = [
        (disjoint_union([k4, cycle_graph(7), empty_graph(3), k4]), True),
        (disjoint_union([k4, k5]), False),
        (disjoint_union([empty_graph(4), k33, path_with_edges(3)]), False),
        (disjoint_union([path_with_edges(2), k4, k5, k33]), False),
    ]
    for g, planar in cases:
        assert is_planar(g).is_planar is planar is _nx_planar(g)
        verdict = is_planar(g, want_witness=True)
        assert verdict.is_planar is planar
        assert (verdict.witness_kind is None) is planar


def test_deep_dfs_needs_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert is_planar(path_with_edges(4999)).is_planar
        grid = _grid(60)
        assert is_planar(grid).is_planar
        # K3,3 subdivided onto the grid: six corner-ish branch vertices,
        # joined a_i - b_j by nine new paths of 25 vertices each
        a = (0, 59, 1830)
        b = (3540, 3599, 1769)
        edges = list(grid.edges)
        n = grid.n
        for u in a:
            for v in b:
                path = [u, *range(n, n + 25), v]
                edges += list(zip(path, path[1:]))
                n += 25
        planted = build_graph(n, edges)
        assert not is_planar(planted).is_planar
    finally:
        sys.setrecursionlimit(limit)
    assert _nx_planar(planted) is False


def _witness_graph(edges):
    vertices = sorted({x for e in edges for x in e})
    return build_graph(len(vertices), [(vertices.index(u), vertices.index(v))
                                       for u, v in edges])


def test_witness_corpus_matches_networkx_deletion_order():
    """Each row of the corpus holds a non-planar graph (graph6, n = 5..14),
    the kind and the edges of the witness networkx's
    check_planarity(counterexample=True) gives for it.  The deletion
    witness must reproduce both, and be edge-minimal."""
    corpus = json.loads(WITNESS_CORPUS.read_text())
    assert len(corpus) == 300
    for text, kind, edges in corpus:
        g = from_graph6(text)
        verdict = is_planar(g, want_witness=True)
        assert not verdict.is_planar
        assert verdict.witness_kind == kind is not None
        assert verdict.witness_edges == tuple(map(tuple, edges))
        witness = _witness_graph(verdict.witness_edges)
        assert not _nx_planar(witness)
        for drop in witness.edges:
            rest = build_graph(witness.n, [e for e in witness.edges if e != drop])
            assert _nx_planar(rest), (text, drop)


def test_witness_equals_networkx_counterexample_live():
    rng = random.Random(77)
    found = 0
    while found < 15:
        n = rng.randint(5, 10)
        g = _random_graph(rng, n, rng.uniform(0.3, 0.6))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        planar, sub = nx.check_planarity(h, counterexample=True)
        if planar:
            continue
        found += 1
        expected = tuple(sorted((u, v) if u < v else (v, u) for u, v in sub.edges()))
        assert is_planar(g, want_witness=True).witness_edges == expected


def _run_python(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_does_not_load_networkx():
    out = _run_python("import sys, planar_turan; "
                      "print('networkx' in sys.modules)")
    assert out.strip() == "False"


def test_witness_without_networkx_installed():
    out = _run_python(
        "import sys; sys.modules['networkx'] = None\n"
        "from planar_turan import complete_graph, is_planar\n"
        "v = is_planar(complete_graph(5), want_witness=True)\n"
        "print(v.is_planar, v.witness_kind, len(v.witness_edges))")
    assert out.split() == ["False", "K5", "10"]
