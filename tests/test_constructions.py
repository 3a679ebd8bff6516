"""Certified construction families.

Every builder re-derives planarity, family-freeness, and (below the
recount cap) its own count before returning, so most tests only pin the
frozen numbers and the failure modes.
"""

import json
from math import comb
from pathlib import Path

import pytest

from planar_turan.constructions import (
    CONSTRUCTION_FAMILIES,
    COUNT_CERT_CAP,
    Certification,
    CertificationError,
    ConstructionError,
    ConstructionSpec,
    _certify,
    blowup_independent_set,
    build_construction,
    ck_c4free_parallel,
    conjecture_family,
    cycle_blowup,
    even_tree_parallel_paths,
    pentagon_extremal,
    tree_beta_blowup,
)
from planar_turan.cycles import EMPTY_FAMILY, ForbiddenFamily, is_family_free
from planar_turan.graph import (
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_with_edges,
    star_graph,
)
from planar_turan.graph6 import from_graph6, to_graph6
from planar_turan.planarity import is_planar
from planar_turan.search import enumerate_constrained
from planar_turan.verify import CERTIFICATION_MATRIX

CONSTRUCTION_CORPUS = Path(__file__).parent / "data" / "constructions.json"


def test_blowup_independent_set():
    out = blowup_independent_set(cycle_graph(4), [1, 3], 3)
    assert out == complete_bipartite(2, 6).relabel([0, 2, 1, 3, 4, 5, 6, 7])
    assert out.n == 8
    assert out.edge_count == 12
    identity = blowup_independent_set(cycle_graph(5), [1, 3], 1)
    assert identity == cycle_graph(5)


def test_blowup_validation():
    with pytest.raises(ValueError):
        blowup_independent_set(cycle_graph(4), [0, 1], 2)
    with pytest.raises(ValueError):
        blowup_independent_set(cycle_graph(4), [0], 0)
    with pytest.raises(ValueError):
        blowup_independent_set(cycle_graph(4), [7], 2)


def test_pentagon_extremal_counts():
    out = pentagon_extremal(2, 3)
    cert = out.certification
    assert out.graph.n == 17
    assert cert.declared_count == 13 == out.graph.n - 4
    assert cert.computed_count == 13
    assert cert.count_is_exact
    assert cert.planar and cert.family_free
    assert cert.family_lengths == (4,)
    base = pentagon_extremal(0, 0)
    assert base.graph.n == 5
    assert base.certification.declared_count == 1
    assert {"x1", "x2", "x3", "x4", "x5"} <= set(out.label_table)


def test_pentagon_grid_is_always_n_minus_4():
    for t in range(5):
        for s in range(5):
            out = pentagon_extremal(t, s)
            assert out.certification.computed_count == out.graph.n - 4


@pytest.mark.parametrize("k,n,graph_n,declared", [
    (4, 20, 20, 153),
    (6, 24, 24, 343),
    (5, 20, 17, 49),
    (3, 9, 7, 5),
])
def test_cycle_blowup_counts(k, n, graph_n, declared):
    out = cycle_blowup(k, n)
    cert = out.certification
    assert out.graph.n == graph_n <= n
    assert cert.declared_count == declared
    assert cert.computed_count == declared
    assert cert.count_is_exact
    assert cert.planar


def test_cycle_blowup_validation():
    with pytest.raises(ConstructionError):
        cycle_blowup(2, 10)
    with pytest.raises(ConstructionError):
        cycle_blowup(6, 5)


@pytest.mark.parametrize("k,n,declared", [
    (6, 14, 15),
    (5, 23, 10),
    (8, 32, 25),
])
def test_ck_c4free_counts(k, n, declared):
    out = ck_c4free_parallel(k, n)
    cert = out.certification
    assert cert.declared_count == declared
    assert cert.computed_count == declared
    assert cert.count_is_exact
    assert cert.family_lengths == (4,)
    assert is_family_free(out.graph, ForbiddenFamily.of_lengths(4))


def test_ck_c4free_validation():
    with pytest.raises(ConstructionError):
        ck_c4free_parallel(4, 20)
    with pytest.raises(ConstructionError):
        ck_c4free_parallel(6, 5)


def test_tree_beta_blowup_lower_bound():
    out = tree_beta_blowup(path_with_edges(2), 24)
    cert = out.certification
    assert cert.declared_count == 36
    assert cert.computed_count == 66
    assert not cert.count_is_exact
    assert cert.computed_count >= cert.declared_count
    big = tree_beta_blowup(star_graph(3), 32)
    assert big.certification.declared_count == 125
    assert big.certification.computed_count == 455


def test_tree_beta_blowup_validation():
    with pytest.raises(ConstructionError):
        tree_beta_blowup(cycle_graph(4), 20)
    with pytest.raises(ConstructionError):
        tree_beta_blowup(path_with_edges(2), 3)


def test_even_tree_parallel_paths():
    out = even_tree_parallel_paths(path_with_edges(4), 2, 30)
    cert = out.certification
    assert cert.family_lengths == (4,)
    assert cert.declared_count == 81
    assert cert.computed_count == 297
    assert not cert.count_is_exact
    deep = even_tree_parallel_paths(path_with_edges(6), 3, 31)
    assert deep.certification.family_lengths == (4, 6)
    assert deep.certification.planar and deep.certification.family_free


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_even_tree_parallel_star_recount_matches_degree_oracle(ell):
    # K1,7 with every leaf tripled: the recount must end, and a star's
    # copies are the 7-subsets of one vertex's neighbourhood
    star = from_graph6("G???F{")
    assert star.degree_sequence() == (1,) * 7 + (7,)
    out = even_tree_parallel_paths(star, ell, 24)
    host = out.graph
    assert out.certification.computed_count == sum(
        comb(host.degree(v), 7) for v in range(host.n)) == comb(21, 7)


def test_even_tree_validation():
    with pytest.raises(ConstructionError):
        even_tree_parallel_paths(cycle_graph(4), 2, 40)
    with pytest.raises(ConstructionError):
        even_tree_parallel_paths(path_with_edges(4), 0, 40)


def test_conjecture_family():
    out = conjecture_family(9, 2, 32)
    cert = out.certification
    assert cert.declared_count == 64
    assert cert.computed_count == 64
    loose = conjecture_family(6, 2, 20)
    assert loose.certification.declared_count == 16
    assert loose.certification.computed_count == 28
    assert loose.certification.computed_count >= loose.certification.declared_count


def test_conjecture_family_validation():
    with pytest.raises(ConstructionError):
        conjecture_family(3, 3, 40)
    with pytest.raises(ConstructionError):
        conjecture_family(8, 2, 6)


def test_certification_rejects_false_declarations():
    with pytest.raises(CertificationError, match="declared=5, computed=4"):
        # K4 has 4 triangles
        _certify(complete_graph(4), {}, EMPTY_FAMILY, cycle_graph(3), "C3",
                 5, True, 80)
    with pytest.raises(CertificationError, match="planar=False"):
        # planarity is checked unconditionally: K5's 10 triangles are right
        _certify(complete_graph(5), {}, EMPTY_FAMILY, cycle_graph(3), "C3",
                 10, True, 80)
    with pytest.raises(CertificationError, match="declared=3, computed=4"):
        # an exact count is refused above the recount as well as below it
        _certify(complete_graph(4), {}, EMPTY_FAMILY, cycle_graph(3), "C3",
                 3, True, 80)
    with pytest.raises(CertificationError, match="declared=5, computed=4"):
        # a lower bound is still refused when the recount falls below it
        _certify(complete_graph(4), {}, EMPTY_FAMILY, cycle_graph(3), "C3",
                 5, False, 80)
    with pytest.raises(CertificationError, match="family_free=False"):
        _certify(cycle_graph(4), {}, ForbiddenFamily.of_lengths(4),
                 cycle_graph(4), "C4", 1, True, 80)


def test_certification_refuses_a_graph_over_its_vertex_budget():
    with pytest.raises(ConstructionError,
                       match="^5 vertices exceed the vertex budget 4$"):
        _certify(cycle_graph(5), {}, EMPTY_FAMILY, cycle_graph(5), "C5",
                 1, True, 80, 4)
    out = _certify(cycle_graph(5), {}, EMPTY_FAMILY, cycle_graph(5), "C5",
                   1, True, 80, 5)
    assert out.certification.computed_count == 1


@pytest.mark.parametrize("family, params, n", [
    inst for inst in CERTIFICATION_MATRIX if inst[2] is not None])
def test_families_sized_by_n_stay_within_their_budget(family, params, n):
    for budget in range(n, n + 10):
        out = build_construction(ConstructionSpec(family, params), n=budget,
                                 count_cap=0)
        assert out.graph.n <= budget


def test_count_cap_skips_recount():
    out = cycle_blowup(4, 20, count_cap=0)
    cert = out.certification
    assert cert.computed_count is None
    assert cert.declared_count == 153
    # the cap is inclusive: a graph of count_cap vertices is recounted
    n = out.graph.n
    assert cycle_blowup(4, 20, count_cap=n).certification.computed_count == 153
    assert cycle_blowup(4, 20, count_cap=n - 1).certification.computed_count is None


def test_build_construction_dispatch():
    for family, params, n in (
            ("pentagon_extremal", {"t": 1, "s": 1}, None),
            ("cycle_blowup", {"k": 4}, 16),
            ("tree_beta_blowup", {"tree": path_with_edges(1)}, 12),
            ("even_tree_parallel_paths", {"tree": path_with_edges(4), "ell": 2}, 26),
            ("ck_c4free_parallel", {"k": 5}, 23),
            ("conjecture_family", {"k": 6, "ell": 2}, 26)):
        assert family in CONSTRUCTION_FAMILIES
        out = build_construction(ConstructionSpec(family, params), n=n)
        cert = out.certification
        assert isinstance(cert, Certification)
        assert cert.planar and cert.family_free


def test_build_construction_errors():
    with pytest.raises(ConstructionError):
        build_construction(ConstructionSpec("no_such_family", {}))
    with pytest.raises(ConstructionError):
        build_construction(ConstructionSpec("cycle_blowup", {}), n=16)
    # a parameter the family does not read is refused, not ignored
    for family, params, n, unread in (
            ("pentagon_extremal", {"t": 1, "s": 1, "foo": 3}, None, "'foo'"),
            ("pentagon_extremal", {"t": 1, "s": 1}, 99, "'n'"),
            ("cycle_blowup", {"k": 6, "ell": 9}, 24, "'ell'"),
            ("tree_beta_blowup", {"tree": path_with_edges(2), "k": 3}, 24, "'k'")):
        names = ", ".join(CONSTRUCTION_FAMILIES[family][1])
        with pytest.raises(ConstructionError) as info:
            build_construction(ConstructionSpec(family, params), n=n)
        assert names in str(info.value) and unread in str(info.value)


def test_constructions_match_pinned_corpus():
    # graph6, labels and certification of the certification matrix, of
    # the pentagon (t, s) grid 0..10, and of the parallel paths of the 23
    # trees on 8 vertices at ell = 1..3, n = 24, are pinned exactly; the
    # tree rows skip the recount (cap 0) because their pinned rows hold no
    # computed count, though it is cheap now (the star K_{1,7} recounts
    # its C(21, 7) copies in under a millisecond)
    rows = json.loads(CONSTRUCTION_CORPUS.read_text())
    trees = sorted(to_graph6(t) for t in enumerate_constrained(
        8, ForbiddenFamily.of_lengths(*range(3, 9)), require_connected=True))
    instances = ([(*inst, COUNT_CERT_CAP) for inst in CERTIFICATION_MATRIX]
                 + [("pentagon_extremal", {"t": t, "s": s}, None, COUNT_CERT_CAP)
                    for t in range(11) for s in range(11)]
                 + [("even_tree_parallel_paths",
                     {"tree": from_graph6(tree), "ell": ell}, 24, 0)
                    for tree in trees for ell in (1, 2, 3)])
    assert len(trees) == 23
    assert len(rows) == len(instances) == 260
    for row, (family, params, n, cap) in zip(rows, instances):
        assert (row["family"], row["n"]) == (family, n)
        assert {key: from_graph6(v) if key == "tree" else v
                for key, v in row["params"].items()} == params
        out = build_construction(ConstructionSpec(family, params), n=n,
                                 count_cap=cap)
        cert = out.certification
        assert to_graph6(out.graph) == row["graph6"], (family, params, n)
        assert out.label_table == row["labels"], (family, params, n)
        assert {"planar": cert.planar, "family": list(cert.family_lengths),
                "family_free": cert.family_free, "pattern": cert.pattern_name,
                "declared_count": cert.declared_count,
                "computed_count": cert.computed_count,
                "count_is_exact": cert.count_is_exact} == row["certification"]


def test_constructions_are_planar_and_family_free():
    out = ck_c4free_parallel(7, 27)
    assert is_planar(out.graph).is_planar
    assert is_family_free(out.graph, ForbiddenFamily.of_lengths(4))
