"""Acceptance sweep: the ten headline guarantees of the package.

Each criterion is one test, so `pytest -v` shows exactly one pass/fail
line per criterion.  Every test delegates to the corresponding named
verification claim, then re-asserts the frozen values and the runtime
cap here so a regression in either the math or the performance budget
fails loudly.

  1. pentagon maximum among planar C4-free hosts: exhaustive values for
     n = 4..8 plus the exact n-4 construction count on a (t, s) grid
  2. beta closed forms for paths and cycles, k <= 15, ell <= 4
  3. the tree partition's path forest preserves beta (500 random trees)
  4. copy counting agrees with the automorphism identity and a
     subset-permutation brute force (1000 random pairs)
  5. log-log growth slopes of all construction families within +-0.15
     of the predicted polynomial degrees
  6. every construction instance in the matrix certifies planarity,
     family-freeness, and its declared count
  7. planarity verdicts match the subdivision-search oracle on all
     1252 isomorphism classes with at most 7 vertices
  8. degeneracy <= 5 for enumerated planar graphs (n <= 7) and minimum
     edge degree sum <= 7 for planar C4-free hosts with min degree >= 2
     (n <= 8)
  9. short-path multiplicities in the parallel-path family do not grow
     with n (identical maxima at n and 4n)
 10. exhaustive planar maxima of the C3, C4 and C5 counts equal the
     published closed forms 3n-8, (n^2+3n-22)/2 (n = 6, 7) and
     2n^2-10n+12 (n = 8)
"""

from planar_turan.search import SearchBudget
from planar_turan.verify import CERTIFICATION_MATRIX, run_claim

GROWTH_SLOPE_TOLERANCE = 0.15


def _check(criterion, claim_id, budget=None, max_seconds=None):
    report = run_claim(claim_id, budget)
    verdict = "PASS" if report.status == "pass" else report.status.upper()
    print(f"CRITERION {criterion}: {verdict} "
          f"({claim_id}, {report.runtime:.1f}s, {len(report.details)} checks)")
    failures = [d for d in report.details if not d["ok"]]
    assert all(d["runtime_s"] >= 0 for d in report.details)
    assert report.status == "pass", f"criterion {criterion} failed: {failures[:5]}"
    if max_seconds is not None:
        assert report.runtime <= max_seconds, (
            f"criterion {criterion} took {report.runtime:.1f}s, "
            f"cap is {max_seconds}s")
    return report


def test_criterion_1_pentagon_extremal_values():
    report = _check(1, "c5-c4free-exact",
                    budget=SearchBudget(max_vertices=8), max_seconds=300)
    exhaustive = {int(d["instance"].split("=")[1]): d["got"]
                  for d in report.details if d["instance"].startswith("exhaustive")}
    assert exhaustive == {4: 0, 5: 1, 6: 1, 7: 3, 8: 4}
    grid = [d for d in report.details if d["instance"].startswith("pentagon")]
    assert len(grid) == 121  # all t, s <= 10
    assert all(d["ok"] for d in grid)


def test_criterion_1_opt_in_n9_row():
    report = _check(1, "c5-c4free-exact",
                    budget=SearchBudget(max_vertices=9, parallel_width=2),
                    max_seconds=300)
    row = next(d for d in report.details if d["instance"] == "exhaustive n=9")
    assert (row["got"], row["explored"]) == (5, 1229)


def test_criterion_2_beta_closed_forms():
    report = _check(2, "beta-closed-forms", max_seconds=60)
    assert len(report.details) == 4 * (15 + 13)


def test_criterion_3_tree_partition_preserves_beta():
    report = _check(3, "tree-partition-forest", max_seconds=120)
    assert report.details[-1]["got"] == "0 mismatches"


def test_criterion_4_copy_counting_oracles():
    report = _check(4, "copy-count-oracle", max_seconds=120)
    assert report.details[-1]["got"] == "0 mismatches"


def test_criterion_5_growth_exponents():
    report = _check(5, "growth-exponents", max_seconds=300)
    assert len(report.details) == 11
    for d in report.details:
        assert f"+/- {GROWTH_SLOPE_TOLERANCE}" in d["expected"]


def test_criterion_6_certification_matrix():
    report = _check(6, "certification-matrix", max_seconds=600)
    assert len(report.details) == len(CERTIFICATION_MATRIX)


def test_criterion_7_planarity_against_subdivision_oracle():
    report = _check(7, "planarity-oracle", max_seconds=120)
    by_n = {d["instance"]: d["got"] for d in report.details}
    assert by_n["all classes n=7"] == "1044 classes, 0 mismatches"
    assert len(report.details) == 7


def test_criterion_8_degeneracy_and_edge_degree_sum():
    report = _check(8, "degenerate-structure", max_seconds=600)
    degen, edge_sum = report.details
    assert degen["got"] <= 5
    assert edge_sum["got"] <= 7


def test_criterion_9_bounded_path_multiplicities():
    report = _check(9, "bounded-paths-probe", max_seconds=60)
    assert len(report.details) == 5
    for d in report.details:
        lo, hi = d["got"]
        assert lo == hi


def test_criterion_10_planar_cycle_maxima():
    report = _check(10, "planar-cycle-maxima",
                    budget=SearchBudget(max_vertices=8, parallel_width=2),
                    max_seconds=300)
    got = {d["instance"].split(" (")[0]: d["got"] for d in report.details}
    assert got == {"C3 n=6": 10, "C3 n=7": 13, "C4 n=6": 16, "C4 n=7": 24,
                   "C5 n=8": 60}
