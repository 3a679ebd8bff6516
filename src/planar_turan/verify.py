"""Named verification sweeps behind the `verify` CLI command.

Each claim id maps to a generator of detail rows, one per check over
the library operations, that stops by raising SearchIncomplete once
the claim's deadline has passed.  `run_claim` alone sets that deadline,
stamps each row with `runtime_s` (seconds since the previous row, so a
report names its slow checks) and judges the claim: "incomplete" if it
was stopped, never a silent pass; else "pass" only if every row passed.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass

from .bruteforce import count_copies_brute, is_planar_by_subdivision
from .constructions import (CertificationError, ConstructionError,
                            ConstructionSpec, build_construction,
                            growth_probe, pentagon_extremal)
from .counting import (Pattern, count_copies, count_injective_homs,
                       probe_bounded_paths)
from .cycles import EMPTY_FAMILY, ForbiddenFamily
from .graph import (Graph, build_graph, cycle_graph, empty_graph,
                    path_with_edges, star_graph)
from .graph6 import to_graph6
from .params import beta, degeneracy, min_edge_degree_sum, tree_partition
from .planarity import is_planar
from .search import (HARD_VERTEX_CAP, SearchBudget, SearchIncomplete, _check,
                     _deadline, _left, enumerate_constrained, extremal_number)

# the n = 8 exhaustive sweeps are opt-in via max_vertices
CLAIM_VERTEX_CAP = 7

GROWTH_TOLERANCE = 0.15
# (family, params, n sweep, expected log-log slope)
GROWTH_SWEEPS: tuple = (
    ("tree_beta_blowup", {"tree": path_with_edges(2)}, (24, 48, 96), 2),
    ("tree_beta_blowup", {"tree": star_graph(3)}, (48, 96, 192), 3),
    ("cycle_blowup", {"k": 4}, (64, 128, 256), 2),
    ("cycle_blowup", {"k": 5}, (40, 80, 160), 2),
    ("cycle_blowup", {"k": 6}, (60, 120, 240), 3),
    ("cycle_blowup", {"k": 8}, (96, 192, 384), 4),
    ("even_tree_parallel_paths", {"tree": path_with_edges(4), "ell": 2},
     (62, 122, 242), 2),
    ("ck_c4free_parallel", {"k": 5}, (43, 83, 163), 1),
    ("ck_c4free_parallel", {"k": 6}, (42, 82, 162), 2),
    ("ck_c4free_parallel", {"k": 7}, (52, 102, 202), 2),
    ("ck_c4free_parallel", {"k": 9}, (123, 243, 483), 3),
)

# classes of all graphs on n vertices, cross-checked against a labeled
# brute force for n <= 6 in the test suite
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# classes of planar graphs on n vertices (OEIS A005470)
PLANAR_CLASS_COUNTS = {6: 142, 7: 822, 8: 6966, 9: 79853}

# Published maxima of the C_k count over planar graphs on n vertices:
# (k, closed form as text, closed form, sizes checked).  C3 and C4 are
# Hakimi and Schmeichel (1979); C5 is Gyori, Paulos, Salia, Tompkins and
# Zamora (arXiv:1909.13532), whose formula holds only for n >= 8 (the
# maximum at n = 7 is 41, one above it).  Sizes above the budget's
# vertex cap are skipped, so the C5 row at n = 9 is opt-in.
PLANAR_CYCLE_MAXIMA: tuple = (
    (3, "3n-8", lambda n: 3 * n - 8, (6, 7)),
    (4, "(n^2+3n-22)/2", lambda n: (n * n + 3 * n - 22) // 2, (6, 7)),
    (5, "2n^2-10n+12", lambda n: 2 * n * n - 10 * n + 12, (8, 9)),
)

TREE_PARTITION_SEED = 0x5E7A
COPY_ORACLE_SEED = 0xC0DE


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    status: str  # "pass" | "fail" | "incomplete"
    details: tuple[dict, ...]
    runtime: float


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labeled tree on n vertices via a Pruefer sequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return empty_graph(1)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def _random_edges(rng: random.Random, n: int, p: float) -> tuple[int, tuple]:
    return n, tuple((a, b) for a in range(n) for b in range(a + 1, n)
                    if rng.random() < p)


def _label(family: str, params: dict, n=None) -> str:
    parts = [family]
    for key in sorted(params):
        value = params[key]
        parts.append(f"{key}_v={value.n}" if isinstance(value, Graph)
                     else f"{key}={value}")
    if n is not None:
        parts.append(f"n={n}")
    return " ".join(parts)


# ======================================================================
# Claims: generators of detail rows, timed and judged by run_claim
# ======================================================================

def _random_sweep(trials: int, deadline: float | None, label: str, trial):
    """Up to `trials` calls of `trial(i)`, each yielding one row per
    mismatch, until `deadline`; then one summary row, yielded also when
    the deadline cut the sweep short, before the claim is stopped."""
    failures = 0
    checked = 0
    for i in range(trials):
        if deadline is not None and time.monotonic() >= deadline:
            break
        checked += 1
        for row in trial(i):
            failures += 1
            yield row
    yield {"instance": f"{checked} {label}", "expected": "0 mismatches",
           "got": f"{failures} mismatches", "ok": failures == 0}
    if checked < trials:
        raise SearchIncomplete("the claim's time limit passed")


def _claim_c5_c4free_exact(budget: SearchBudget, deadline: float | None):
    """Exhaustive small-n values of the pentagon maximum among planar
    C4-free graphs, plus exact construction counts on a (t, s) grid.
    The n = 9 row runs only when the budget allows 9 vertices; its value
    is the n - 4 count of the certified constructions.  The searches
    share the claim's time limit, and the grid checks it between rows."""
    expected = {4: 0, 5: 1, 6: 1, 7: 3, 8: 4, 9: 5}
    pat = Pattern.from_graph(cycle_graph(5), "C5")
    fam = ForbiddenFamily(frozenset({4}))
    for n in range(4, min(budget.max_vertices, HARD_VERTEX_CAP) + 1):
        rec = extremal_number(n, pat, fam, _left(budget, deadline))
        yield {
            "instance": f"exhaustive n={n}", "expected": expected[n],
            "got": rec.max_count, "explored": rec.graphs_explored,
            "ok": rec.status == "complete" and rec.max_count == expected[n]}
        if rec.status != "complete":
            raise SearchIncomplete("a search passed the claim's time limit")
    for t in range(11):
        for s in range(11):
            _check(deadline)
            try:
                out = pentagon_extremal(t, s)
                got = out.certification.computed_count
                ok = got == out.graph.n - 4
            except (ConstructionError, CertificationError) as exc:
                got, ok = str(exc), False
            yield {"instance": f"pentagon t={t} s={s}",
                   "expected": "n-4", "got": got, "ok": ok}


def _claim_planar_cycle_maxima(budget: SearchBudget, deadline: float | None):
    """Exhaustive planar maxima of the C3, C4 and C5 counts, with no
    forbidden family, against published closed forms; sizes above the
    budget's vertex cap are skipped.  The number of classes scanned must
    equal the number of planar graphs on n vertices.  The searches share
    the claim's time limit."""
    for k, formula, closed, sizes in PLANAR_CYCLE_MAXIMA:
        pat = Pattern.from_graph(cycle_graph(k), f"C{k}")
        for n in sizes:
            if n > budget.max_vertices:
                continue
            rec = extremal_number(n, pat, EMPTY_FAMILY, _left(budget, deadline))
            want = closed(n)
            yield {
                "instance": f"C{k} n={n} ({formula})", "expected": want,
                "got": rec.max_count, "explored": rec.graphs_explored,
                "ok": (rec.status == "complete" and rec.max_count == want
                       and rec.graphs_explored == PLANAR_CLASS_COUNTS[n])}
            if rec.status != "complete":
                raise SearchIncomplete("a search passed the claim's time limit")


def _claim_beta_closed_forms(budget: SearchBudget, deadline: float | None):
    """beta of paths (k edges) and cycles against their closed forms."""
    for ell in range(1, 5):
        for k in range(1, 16):
            _check(deadline)
            want = 1 + (k + ell - 1) // (ell + 1)
            got = beta(path_with_edges(k), ell).value
            yield {"instance": f"path k={k} ell={ell}",
                   "expected": want, "got": got, "ok": got == want}
        for k in range(3, 16):
            _check(deadline)
            want = k // (ell + 1)
            got = beta(cycle_graph(k), ell).value
            yield {"instance": f"cycle k={k} ell={ell}",
                   "expected": want, "got": got, "ok": got == want}


def _claim_tree_partition_forest(budget: SearchBudget, deadline: float | None):
    """The induced path forest of the degree partition preserves beta."""
    rng = random.Random(TREE_PARTITION_SEED)

    def trial(i):
        n = rng.randint(2, 16)
        t = random_tree(rng, n)
        for ell in (1, 2, 3):
            lhs = beta(tree_partition(t, ell).path_forest, ell).value
            rhs = beta(t, ell).value
            if lhs != rhs:
                yield {"instance": f"tree #{i} n={n} ell={ell}",
                       "expected": rhs, "got": lhs, "ok": False}

    yield from _random_sweep(500, deadline,
                             "random trees x ell in {1,2,3}", trial)


def _claim_copy_count_oracle(budget: SearchBudget, deadline: float | None):
    """count_copies vs the automorphism identity and a labelled-copies
    brute force on random pattern/host pairs.  A mismatch row names the
    pair in graph6, so `planar-turan count --pattern P --graph G`
    replays it.  Each distinct pattern, keyed by its vertex count and
    edges as drawn, is built and compiled once."""
    rng = random.Random(COPY_ORACLE_SEED)
    patterns: dict[tuple, Pattern] = {}

    def trial(i):
        key = _random_edges(rng, rng.randint(1, 5), rng.uniform(0.2, 0.9))
        g = build_graph(*_random_edges(rng, rng.randint(1, 8),
                                       rng.uniform(0.1, 0.7)))
        if key not in patterns:
            patterns[key] = Pattern.from_graph(build_graph(*key))
        pattern = patterns[key]
        h = pattern.graph
        copies = count_copies(pattern, g)
        homs = count_injective_homs(h, g)
        aut = pattern.automorphisms
        brute = count_copies_brute(h, g)
        if copies * aut != homs or copies != brute:
            yield {"instance": f"pair #{i}", "pattern": to_graph6(h),
                   "graph": to_graph6(g),
                   "expected": f"copies*{aut}=={homs} and =={brute}",
                   "got": copies, "ok": False}

    yield from _random_sweep(1000, deadline, "random (h, g) pairs", trial)


def _claim_growth_exponents(budget: SearchBudget, deadline: float | None):
    """Log-log slopes of the construction counts against the predicted
    polynomial degrees."""
    for family, params, sweep, target in GROWTH_SWEEPS:
        _check(deadline)
        probe = growth_probe(ConstructionSpec(family, params), list(sweep))
        yield {
            "instance": _label(family, params, list(sweep)),
            "expected": f"{target} +/- {GROWTH_TOLERANCE}",
            "got": round(probe.slope, 4), "points": list(probe.points),
            "ok": abs(probe.slope - target) <= GROWTH_TOLERANCE}


CERTIFICATION_MATRIX: tuple = (
    tuple(("pentagon_extremal", {"t": t, "s": s}, None)
          for t in range(6) for s in range(6))
    + (("pentagon_extremal", {"t": 10, "s": 10}, None),)
    + tuple(("cycle_blowup", {"k": k}, n)
            for k in (3, 4, 5, 6, 7, 8) for n in (3 * k, 6 * k))
    + (("tree_beta_blowup", {"tree": path_with_edges(1)}, 12),
       ("tree_beta_blowup", {"tree": path_with_edges(3)}, 16),
       ("tree_beta_blowup", {"tree": path_with_edges(3)}, 32),
       ("tree_beta_blowup", {"tree": star_graph(3)}, 24),
       ("tree_beta_blowup", {"tree": star_graph(4)}, 40),
       ("even_tree_parallel_paths", {"tree": path_with_edges(4), "ell": 2}, 26),
       ("even_tree_parallel_paths", {"tree": path_with_edges(6), "ell": 3}, 31),
       ("even_tree_parallel_paths", {"tree": star_graph(3), "ell": 1}, 16),
       ("even_tree_parallel_paths", {"tree": path_with_edges(5), "ell": 2}, 30),
       ("ck_c4free_parallel", {"k": 5}, 23),
       ("ck_c4free_parallel", {"k": 6}, 26),
       ("ck_c4free_parallel", {"k": 7}, 27),
       ("ck_c4free_parallel", {"k": 8}, 32),
       ("ck_c4free_parallel", {"k": 9}, 33),
       ("ck_c4free_parallel", {"k": 12}, 48),
       ("conjecture_family", {"k": 6, "ell": 2}, 26),
       ("conjecture_family", {"k": 8, "ell": 2}, 32),
       ("conjecture_family", {"k": 8, "ell": 3}, 38),
       ("conjecture_family", {"k": 9, "ell": 2}, 39),
       ("conjecture_family", {"k": 10, "ell": 4}, 42),
       ("conjecture_family", {"k": 12, "ell": 3}, 48)))


def _claim_certification_matrix(budget: SearchBudget, deadline: float | None):
    """Every construction instance in the matrix certifies planarity,
    family-freeness, and its declared count."""
    for family, params, n in CERTIFICATION_MATRIX:
        _check(deadline)
        try:
            out = build_construction(ConstructionSpec(family, params), n=n)
            cert = out.certification
            ok = cert.planar and cert.family_free
            got = {"planar": cert.planar, "family_free": cert.family_free,
                   "declared": cert.declared_count,
                   "computed": cert.computed_count}
        except (ConstructionError, CertificationError) as exc:
            ok, got = False, str(exc)
        yield {"instance": _label(family, params, n), "expected": "certified",
               "got": got, "ok": ok}


def _claim_planarity_oracle(budget: SearchBudget, deadline: float | None):
    """Planarity verdicts against the subdivision-search oracle over every
    isomorphism class on at most 7 vertices.  The enumerations share the
    claim's time limit."""
    cap = SearchBudget(max_vertices=7)
    for n in range(1, 8):
        total = 0
        mismatches = 0
        for g in enumerate_constrained(n, require_planar=False,
                                       budget=_left(cap, deadline)):
            total += 1
            if is_planar(g).is_planar != is_planar_by_subdivision(g):
                mismatches += 1
        yield {
            "instance": f"all classes n={n}",
            "expected": f"{GRAPH_CLASS_COUNTS[n]} classes, 0 mismatches",
            "got": f"{total} classes, {mismatches} mismatches",
            "ok": total == GRAPH_CLASS_COUNTS[n] and mismatches == 0}


def _claim_degenerate_structure(budget: SearchBudget, deadline: float | None):
    """Degeneracy of enumerated planar graphs, and the minimum edge degree
    sum of planar C4-free graphs with minimum degree >= 2.  The
    enumerations share the claim's time limit."""
    cap = SearchBudget(max_vertices=8)
    worst_degen = 0
    planar_total = 0
    for n in range(1, 8):
        for g in enumerate_constrained(n, budget=_left(cap, deadline)):
            planar_total += 1
            worst_degen = max(worst_degen, degeneracy(g))
    yield {"instance": f"degeneracy over {planar_total} planar classes n<=7",
           "expected": "<= 5", "got": worst_degen, "ok": worst_degen <= 5}
    fam = ForbiddenFamily(frozenset({4}))
    checked = 0
    worst_sum = None
    for n in range(3, 9):
        for g in enumerate_constrained(n, fam, budget=_left(cap, deadline)):
            if g.edge_count == 0 or min(g.degree_sequence()) < 2:
                continue
            checked += 1
            s = min_edge_degree_sum(g)
            if worst_sum is None or s > worst_sum:
                worst_sum = s
    yield {"instance": f"min edge degree sum over {checked} planar "
                       f"C4-free classes with min degree >= 2, n<=8",
           "expected": "<= 7", "got": worst_sum,
           "ok": worst_sum is not None and worst_sum <= 7}


def _claim_bounded_paths_probe(budget: SearchBudget, deadline: float | None):
    """Short-path multiplicities between vertex pairs of the parallel-path
    construction do not grow with n: the observed maximum is identical at
    n and 4n for every path length up to ell."""
    cases = ((path_with_edges(4), 2, 40), (path_with_edges(6), 3, 49))
    for tree, ell, n in cases:
        spec = ConstructionSpec("even_tree_parallel_paths",
                                {"tree": tree, "ell": ell})
        small = build_construction(spec, n=n, count_cap=0).graph
        large = build_construction(spec, n=4 * n, count_cap=0).graph
        for k in range(1, ell + 1):
            _check(deadline)
            lo = probe_bounded_paths([small], ell, k).observed_max
            hi = probe_bounded_paths([large], ell, k).observed_max
            yield {
                "instance": f"tree v={tree.n} ell={ell} k={k} n={n} vs {4 * n}",
                "expected": "equal maxima", "got": (lo, hi), "ok": lo == hi}


# the claims that read the budget's vertex cap and parallel width, both
# through extremal_number; the others enumerate with fixed caps or
# search nothing
SEARCH_CLAIMS = ("c5-c4free-exact", "planar-cycle-maxima")

CLAIMS = {
    "c5-c4free-exact": _claim_c5_c4free_exact,
    "beta-closed-forms": _claim_beta_closed_forms,
    "tree-partition-forest": _claim_tree_partition_forest,
    "copy-count-oracle": _claim_copy_count_oracle,
    "growth-exponents": _claim_growth_exponents,
    "certification-matrix": _claim_certification_matrix,
    "planarity-oracle": _claim_planarity_oracle,
    "degenerate-structure": _claim_degenerate_structure,
    "bounded-paths-probe": _claim_bounded_paths_probe,
    "planar-cycle-maxima": _claim_planar_cycle_maxima,
}


def run_claim(claim_id: str, budget: SearchBudget | None = None) -> VerificationReport:
    if claim_id not in CLAIMS:
        known = ", ".join(sorted(CLAIMS))
        raise ValueError(f"unknown claim {claim_id!r}; known claims: {known}")
    budget = budget or SearchBudget(max_vertices=CLAIM_VERTEX_CAP)
    start = mark = time.monotonic()
    details = []
    try:
        for row in CLAIMS[claim_id](budget, _deadline(budget)):
            now = time.monotonic()
            row["runtime_s"] = round(now - mark, 4)
            mark = now
            details.append(row)
    except SearchIncomplete:
        status = "incomplete"
    else:
        status = "pass" if all(d["ok"] for d in details) else "fail"
    return VerificationReport(claim_id, status, tuple(details),
                              time.monotonic() - start)
