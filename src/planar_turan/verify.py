"""Named verification sweeps behind the `verify` CLI command.

Each claim id maps to a fixed battery of checks over the library
operations.  A claim passes only if every instance in its sweep passed;
budget exhaustion is reported as "incomplete", never as a silent pass.
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
from .params import beta, degeneracy, min_edge_degree_sum, tree_partition
from .planarity import is_planar
from .search import (SearchBudget, SearchIncomplete, _deadline, _left,
                     enumerate_constrained, extremal_number)

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
    if n == 2:
        return build_graph(2, [(0, 1)])
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


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < p]
    return build_graph(n, edges)


class _Rows(list):
    """A claim's detail rows.  Appending a row stamps it with `runtime_s`,
    the seconds spent since the previous row (or since the list was
    made), so a report names its slow checks."""

    def __init__(self):
        super().__init__()
        self._mark = time.monotonic()

    def append(self, row: dict) -> None:
        now = time.monotonic()
        row["runtime_s"] = round(now - self._mark, 4)
        self._mark = now
        super().append(row)


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _status(details, incomplete: bool = False) -> str:
    if incomplete:
        return "incomplete"
    return "pass" if all(d["ok"] for d in details) else "fail"


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
# Claims
# ======================================================================

def _claim_c5_c4free_exact(budget: SearchBudget) -> tuple[str, list[dict]]:
    """Exhaustive small-n values of the pentagon maximum among planar
    C4-free graphs, plus exact construction counts on a (t, s) grid.
    The n = 9 row runs only when the budget allows 9 vertices; its value
    is the n - 4 count of the certified constructions.  The searches
    share the claim's time limit, and the grid checks it between rows."""
    details = _Rows()
    deadline = _deadline(budget)
    incomplete = False
    expected = {4: 0, 5: 1, 6: 1, 7: 3, 8: 4, 9: 5}
    pat = Pattern.from_graph(cycle_graph(5), "C5")
    fam = ForbiddenFamily(frozenset({4}))
    for n in range(4, min(budget.max_vertices, 9) + 1):
        own = _left(budget, deadline)
        if own is None:
            return _status(details, True), details
        rec = extremal_number(n, pat, fam, own)
        if rec.status != "complete":
            incomplete = True
        details.append({
            "instance": f"exhaustive n={n}", "expected": expected[n],
            "got": rec.max_count, "explored": rec.graphs_explored,
            "ok": rec.status == "complete" and rec.max_count == expected[n]})
    for t in range(11):
        for s in range(11):
            if _past(deadline):
                return _status(details, True), details
            try:
                out = pentagon_extremal(t, s)
                n = out.graph.n
                got = out.certification.computed_count
                ok = got == n - 4
            except (ConstructionError, CertificationError) as exc:
                n, got, ok = None, str(exc), False
            details.append({"instance": f"pentagon t={t} s={s}",
                            "expected": "n-4", "got": got, "ok": ok})
    return _status(details, incomplete), details


def _claim_planar_cycle_maxima(budget: SearchBudget) -> tuple[str, list[dict]]:
    """Exhaustive planar maxima of the C3, C4 and C5 counts, with no
    forbidden family, against published closed forms; sizes above the
    budget's vertex cap are skipped.  The number of classes scanned must
    equal the number of planar graphs on n vertices.  The searches share
    the claim's time limit."""
    details = _Rows()
    deadline = _deadline(budget)
    incomplete = False
    for k, formula, closed, sizes in PLANAR_CYCLE_MAXIMA:
        pat = Pattern.from_graph(cycle_graph(k), f"C{k}")
        for n in sizes:
            if n > budget.max_vertices:
                continue
            own = _left(budget, deadline)
            if own is None:
                return _status(details, True), details
            rec = extremal_number(n, pat, EMPTY_FAMILY, own)
            if rec.status != "complete":
                incomplete = True
            want = closed(n)
            details.append({
                "instance": f"C{k} n={n} ({formula})", "expected": want,
                "got": rec.max_count, "explored": rec.graphs_explored,
                "ok": (rec.status == "complete" and rec.max_count == want
                       and rec.graphs_explored == PLANAR_CLASS_COUNTS[n])})
    return _status(details, incomplete), details


def _claim_beta_closed_forms(budget: SearchBudget) -> tuple[str, list[dict]]:
    """beta of paths (k edges) and cycles against their closed forms."""
    details = _Rows()
    for ell in range(1, 5):
        for k in range(1, 16):
            want = 1 + (k + ell - 1) // (ell + 1)
            got = beta(path_with_edges(k), ell).value
            details.append({"instance": f"path k={k} ell={ell}",
                            "expected": want, "got": got, "ok": got == want})
        for k in range(3, 16):
            want = k // (ell + 1)
            got = beta(cycle_graph(k), ell).value
            details.append({"instance": f"cycle k={k} ell={ell}",
                            "expected": want, "got": got, "ok": got == want})
    return _status(details), details


def _claim_tree_partition_forest(budget: SearchBudget) -> tuple[str, list[dict]]:
    """The induced path forest of the degree partition preserves beta."""
    rng = random.Random(TREE_PARTITION_SEED)
    details = _Rows()
    deadline = _deadline(budget)
    failures = 0
    checked = 0
    for i in range(500):
        if _past(deadline):
            break
        checked += 1
        n = rng.randint(2, 16)
        t = random_tree(rng, n)
        for ell in (1, 2, 3):
            part = tree_partition(t, ell)
            lhs = beta(part.path_forest, ell).value
            rhs = beta(t, ell).value
            if lhs != rhs:
                failures += 1
                details.append({"instance": f"tree #{i} n={n} ell={ell}",
                                "expected": rhs, "got": lhs, "ok": False})
    details.append({"instance": f"{checked} random trees x ell in {{1,2,3}}",
                    "expected": "0 mismatches", "got": f"{failures} mismatches",
                    "ok": failures == 0})
    return _status(details, checked < 500), details


def _claim_copy_count_oracle(budget: SearchBudget) -> tuple[str, list[dict]]:
    """count_copies vs the automorphism identity and a subset-permutation
    brute force on random pattern/host pairs."""
    rng = random.Random(COPY_ORACLE_SEED)
    details = _Rows()
    deadline = _deadline(budget)
    failures = 0
    checked = 0
    for i in range(1000):
        if _past(deadline):
            break
        checked += 1
        h = _random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.9))
        g = _random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.7))
        pattern = Pattern.from_graph(h)
        copies = count_copies(pattern, g)
        homs = count_injective_homs(h, g)
        aut = pattern.automorphisms
        brute = count_copies_brute(h, g)
        if copies * aut != homs or copies != brute:
            failures += 1
            details.append({"instance": f"pair #{i}",
                            "expected": f"copies*{aut}=={homs} and =={brute}",
                            "got": copies, "ok": False})
    details.append({"instance": f"{checked} random (h, g) pairs",
                    "expected": "0 mismatches", "got": f"{failures} mismatches",
                    "ok": failures == 0})
    return _status(details, checked < 1000), details


def _claim_growth_exponents(budget: SearchBudget) -> tuple[str, list[dict]]:
    """Log-log slopes of the construction counts against the predicted
    polynomial degrees."""
    details = _Rows()
    deadline = _deadline(budget)
    for family, params, sweep, target in GROWTH_SWEEPS:
        if _past(deadline):
            return _status(details, True), details
        probe = growth_probe(ConstructionSpec(family, params), list(sweep))
        ok = abs(probe.slope - target) <= GROWTH_TOLERANCE
        details.append({
            "instance": _label(family, params, list(sweep)),
            "expected": f"{target} +/- {GROWTH_TOLERANCE}",
            "got": round(probe.slope, 4), "points": list(probe.points),
            "ok": ok})
    return _status(details), details


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


def _claim_certification_matrix(budget: SearchBudget) -> tuple[str, list[dict]]:
    """Every construction instance in the matrix certifies planarity,
    family-freeness, and its declared count."""
    details = _Rows()
    deadline = _deadline(budget)
    for family, params, n in CERTIFICATION_MATRIX:
        if _past(deadline):
            return _status(details, True), details
        name = _label(family, params, n)
        try:
            out = build_construction(ConstructionSpec(family, params), n=n)
            cert = out.certification
            ok = cert.planar and cert.family_free
            got = {"planar": cert.planar, "family_free": cert.family_free,
                   "declared": cert.declared_count,
                   "computed": cert.computed_count}
        except (ConstructionError, CertificationError) as exc:
            ok, got = False, str(exc)
        details.append({"instance": name, "expected": "certified",
                        "got": got, "ok": ok})
    return _status(details), details


def _classes(n: int, family: ForbiddenFamily, require_planar: bool,
             max_vertices: int, deadline: float | None):
    """`enumerate_constrained` with only the time left before `deadline`;
    raises SearchIncomplete once it passes, also between yielded classes."""
    own = _left(SearchBudget(max_vertices=max_vertices), deadline)
    if own is None:
        raise SearchIncomplete("the claim's time limit passed")
    for g in enumerate_constrained(n, family, require_planar=require_planar,
                                   budget=own):
        if _past(deadline):
            raise SearchIncomplete("the claim's time limit passed")
        yield g


def _claim_planarity_oracle(budget: SearchBudget) -> tuple[str, list[dict]]:
    """Planarity verdicts against the subdivision-search oracle over every
    isomorphism class on at most 7 vertices.  The enumerations share the
    claim's time limit."""
    details = _Rows()
    deadline = _deadline(budget)
    try:
        for n in range(1, 8):
            total = 0
            mismatches = 0
            for g in _classes(n, EMPTY_FAMILY, False, 7, deadline):
                total += 1
                if is_planar(g).is_planar != is_planar_by_subdivision(g):
                    mismatches += 1
            details.append({
                "instance": f"all classes n={n}",
                "expected": f"{GRAPH_CLASS_COUNTS[n]} classes, 0 mismatches",
                "got": f"{total} classes, {mismatches} mismatches",
                "ok": total == GRAPH_CLASS_COUNTS[n] and mismatches == 0})
    except SearchIncomplete:
        return _status(details, True), details
    return _status(details), details


def _claim_degenerate_structure(budget: SearchBudget) -> tuple[str, list[dict]]:
    """Degeneracy of enumerated planar graphs, and the minimum edge degree
    sum of planar C4-free graphs with minimum degree >= 2.  The
    enumerations share the claim's time limit."""
    details = _Rows()
    worst_degen = 0
    planar_total = 0
    fam = ForbiddenFamily(frozenset({4}))
    checked = 0
    worst_sum = None
    deadline = _deadline(budget)
    try:
        for n in range(1, 8):
            for g in _classes(n, EMPTY_FAMILY, True, 8, deadline):
                planar_total += 1
                worst_degen = max(worst_degen, degeneracy(g))
        details.append({
            "instance": f"degeneracy over {planar_total} planar classes n<=7",
            "expected": "<= 5", "got": worst_degen, "ok": worst_degen <= 5})
        for n in range(3, 9):
            for g in _classes(n, fam, True, 8, deadline):
                if g.edge_count == 0 or min(g.degree_sequence()) < 2:
                    continue
                checked += 1
                s = min_edge_degree_sum(g)
                if worst_sum is None or s > worst_sum:
                    worst_sum = s
    except SearchIncomplete:
        return _status(details, True), details
    details.append({"instance": f"min edge degree sum over {checked} planar "
                                f"C4-free classes with min degree >= 2, n<=8",
                    "expected": "<= 7", "got": worst_sum,
                    "ok": worst_sum is not None and worst_sum <= 7})
    return _status(details), details


def _claim_bounded_paths_probe(budget: SearchBudget) -> tuple[str, list[dict]]:
    """Short-path multiplicities between vertex pairs of the parallel-path
    construction do not grow with n: the observed maximum is identical at
    n and 4n for every path length up to ell."""
    details = _Rows()
    cases = ((path_with_edges(4), 2, 40), (path_with_edges(6), 3, 49))
    for tree, ell, n in cases:
        spec = ConstructionSpec("even_tree_parallel_paths",
                                {"tree": tree, "ell": ell})
        small = build_construction(spec, n=n, count_cap=0).graph
        large = build_construction(spec, n=4 * n, count_cap=0).graph
        for k in range(1, ell + 1):
            lo = probe_bounded_paths([small], ell, k).observed_max
            hi = probe_bounded_paths([large], ell, k).observed_max
            details.append({
                "instance": f"tree v={tree.n} ell={ell} k={k} n={n} vs {4 * n}",
                "expected": "equal maxima", "got": (lo, hi), "ok": lo == hi})
    return _status(details), details


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
    budget = budget or SearchBudget(max_vertices=7)
    start = time.monotonic()
    status, details = CLAIMS[claim_id](budget)
    return VerificationReport(claim_id, status, tuple(details),
                              time.monotonic() - start)
