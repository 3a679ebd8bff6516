"""Benchmark workloads: inputs made from a seed, one operation, its gate.

Every workload is an exact computation, so each answer is checked in
full against a published count, a closed form or a value the paper
pins.  The seed changes the inputs (the pattern's vertex labels, the
order of the verify parts) but never the answer.

`planar_turan` is imported inside the functions so that the time to
import it is measured as set-up by the process that runs an operation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class SearchSpec:
    n: int
    forbid: tuple[int, ...]
    width: int
    classes: int
    max_count: int
    witnesses: frozenset[str]


# Why each workload exists, and which layer it isolates (BENCHMARK.json
# registers the last two; see README.md for why):
# - search-c4free-n8: the headline search; the C4 family check rejects
#   most children before planarity runs.
# - search-planar-n7: planarity-bound; the empty family takes the
#   family check's no-op path, so a family-check change predicts no
#   change here.  822 is the number of planar graphs on 7 vertices
#   (OEIS A005470).
# - verify-constructions: certified hosts up to 483 vertices and no
#   augmentation search, the bypass workload for search and canonical
#   changes.
# - search-c4free-n8-jobs2: the only workload through the process pool.
SEARCHES = {
    "search-c4free-n8": SearchSpec(8, (4,), 1, 351, 4, frozenset({"G?LTMO"})),
    "search-planar-n7": SearchSpec(7, (), 1, 822, 41, frozenset({"FLr~o"})),
    "search-c4free-n8-jobs2": SearchSpec(8, (4,), 2, 351, 4,
                                         frozenset({"G?LTMO"})),
}

# claim id -> number of detail rows its report must have
VERIFY_CLAIMS = {
    "certification-matrix": 70,
    "beta-closed-forms": 112,
    "copy-count-oracle": 1,
}
# The largest host of the growth-exponents claim, ck_c4free_parallel at
# k = 9, stands in for that whole claim.  The claim spends about 6 s in
# one 8-cycle count on a 384-vertex blow-up, which left two or three
# operations in a 25 s run and a run-to-run spread of 0.24 on a shared
# 2-core machine; this sweep keeps the 483-vertex host and the
# cycle-count kernel at about a quarter of the cost.  Its exact counts
# have a closed form: three bundles of m = (n - 3) // 6 paths, and each
# 9-cycle takes one path from every bundle.
GROWTH_PART = "growth-probe-c9"
GROWTH_K = 9
GROWTH_SIZES = (123, 243, 483)
GROWTH_SLOPE = 3
VERIFY_PARTS = (*VERIFY_CLAIMS, GROWTH_PART)
# per-part wall time as reported by a traced run
PART_METRICS = {**{c: f"verify.claim.{c}.wall_s" for c in VERIFY_CLAIMS},
                GROWTH_PART: "search.growth_probe.wall_s"}
VERIFY = "verify-constructions"

NAMES = tuple(SEARCHES) + (VERIFY,)


@dataclass(frozen=True)
class Inputs:
    workload: str
    width: int
    pattern: object = None  # planar_turan Graph for search workloads
    family: object = None  # planar_turan ForbiddenFamily
    parts: tuple[str, ...] = ()  # verify parts in run order


def build_inputs(workload: str, seed: int) -> Inputs:
    """The workload's inputs; the same seed gives the same inputs."""
    import planar_turan as pt

    rng = random.Random(seed)
    if workload == VERIFY:
        parts = list(VERIFY_PARTS)
        rng.shuffle(parts)
        return Inputs(workload, 1, parts=tuple(parts))
    spec = SEARCHES[workload]
    perm = list(range(5))
    rng.shuffle(perm)
    return Inputs(workload, spec.width,
                  pattern=pt.cycle_graph(5).relabel(perm),
                  family=pt.ForbiddenFamily.of_lengths(*spec.forbid))


def run(inputs: Inputs, width: int | None = None, part_walls=None):
    """One operation through the public API, with the cache off.

    `width` overrides the workload's parallel width.  The verify
    workload returns {part: result} and stores the wall time of each
    part in `part_walls`.
    """
    import planar_turan as pt

    if inputs.workload == VERIFY:
        results = {}
        for part in inputs.parts:
            start = time.perf_counter()
            if part == GROWTH_PART:
                spec = pt.ConstructionSpec("ck_c4free_parallel", {"k": GROWTH_K})
                results[part] = pt.growth_probe(spec, list(GROWTH_SIZES))
            else:
                results[part] = pt.run_claim(part)
            if part_walls is not None:
                part_walls[part] = time.perf_counter() - start
        return results
    spec = SEARCHES[inputs.workload]
    budget = pt.SearchBudget(parallel_width=width or inputs.width)
    return pt.extremal_number(spec.n, inputs.pattern, inputs.family, budget,
                              use_cache=False)


def check(workload: str, result) -> list[str]:
    """Every way the result differs from the exact answer; empty if right."""
    from planar_turan.graph6 import to_graph6
    from planar_turan.verify import GROWTH_TOLERANCE

    problems = []
    if workload == VERIFY:
        if sorted(result) != sorted(VERIFY_PARTS):
            problems.append("parts run differ from the workload's parts")
        for part, res in result.items():
            if part == GROWTH_PART:
                want = tuple((n, ((n - 3) // 6) ** 3) for n in GROWTH_SIZES)
                if res.points != want:
                    problems.append(f"{part}: points {res.points}, expected {want}")
                if abs(res.slope - GROWTH_SLOPE) > GROWTH_TOLERANCE:
                    problems.append(f"{part}: slope {res.slope}")
                continue
            if res.status != "pass":
                problems.append(f"{part}: status {res.status}")
            if len(res.details) != VERIFY_CLAIMS[part]:
                problems.append(f"{part}: {len(res.details)} detail rows, "
                                f"expected {VERIFY_CLAIMS[part]}")
        return problems
    spec = SEARCHES[workload]
    if result.status != "complete":
        problems.append(f"status {result.status}")
    if result.graphs_explored != spec.classes:
        problems.append(f"{result.graphs_explored} classes, "
                        f"expected {spec.classes}")
    if result.max_count != spec.max_count:
        problems.append(f"max {result.max_count}, expected {spec.max_count}")
    witnesses = {to_graph6(f.as_graph()) for f in result.witnesses}
    if witnesses != spec.witnesses:
        problems.append(f"witnesses {sorted(witnesses)}, "
                        f"expected {sorted(spec.witnesses)}")
    return problems


def exact_counts(workload: str, result) -> dict:
    """Clock-free work counts of one operation."""
    if workload == VERIFY:
        return {part: (res.points if part == GROWTH_PART else len(res.details))
                for part, res in result.items()}
    return {"graphs_explored": result.graphs_explored,
            "max_count": result.max_count}
