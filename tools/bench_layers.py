"""Stage-level costs of the search and the verify claims, for one tree.

    python tools/bench_layers.py [--src DIR] [--label NAME] [--sha SHA]
                                 [--out FILE]

Imports `planar_turan` from DIR/src (default: this checkout) and times,
each as the least CPU time of REPEATS repeats in this one process (a
repeat calls a short kernel often enough to take 20 ms):

- `search._accepted_children` per level, over the planar C4-free and the
  planar parents on 1..7 vertices, as the search meets them, with the
  generators it hands down;
- `root_partition`, `canonical_search`, `is_planar` and the C5, K1,3
  and P4 (the path with 4 edges) `count_copies` over the 6 966 planar
  classes on 8 vertices;
- the width-1 searches on 8 vertices: the most C5, planar C4-free,
  planar C4-free with no K1,4 (an extra pattern) and planar with no
  family, and the most K1,3, planar with no family;
- `Pattern.from_graph`, `count_copies`, `count_injective_homs` and
  `count_copies_brute` per call over the 1000 (h, g) pairs of the
  `copy-count-oracle` claim, drawn with its seed and its G(n, p) draw;
- `run_claim` of the three claims in the `verify-constructions`
  benchmark workload.

The brute force keeps each pattern's labelled copies in a cache; it is
emptied before every call of the `count_copies_brute` row and of the
claim rows, so they show what one fresh claim pays.

It also counts, in one untimed run of each search, the calls that the
search makes to the canonical layer and to planarity, the cycle
walker's early-exit tests (`cycles._walk_cycles` with `stop_at_first`)
and the embedding plans compiled (`counting._plan`).  The run is
appended under NAME to `runs` in FILE (default `BENCH_layers.json`
beside this directory), with the git sha, the Python version and the
core count.  Run it once per tree and alternate the trees, e.g. a `git
archive` of the parent commit and this checkout, so that machine drift
shows in the spread of each label's runs; the kernels that neither tree
changed show that drift too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPEATS = 5
# the claims that the `verify-constructions` benchmark workload runs
BENCHMARK_CLAIMS = ("certification-matrix", "beta-closed-forms",
                    "copy-count-oracle")
# the number of (h, g) pairs that `copy-count-oracle` draws
ORACLE_PAIRS = 1000


def _best_of(run) -> float:
    """The least CPU time, in seconds, of one call of run() over
    REPEATS samples, each of enough calls to take 20 ms or more."""
    calls = 1
    while True:
        start = time.process_time()
        for _ in range(calls):
            run()
        spent = time.process_time() - start
        if spent >= 0.02:
            break
        calls *= 2
    best = spent
    for _ in range(REPEATS - 1):
        start = time.process_time()
        for _ in range(calls):
            run()
        best = min(best, time.process_time() - start)
    return best / calls


def _sha(tree: Path) -> str:
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return "unknown"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + ("+uncommitted" if dirty else "")


def measure() -> dict:
    from planar_turan import canonical, counting, cycles, search, verify
    from planar_turan.counting import Pattern, count_copies
    from planar_turan.cycles import EMPTY_FAMILY, ForbiddenFamily
    from planar_turan.graph import (Graph, cycle_graph, empty_graph,
                                    path_with_edges, star_graph)
    from planar_turan.planarity import is_planar

    c4_free = ForbiddenFamily.of_lengths(4)
    c5 = Pattern.from_graph(cycle_graph(5))
    k13 = Pattern.from_graph(star_graph(3))
    p4 = Pattern.from_graph(path_with_edges(4))

    def level(n: int, family) -> list:
        return [(g, generators) for g, generators, _ in search._grow(
            (empty_graph(0), None), n, family, True, False, None, None)]

    def expand(nodes: list, family) -> None:
        for parent, generators in nodes:
            search._accepted_children(parent, generators, family, True)

    children_us = {}
    for name, family in (("c4free", c4_free), ("planar", EMPTY_FAMILY)):
        for n in range(1, 8):
            nodes = level(n, family)
            cpu = _best_of(lambda: expand(nodes, family))
            children_us[f"{name}.n{n}"] = {
                "parents": len(nodes), "us_per_parent": 1e6 * cpu / len(nodes)}

    corpus = list(search.enumerate_constrained(8))
    rows = [g.bits for g in corpus]
    kernels = {
        "root_partition": lambda: [canonical.root_partition(b) for b in rows],
        "canonical_search": lambda: [canonical.canonical_search(g) for g in corpus],
        "is_planar": lambda: [is_planar(g) for g in corpus],
        "count_copies_c5": lambda: [count_copies(c5, g) for g in corpus],
        "count_copies_k1_3": lambda: [count_copies(k13, g) for g in corpus],
        "count_copies_p4": lambda: [count_copies(p4, g) for g in corpus],
    }
    kernel_us = {name: 1e6 * _best_of(run) / len(corpus)
                 for name, run in kernels.items()}

    c4_free_k1_4 = ForbiddenFamily(frozenset({4}), (star_graph(4),))
    searches = {"c5.c4free.n8": (c5, c4_free),
                "c5.c4free_k1_4.n8": (c5, c4_free_k1_4),
                "c5.planar.n8": (c5, EMPTY_FAMILY),
                "k1_3.planar.n8": (k13, EMPTY_FAMILY)}
    search_ms = {}
    for name, (pattern, family) in searches.items():
        record = search.extremal_number(8, pattern, family)
        search_ms[name] = {
            "ms": 1e3 * _best_of(
                lambda: search.extremal_number(8, pattern, family)),
            "max_count": record.max_count,
            "graphs_explored": record.graphs_explored}

    # call counts: wrap what the search module calls, for one more run
    counts: dict[str, int] = {}

    def counted(name, real, key=None):
        def wrapper(*args, **kwargs):
            label = key(args) if key else name
            counts[label] = counts.get(label, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    saved = {name: getattr(search, name) for name in
             ("root_partition", "canonical_search", "is_planar",
              "_accepted_children")}
    with_vertex = Graph.with_vertex
    walk_cycles, plan = cycles._walk_cycles, counting._plan
    calls = {}
    try:
        search.root_partition = counted("root_partitions", saved["root_partition"])
        search.canonical_search = counted(
            "", saved["canonical_search"],
            lambda a: "child_searches" if len(a) > 1 else "parent_searches")
        search.is_planar = counted("is_planar", saved["is_planar"])
        search._accepted_children = counted("parents_expanded",
                                            saved["_accepted_children"])
        Graph.with_vertex = counted("children_built", with_vertex)
        cycles._walk_cycles = counted(
            "", walk_cycles,
            lambda a: "cycle_tests" if a[2] else "cycle_counts")
        counting._plan = counted("plans_compiled", plan)
        for name, (pattern, family) in searches.items():
            counts.clear()
            search.extremal_number(8, pattern, family)
            calls[name] = dict(sorted(counts.items()))
    finally:
        for name, real in saved.items():
            setattr(search, name, real)
        Graph.with_vertex = with_vertex
        cycles._walk_cycles, counting._plan = walk_cycles, plan

    return {"accepted_children": children_us,
            "kernels_us_per_call": {"corpus": f"{len(corpus)} planar classes "
                                              "on 8 vertices", **kernel_us},
            "searches_width1": search_ms, "search_calls": calls,
            "copy_oracle_us_per_call": copy_oracle_kernels(),
            "claims_ms": {claim: 1e3 * _best_of(
                lambda: (_clear_oracle_cache(), verify.run_claim(claim)))
                          for claim in BENCHMARK_CLAIMS}}


def _clear_oracle_cache() -> None:
    """Empty the brute force's per-pattern cache, in a tree that has
    one, so that a timed call pays what one fresh claim pays."""
    from planar_turan import bruteforce
    cache = getattr(bruteforce, "_labelled_copies", None)
    if cache is not None:
        cache.cache_clear()


def _random_graph(rng: random.Random, n: int, p: float):
    """G(n, p), drawing from rng in the order the claim does, so the
    pairs are the claim's in every tree."""
    from planar_turan.graph import build_graph
    return build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                           if rng.random() < p])


def copy_oracle_kernels() -> dict:
    """The counting kernels of the `copy-count-oracle` claim, per call
    over the claim's own pairs."""
    from planar_turan import verify
    from planar_turan.bruteforce import count_copies_brute
    from planar_turan.counting import (Pattern, count_copies,
                                       count_injective_homs)

    rng = random.Random(verify.COPY_ORACLE_SEED)
    pairs = []
    for _ in range(ORACLE_PAIRS):
        h = _random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.9))
        g = _random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.7))
        pairs.append((h, g))
    patterns = [(Pattern.from_graph(h), g) for h, g in pairs]
    kernels = {
        "Pattern.from_graph": lambda: [Pattern.from_graph(h) for h, _ in pairs],
        "count_copies": lambda: [count_copies(p, g) for p, g in patterns],
        "count_injective_homs": lambda: [count_injective_homs(h, g)
                                         for h, g in pairs],
        "count_copies_brute": lambda: (
            _clear_oracle_cache(),
            [count_copies_brute(h, g) for h, g in pairs]),
    }
    return {"corpus": f"{len(pairs)} claim pairs, "
                      f"{len({h for h, _ in pairs})} distinct patterns",
            **{name: 1e6 * _best_of(run) / len(pairs)
               for name, run in kernels.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=HERE,
                        help="source tree holding src/planar_turan")
    parser.add_argument("--label", default="change")
    parser.add_argument("--sha", help="git sha of the tree, when it has no .git")
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_layers.json")
    args = parser.parse_args()
    tree = args.src.resolve()
    sys.path.insert(0, str(tree / "src"))
    run = {"git_sha": args.sha or _sha(tree),
           "python": platform.python_version(),
           "cores": os.cpu_count(),
           "repeats": REPEATS,
           "timer": "CPU time of this process, least of the repeats",
           **measure()}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(run, indent=1))


if __name__ == "__main__":
    main()
