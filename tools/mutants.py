"""Named mutants of the package, each run against the tests that must
kill it.

    python tools/mutants.py [NAME ...]

Each mutant replaces one snippet of one file, a snippet that must occur
there exactly once, in a temporary copy of `src/` and `tests/`; the
checkout is never edited.  Every test target of the mutant then runs in
that copy as its own `python -m pytest -x` (a target is a file or a
node id).  A mutant is `killed` when every target fails, `survived`
when none does, and `partly` in between.  A mutant recorded `killed`
must be killed; one recorded `equivalent` changes no behaviour, for the
reason given, and must survive.

One JSON line is printed per mutant (all of them, or those NAMEd), and
the exit status is 1 when any outcome differs from its record, or when
a snippet no longer occurs exactly once.  The targets are assumed to
pass on the unmutated tree, as tier-1 checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per target


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    record: str = "killed"  # or "equivalent"
    reason: str = ""  # why an equivalent mutant changes no behaviour


CONSTRUCTIONS = "src/planar_turan/constructions.py"
SEARCH = "src/planar_turan/search.py"
COUNTING = "src/planar_turan/counting.py"
CERTIFY_TEST = "tests/test_constructions.py::test_certification_rejects_false_declarations"
RECERTIFY_TEST = ("tests/test_search.py::"
                  "test_recertify_refuses_a_disconnected_witness_of_a_connected_search")
COUNT_CHILDREN_TEST = "tests/test_search.py::test_count_children_equals_count_copies"

REGISTRY = (
    # the one certification routine and its two callers
    Mutant("certification skips the family check", CONSTRUCTIONS,
           "            is_family_free(graph, family),\n",
           "            True,\n",
           (CERTIFY_TEST, RECERTIFY_TEST)),
    Mutant("certification skips planarity", CONSTRUCTIONS,
           "is_planar(graph).is_planar if planar else None",
           "True if planar else None",
           (CERTIFY_TEST, RECERTIFY_TEST)),
    Mutant("certification recounts one vertex short of the cap", CONSTRUCTIONS,
           "graph.n > count_cap", "graph.n >= count_cap",
           ("tests/test_constructions.py::test_count_cap_skips_recount",)),
    Mutant("an exact count certified as a lower bound", CONSTRUCTIONS,
           "computed == declared if exact else computed >= declared",
           "computed >= declared",
           (CERTIFY_TEST,)),
    Mutant("re-certification ignores connectivity", SEARCH,
           "connected=record.require_connected)", "connected=False)",
           (RECERTIFY_TEST,)),
    Mutant("re-certification takes a count below the max", SEARCH,
           "if count != record.max_count:", "if count > record.max_count:",
           (RECERTIFY_TEST,)),
    Mutant("the oracle claim keys its patterns by vertex count alone",
           "src/planar_turan/verify.py",
           "        if key not in patterns:\n"
           "            patterns[key] = Pattern.from_graph(build_graph(*key))\n"
           "        pattern = patterns[key]\n",
           "        if key[0] not in patterns:\n"
           "            patterns[key[0]] = Pattern.from_graph(build_graph(*key))\n"
           "        pattern = patterns[key[0]]\n",
           ("tests/test_cli.py::"
            "test_copy_count_mismatch_row_replays_with_the_count_command",)),
    # `Pattern` decides how every pattern is counted and tested
    Mutant("the extra-pattern test skipped beside cycle lengths", SEARCH,
           "if family.compiled and any(",
           "if family.compiled and not family.sorted_lengths and any(",
           ("tests/test_search.py::test_cycle_lengths_and_extra_patterns_combine",)),
    Mutant("occurs_in tests the cycle one shorter", COUNTING,
           "return has_cycle(g, self.cycle_length)",
           "return has_cycle(g, self.cycle_length - 1)",
           ("tests/test_counting.py::test_pattern_occurs_in",
            "tests/test_cycles.py::test_extra_patterns_are_compiled_once_out_of_equality")),
    Mutant("count_children starts the pair sum at the mask's own vertex",
           COUNTING,
           "rest = mask  # the vertices", "rest = mask | bit  # the vertices",
           (COUNT_CHILDREN_TEST,), "equivalent",
           "it adds row[a] for the mask's own vertex a, and path_row is zero "
           "at its source, since the walk starts with a visited"),
    Mutant("count_children counts each pair in both orders", COUNTING,
           "rest = mask  # the vertices", "rest = child.bits[-1] & ~bit  # the vertices",
           (COUNT_CHILDREN_TEST,)),
    # the injective-hom oracle and the brute force's labelled copies
    Mutant("the injective-hom oracle reuses host vertices", COUNTING,
           "cand = full & ~used\n        for u in earlier[v]:",
           "cand = full\n        for u in earlier[v]:",
           ("tests/test_counting.py::test_injective_homs_equal_a_plain_permutation_count",)),
    Mutant("the injective-hom oracle counts the last vertex before the AND",
           COUNTING,
           "        for u in earlier[v]:\n"
           "            cand &= bits[images[u]]\n"
           "        if v == last:\n"
           "            return cand.bit_count()\n",
           "        if v == last:\n"
           "            return cand.bit_count()\n"
           "        for u in earlier[v]:\n"
           "            cand &= bits[images[u]]\n",
           ("tests/test_counting.py::test_injective_homs_equal_a_plain_permutation_count",)),
    Mutant("the labelled copies skip the last permutation",
           "src/planar_turan/bruteforce.py",
           "for p in permutations(range(k)):",
           "for p in list(permutations(range(k)))[:-1]:",
           ("tests/test_counting.py::"
            "test_labelled_copies_times_automorphisms_is_all_labellings",)),
    # the augmentation search's filters and seeds
    Mutant("a mask inside a non-planar one is dropped", SEARCH,
           "if any(mask & d == d for d in dead):",
           "if any(mask & d == mask for d in dead):",
           ("tests/test_search.py::"
            "test_a_mask_over_a_non_planar_one_is_dropped_unrefined",)),
    Mutant("a mask that overlaps a non-planar one is dropped", SEARCH,
           "if any(mask & d == d for d in dead):",
           "if any(mask & d for d in dead):",
           ("tests/test_enumeration_mass.py::test_mass_of_planar_graphs_is_a066537",)),
    Mutant("the degree shortcut taken at a tie", SEARCH,
           "if mask.bit_count() <= top + bool(mask & at_top):",
           "if mask.bit_count() < top + bool(mask & at_top):",
           ("tests/test_search.py::"
            "test_a_new_vertex_of_strictly_greatest_degree_is_accepted_unrefined",)),
    Mutant("every parent generator seeds the child's search", SEARCH,
           "if all(mask >> p[v] & 1 for v in range(n)",
           "if True or all(mask >> p[v] & 1 for v in range(n)",
           ("tests/test_search.py::"
            "test_final_level_seeds_are_automorphisms_and_change_no_form",)),
    Mutant("the last level keeps disconnected children", SEARCH,
           "children = [c for c in children if is_connected(c[0])]",
           "children = list(children)",
           ("tests/test_search.py::test_enumeration_connected_filter",)),
    # canonical labelling and path counts
    Mutant("automorphism_count drops the stabilizer filter",
           "src/planar_turan/canonical.py",
           "useful = [p for p in generators if all(p[f] == f for f in path[:k])]",
           "useful = list(generators)",
           ("tests/test_canonical.py",)),
    Mutant("the partition backtrack prunes with every known automorphism",
           "src/planar_turan/canonical.py",
           "if all(p[f] == f for f in fixed):", "if True:",
           ("tests/test_canonical.py::"
            "test_descend_prunes_only_with_automorphisms_fixing_its_prefix",)),
    Mutant("the embedding counter's closing run places one vertex", COUNTING,
           "return perm(cand.bit_count(), run)", "return cand.bit_count()",
           ("tests/test_counting.py::"
            "test_compiled_and_bare_patterns_agree_with_both_oracles",)),
    Mutant("the embedding counter reuses host vertices", COUNTING,
           "cand = full & ~used\n        for p in placed[i]:",
           "cand = full\n        for p in placed[i]:",
           ("tests/test_counting.py::"
            "test_compiled_and_bare_patterns_agree_with_both_oracles",)),
    Mutant("the brute force takes overlapping copies as contained",
           "src/planar_turan/bruteforce.py",
           "if s & induced == s)", "if s & induced)",
           ("tests/test_counting.py::"
            "test_brute_copies_times_automorphisms_is_injective_homs",)),
    Mutant("count_paths_between lets paths through v", COUNTING,
           "row = path_row(g, u, k - 1, 1 << v)", "row = path_row(g, u, k - 1)",
           ("tests/test_counting.py::test_count_paths_between_matches_brute",)),
    Mutant("the path probe keeps the last maximizing pair", COUNTING,
           "if row[b] > best:", "if row[b] >= best:",
           ("tests/test_counting.py::"
            "test_probe_bounded_paths_equals_an_all_pairs_brute_scan",)),
)


def run(mutant: Mutant) -> dict:
    """Apply the mutant in a temporary copy and run each of its targets."""
    source = (ROOT / mutant.file).read_text()
    row = {"mutant": mutant.name, "file": mutant.file, "record": mutant.record}
    if source.count(mutant.snippet) != 1:
        return {**row, "outcome": "stale",
                "error": f"snippet occurs {source.count(mutant.snippet)} times",
                "ok": False}
    start = time.monotonic()
    failed = []
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        Path(tmp, mutant.file).write_text(
            source.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")),
               "PYTHONDONTWRITEBYTECODE": "1"}
        for target in mutant.tests:
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x",
                     "-p", "no:cacheprovider", target],
                    cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = f"timeout after {TIMEOUT_S} s"
            if code not in (0, 1):  # not a pass or a test failure
                return {**row, "outcome": "error", "target": target,
                        "error": f"pytest: {code}", "ok": False}
            if code:
                failed.append(target)
    outcome = ("killed" if len(failed) == len(mutant.tests)
               else "partly" if failed else "survived")
    expected = "killed" if mutant.record == "killed" else "survived"
    return {**row, "outcome": outcome, "failed": failed,
            "seconds": round(time.monotonic() - start, 1),
            "ok": outcome == expected}


def main(names: list[str]) -> int:
    known = {m.name for m in REGISTRY}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    ok = True
    for mutant in REGISTRY:
        if names and mutant.name not in names:
            continue
        row = run(mutant)
        print(json.dumps(row), flush=True)
        ok &= row["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
