"""Isomorph-free enumeration and the exhaustive extremal search.

Completeness is checked against the only oracle that needs no trust:
every labeled graph on n vertices, deduplicated by canonical form.
That oracle is quadratic in 2^C(n,2), so it stops at n = 5; the known
class counts carry the check to n = 6 and 7.
"""

import dataclasses
import json
import os
import signal
import threading
import time
from functools import partial
from itertools import combinations

import pytest

from planar_turan import canonical, search
from planar_turan.bruteforce import (count_copies_brute, count_cycles_brute,
                                     is_planar_by_subdivision)
from planar_turan.canonical import (automorphism_count, canonical_form,
                                    canonical_search, orbits_of,
                                    root_partition)
from planar_turan.counting import Pattern, count_copies
from planar_turan.cycles import (EMPTY_FAMILY, ForbiddenFamily,
                                 closing_partners, is_family_free)
from planar_turan.graph import (build_graph, cycle_graph, empty_graph,
                                is_connected, path_with_edges, star_graph)
from planar_turan.graph6 import from_graph6, to_graph6
from planar_turan.planarity import is_planar
from planar_turan.search import (
    SearchBudget,
    SearchIncomplete,
    enumerate_constrained,
    extremal_number,
    record_to_json,
)
from planar_turan.constructions import (ConstructionError, ConstructionSpec,
                                        growth_probe)

C4_FREE = ForbiddenFamily.of_lengths(4)
CLAW_FREE = ForbiddenFamily(frozenset(), (star_graph(3),))

# classes of simple graphs on n vertices, all / planar-only (OEIS A000088
# and A005470)
ALL_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
PLANAR_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 33, 6: 142, 7: 822}


def _labeled_class_count(n, keep):
    pairs = list(combinations(range(n), 2))
    forms = set()
    for mask in range(1 << len(pairs)):
        g = build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if keep(g):
            forms.add(canonical_form(g))
    return len(forms)


def test_enumeration_complete_against_labeled_brute():
    for n in range(1, 6):
        stream = list(enumerate_constrained(n, require_planar=False))
        assert len(stream) == _labeled_class_count(n, lambda g: True)
        forms = {canonical_form(g) for g in stream}
        assert len(forms) == len(stream)


def test_enumeration_matches_known_class_counts():
    for n, want in ALL_CLASSES.items():
        got = sum(1 for _ in enumerate_constrained(n, require_planar=False))
        assert got == want, f"n={n}"
    for n, want in PLANAR_CLASSES.items():
        got = sum(1 for _ in enumerate_constrained(n, require_planar=True))
        assert got == want, f"n={n}"


def test_enumeration_planar_c4_free_counts():
    # K5 is the only non-planar class on 5 vertices, so the labeled brute
    # below stays independent of the production planarity routine
    assert _labeled_class_count(
        5, lambda g: is_planar(g).is_planar) == 33
    got = {n: sum(1 for _ in enumerate_constrained(n, C4_FREE))
           for n in range(4, 9)}
    assert got == {4: 8, 5: 18, 6: 44, 7: 117, 8: 351}


def _last_orbit(child):
    """The Aut(child) orbit of the vertex at the last canonical position,
    by the full search; McKay's parent test asks that the new vertex be
    in it."""
    _, pos, generators = canonical_search(child)
    orbit = orbits_of(1 << pos.index(child.n - 1), generators)
    return {v for v in range(child.n) if orbit >> v & 1}


def test_last_root_cell_decides_the_parent_test_like_the_full_search():
    # search settles the parent test from the last cell of the root
    # partition when the new vertex k is outside it (reject) or alone in
    # it (accept), and keeps only children that pass it; the partition is
    # the node canonical_search starts from, so handing it over changes
    # nothing
    decided = {True: 0, False: 0}
    for k in range(1, 7):
        for parent in enumerate_constrained(k, require_planar=False):
            for mask in range(1 << k):
                child = parent.with_vertex([i for i in range(k) if mask >> i & 1])
                orbit = _last_orbit(child)
                cells = root_partition(child.bits)
                assert canonical_search(child, cells) == canonical_search(child)
                cell = tuple(v for v in range(k + 1) if cells[-1] >> v & 1)
                assert orbit <= set(cell)
                if k not in cell or cell == (k,):
                    assert (k in cell) == (k in orbit), (to_graph6(child), cell)
                    decided[k in orbit] += 1
            for child, _ in search._accepted_children(parent, None,
                                                      EMPTY_FAMILY, False):
                assert k in _last_orbit(child), to_graph6(child)
    assert decided[True] and decided[False]


def _nodes(n, family, planar):
    """The classes on n vertices with the generators that the search
    hands down with each, as the augmentation meets them."""
    return [(g, generators) for g, generators, _ in search._grow(
        (empty_graph(0), None), n, family, planar, False, None, None)]


def test_a_new_vertex_of_strictly_greatest_degree_is_accepted_unrefined(
        monkeypatch):
    # search accepts a child without refining its rows when the new
    # vertex k has more neighbours than any old vertex has in the child;
    # refinement orders cells by degree first, so the last root cell is
    # (k,) anyway.  Handed no generator, search prunes no orbit, so
    # every mask that passes the degree filter is judged.
    real = search.root_partition
    refined = set()

    def recorded(rows):
        refined.add(rows)
        return real(rows)

    monkeypatch.setattr(search, "root_partition", recorded)
    unrefined = 0
    for k in range(1, 8):
        for parent in enumerate_constrained(k, require_planar=False):
            refined.clear()
            for child, _ in search._accepted_children(parent, (), EMPTY_FAMILY,
                                                      False):
                if child.bits not in refined:
                    unrefined += 1
                    assert real(child.bits)[-1] == 1 << k, to_graph6(child)
    assert unrefined


@pytest.mark.parametrize("n, family, planar", [
    (6, EMPTY_FAMILY, False),
    (7, C4_FREE, True),
    (7, CLAW_FREE, True),
])
def test_handed_down_generators_are_the_childs_own(monkeypatch, n, family,
                                                   planar):
    # a child whose parent test needed a canonical search keeps the
    # generators it found, so its own expansion does not search again;
    # they are the ones a fresh search of the child with the same seeds
    # returns, they generate the child's whole group, and the children
    # are the same as with the parent's generators recomputed
    real = search.canonical_search
    seeded = {}

    def recorded(g, root=None, known=()):
        seeded[id(g)] = known
        return real(g, root, known)

    monkeypatch.setattr(search, "canonical_search", recorded)
    handed = 0
    for k in range(1, n):
        for parent, generators in _nodes(k, family, planar):
            seeded.clear()
            given = search._accepted_children(parent, generators, family,
                                              planar)
            fresh = search._accepted_children(parent, None, family, planar)
            assert [c for c, _ in given] == [c for c, _ in fresh]
            for child, found in given:
                if found is not None:
                    handed += 1
                    seeds = seeded[id(child)]
                    assert found == canonical_search(child, None, seeds)[2], \
                        to_graph6(child)
                    assert _group_order(child.n, found) == \
                        automorphism_count(child), to_graph6(child)
    assert handed


def _group_order(n, generators):
    """The order of the group of permutations of range(n) that
    `generators` generate, by closing the identity under them."""
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for q in generators:
            r = tuple(q[x] for x in p)
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return len(seen)


@pytest.mark.parametrize("family, planar", [
    (EMPTY_FAMILY, False),
    (C4_FREE, True),
    (CLAW_FREE, True),
])
def test_final_level_seeds_are_automorphisms_and_change_no_form(
        monkeypatch, family, planar):
    # on every level, a child's canonical search starts from the
    # parent generators that map the mask onto itself, extended by
    # n -> n; each must be an automorphism of the child, and the seeded
    # search must give the unseeded path and positions, with generators
    # of the child's whole group
    nodes = [node for k in range(1, 7) for node in _nodes(k, family, planar)]
    real = search.canonical_search
    calls = []

    def recorded(g, root=None, known=()):
        result = real(g, root, known)
        calls.append((g, known, result))
        return result

    monkeypatch.setattr(search, "canonical_search", recorded)
    seeds = 0
    for parent, generators in nodes:
        calls.clear()
        search._accepted_children(parent, generators, family, planar)
        for child, known, (path, pos, found) in calls:
            if child.n == parent.n:
                continue  # the parent's own search, unseeded
            seeds += len(known)
            for p in known:
                image = {tuple(sorted((p[u], p[v]))) for u, v in child.edges}
                assert image == set(child.edges), (to_graph6(child), p)
            assert (path, pos) == real(child)[:2], to_graph6(child)
            assert found[:len(known)] == known
            assert _group_order(child.n, found) == automorphism_count(child)
    assert seeds


def test_search_builds_a_form_only_for_each_witness(monkeypatch):
    # the augmentation search reads positions and generators off
    # canonical_search; a CanonicalForm is built only by canonical_form,
    # once per witness of the record
    built = []

    class Counted(canonical.CanonicalForm):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(canonical, "CanonicalForm", Counted)
    rec = extremal_number(8, cycle_graph(5), C4_FREE)
    assert (rec.max_count, rec.graphs_explored) == (4, 351)
    assert len(built) == len(rec.witnesses) == 1


@pytest.mark.parametrize("planar", [False, True])
def test_cycle_counts_from_the_parent_table_equal_count_copies(planar):
    # the last level scores each child of a cycle pattern from its
    # parent's count and path table instead of counting the child
    children = 0
    for n in range(1, 8):
        for parent, generators in _nodes(n, EMPTY_FAMILY, planar):
            kept = [child for child, _ in search._accepted_children(
                parent, generators, EMPTY_FAMILY, planar)]
            masks = [child.bits[-1] for child in kept]
            for k in range(3, 8):
                want = [count_copies(cycle_graph(k), child) for child in kept]
                assert search._cycle_counts(parent, k, masks) == want, \
                    (to_graph6(parent), k)
            children += len(kept)
    assert children == sum((ALL_CLASSES if not planar else PLANAR_CLASSES)[n]
                           for n in range(2, 8)) + (6966 if planar else 12346)


@pytest.mark.parametrize("family", [
    EMPTY_FAMILY, ForbiddenFamily.of_lengths(3),
    ForbiddenFamily(frozenset(), (empty_graph(1),)),
    ForbiddenFamily(frozenset(), (path_with_edges(1),))],
    ids=["none", "C3", "K1", "P1"])
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("connected", [False, True])
def test_extremal_number_on_at_most_three_vertices_equals_a_labelled_brute(
        width, connected, family):
    # every search starts from the empty graph, so n = 1 and 2 run one
    # augmentation step or two, the second scored on the last level; an
    # extra pattern of one vertex or one edge already bites there
    patterns = [empty_graph(1), path_with_edges(1), path_with_edges(2),
                cycle_graph(3)]
    budget = SearchBudget(parallel_width=width, time_limit=60)
    for n in (1, 2, 3):
        pairs = list(combinations(range(n), 2))
        graphs = [g for g in (
            build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for mask in range(1 << len(pairs)))
            if is_planar_by_subdivision(g) and (not connected or is_connected(g))
            and not any(count_cycles_brute(g, k) for k in family.cycle_lengths)
            and not any(count_copies_brute(h, g)
                        for h in family.extra_patterns)]
        classes = {canonical_form(g) for g in graphs}
        assert {canonical_form(g) for g in enumerate_constrained(
            n, family, require_connected=connected)} == classes
        for h in patterns:
            counts = {g: count_copies_brute(h, g) for g in graphs}
            best = max(counts.values(), default=0)
            rec = extremal_number(n, h, family, budget,
                                  require_connected=connected)
            assert rec.status == "complete"
            assert rec.max_count == best, (n, h.edges)
            assert set(rec.witnesses) == {canonical_form(g)
                                          for g, c in counts.items() if c == best}
            assert rec.graphs_explored == len(classes)


def _on_masks(perm):
    """The permutation of all 2^n vertex subsets (as bitmasks) that perm
    induces: the table the orbit pruning once built per generator."""
    image = [0] * (1 << len(perm))
    for mask in range(1, len(image)):
        low = mask & -mask
        image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
    return image


@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("lengths", [(), (3,), (4,), (3, 4)])
def test_orbits_on_the_kept_masks_are_the_orbits_on_all_masks(
        monkeypatch, lengths, planar):
    # search lists only the masks that pass its filters, all invariant
    # under Aut(parent), and keeps the least of each orbit on them: the
    # same masks as the least of each orbit on all 2^n subsets
    family = ForbiddenFamily.of_lengths(*lengths)
    real = search._orbit_least
    seen = []
    monkeypatch.setattr(search, "_orbit_least",
                        lambda masks, gens: seen.append(masks) or real(masks, gens))
    pruned = 0
    for k in range(1, 7):
        for parent in enumerate_constrained(k, family, require_planar=planar):
            partners = closing_partners(parent, family)
            top = max(len(row) for row in parent.adj)
            at_top = sum(1 << v for v in range(k) if len(parent.adj[v]) == top)
            most = 3 * (k + 1) - 6 - parent.edge_count if planar and k >= 2 else k
            kept = [m for m in range(1 << k)
                    if not any(m >> v & 1 and partners[v] & m for v in range(k))
                    and top <= m.bit_count() <= most
                    and not (m.bit_count() == top and m & at_top)]
            generators = canonical_search(parent)[2]
            seen.clear()
            search._accepted_children(parent, None, family, planar)
            if len(kept) < 2 or not generators:
                assert seen == []
                continue
            assert seen == [kept]
            on_masks = [_on_masks(p) for p in generators]
            assert real(kept, generators) == [
                m for m in kept
                if not orbits_of(1 << m, on_masks) & ((1 << m) - 1)]
            pruned += len(kept) > len(real(kept, generators))
    assert pruned
    with pytest.raises(KeyError):  # {0} is not closed under swapping 0, 1
        real([1], [(1, 0)])


def test_a_mask_over_a_non_planar_one_is_dropped_unrefined(monkeypatch):
    # a child joined to a superset of a mask whose child is not planar
    # holds that child, so search drops the mask before refining it; the
    # accepted children are those of the same parent with planarity
    # tested only after the parent test
    real = search.is_planar
    tested = []
    monkeypatch.setattr(search, "is_planar",
                        lambda g: tested.append(g) or real(g))
    dropped = 0
    for k in range(1, 8):
        for parent, generators in _nodes(k, EMPTY_FAMILY, True):
            tested.clear()
            got = search._accepted_children(parent, generators, EMPTY_FAMILY,
                                            True)
            dead = []
            for child in tested:
                mask = child.bits[k]
                assert not any(mask & d == d for d in dead), to_graph6(child)
                if not real(child).is_planar:
                    dead.append(mask)
            loose = [c for c, _ in search._accepted_children(
                parent, generators, EMPTY_FAMILY, False)]
            assert [c for c, _ in got] == [c for c in loose if real(c).is_planar]
            dropped += sum(any(c.bits[k] & d == d != c.bits[k] for d in dead)
                           for c in loose)
    assert dropped


@pytest.mark.parametrize("n, family, planar, classes", [
    (7, EMPTY_FAMILY, False, 1044),
    (7, EMPTY_FAMILY, True, 822),
    (8, C4_FREE, True, 351),
])
def test_enumeration_yields_each_class_once(n, family, planar, classes):
    forms = [canonical_form(g)
             for g in enumerate_constrained(n, family, require_planar=planar)]
    assert len(set(forms)) == len(forms) == classes


def test_family_searches_match_the_filtered_planar_classes():
    # the family searches prune with closing_partners; filtering the
    # 6 966 planar classes on 8 vertices by is_family_free never calls
    # it, so a funnel that dropped a class would show here
    planar = list(enumerate_constrained(8))
    assert len(planar) == 6966
    for lengths, want in [((4,), 351), ((3,), 367), ((5,), 899),
                          ((3, 4), 114)]:
        family = ForbiddenFamily.of_lengths(*lengths)
        kept = {canonical_form(g) for g in planar if is_family_free(g, family)}
        searched = {canonical_form(g) for g in enumerate_constrained(8, family)}
        assert len(kept) == want, lengths
        assert searched == kept, lengths


def test_enumeration_connected_filter():
    for n in range(1, 6):
        stream = list(enumerate_constrained(n, require_planar=False,
                                            require_connected=True))
        assert all(is_connected(g) for g in stream)
        assert len(stream) == _labeled_class_count(n, is_connected)


def test_enumeration_respects_vertex_cap():
    with pytest.raises(ValueError):
        list(enumerate_constrained(9))
    with pytest.raises(ValueError):
        list(enumerate_constrained(10, budget=SearchBudget(max_vertices=9)))


def test_enumeration_time_limit():
    budget = SearchBudget(time_limit=1e-7)
    with pytest.raises(SearchIncomplete):
        list(enumerate_constrained(7, budget=budget))


def test_enumeration_time_limit_stops_a_slow_consumer():
    # the limit is checked between yielded classes too, not only while
    # they are grown; all 142 classes at 5 ms each would take 0.7 s
    start = time.monotonic()
    with pytest.raises(SearchIncomplete):
        for _ in enumerate_constrained(6, budget=SearchBudget(time_limit=0.05)):
            time.sleep(0.005)
    assert time.monotonic() - start < 0.5


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_vertices=0)
    with pytest.raises(ValueError):
        SearchBudget(parallel_width=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=0.0)
    # every deadline comparison with NaN is False, so it would never stop
    with pytest.raises(ValueError, match="time_limit"):
        SearchBudget(time_limit=float("nan"))
    assert SearchBudget(time_limit=float("inf")).time_limit == float("inf")
    # a float width would reach range() inside the fan-out, after a pipe
    # is opened, and fail there with TypeError
    for name in ("max_vertices", "parallel_width"):
        for value in (1.5, 2.0, "2"):
            with pytest.raises(ValueError, match="must be integers"):
                SearchBudget(**{name: value})


def test_enumeration_streams_the_first_class_at_once(monkeypatch):
    # depth first, the first 7-vertex class needs one augmentation per
    # level, not whole levels
    calls = []
    real = search._accepted_children

    def counted(*args):
        calls.append(args[0].n)
        return real(*args)

    monkeypatch.setattr(search, "_accepted_children", counted)
    first = next(enumerate_constrained(7))
    assert first.n == 7
    assert calls == [0, 1, 2, 3, 4, 5, 6]


def test_extremal_pentagon_values():
    values = {}
    for n in range(4, 8):
        rec = extremal_number(n, cycle_graph(5), C4_FREE)
        assert rec.status == "complete"
        values[n] = rec.max_count
    assert values == {4: 0, 5: 1, 6: 1, 7: 3}
    assert sorted(values) == list(range(4, 8))
    assert all(values[n] <= values[n + 1] for n in range(4, 7))


def test_extremal_witnesses_attain_the_maximum():
    from planar_turan.counting import count_copies
    rec = extremal_number(6, cycle_graph(5), C4_FREE)
    assert rec.witnesses
    for form in rec.witnesses:
        g = form.as_graph()
        assert is_planar(g).is_planar
        assert count_copies(cycle_graph(5), g) == rec.max_count == 1


def test_extremal_deterministic_across_widths():
    serial = extremal_number(6, cycle_graph(5), C4_FREE,
                             SearchBudget(parallel_width=1))
    parallel = extremal_number(6, cycle_graph(5), C4_FREE,
                               SearchBudget(parallel_width=4))
    assert serial == parallel  # elapsed is excluded from comparison
    assert serial.witnesses == parallel.witnesses
    assert serial.graphs_explored == parallel.graphs_explored


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_width_is_capped_at_the_task_count(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(search.os, "fork", fork)
    serial = extremal_number(5, cycle_graph(5), C4_FREE)
    assert forks == []  # width 1 is the serial loop
    wide = extremal_number(5, cycle_graph(5), C4_FREE,
                           SearchBudget(parallel_width=64))
    # the trunk at n = 5 is the four graphs on 3 vertices, so the width
    # is capped at 4: the caller and three forked children
    assert len(forks) == 3
    assert wide == serial and wide.witnesses == serial.witnesses
    two = extremal_number(6, cycle_graph(5), C4_FREE,
                          SearchBudget(parallel_width=2))
    assert len(forks) == 4
    assert two == extremal_number(6, cycle_graph(5), C4_FREE)
    _no_child_left()


def _square(x):
    return x * x


def _one_each(caller, sync, in_child, x):
    """The caller's item waits until a child has taken one, so with two
    items the caller and one child run one each."""
    if os.getpid() == caller:
        os.read(sync[0], 1)
        return x
    os.write(sync[1], b".")
    return in_child(x)


def _boom(x):
    raise ValueError("boom")


def _exit_3(x):
    os._exit(3)


def _in_caller_else_sleep(error, caller, x):
    if os.getpid() != caller:
        time.sleep(60)
    elif error is not None:
        raise error("caller")
    return x


@pytest.mark.parametrize("width", [1, 2, 3, 8])
def test_fan_out_runs_every_item_once(width):
    got = list(search._fan_out(_square, list(range(10)), width))
    assert sorted(got) == [x * x for x in range(10)]
    _no_child_left()


@pytest.mark.parametrize("in_child, error, message", [
    (_boom, ValueError, "^boom$"),
    (_exit_3, RuntimeError, "exited with code 3 before it reported"),
])
def test_fan_out_raises_what_went_wrong_in_a_child(in_child, error, message):
    sync = os.pipe()
    try:
        task = partial(_one_each, os.getpid(), sync, in_child)
        with pytest.raises(error, match=message) as info:
            list(search._fan_out(task, [0, 1], 2))
    finally:
        for fd in sync:
            os.close(fd)
    if in_child is _boom:  # the child's traceback rides along
        assert "_boom" in str(info.value.__cause__)
    _no_child_left()


@pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
def test_fan_out_kills_the_children_when_the_caller_fails(error):
    # each child sleeps on the one item it holds, so the caller takes one
    start = time.monotonic()
    with pytest.raises(error, match="caller"):
        list(search._fan_out(partial(_in_caller_else_sleep, error, os.getpid()),
                             list(range(10)), 3))
    assert time.monotonic() - start < 10
    _no_child_left()


def test_fan_out_kills_the_children_when_the_consumer_stops():
    start = time.monotonic()
    results = search._fan_out(partial(_in_caller_else_sleep, None, os.getpid()),
                              list(range(10)), 3)
    assert next(results) in range(10)  # the caller's, while children sleep
    results.close()
    assert time.monotonic() - start < 10
    _no_child_left()


def _ring(signum, frame):
    raise TimeoutError("the search was still running after 5 s")


@pytest.mark.parametrize("time_limit", [None, 1.0])
def test_a_child_that_dies_holding_a_task_is_an_error_not_a_hang(
        monkeypatch, time_limit):
    # the child exits right after its second read of the task pipe, with
    # an index in hand; the caller reads a little slower, so that the
    # child gets that far before the caller has taken every task
    caller = os.getpid()
    reads = []
    real_read = os.read

    def read(fd, size):
        if os.getpid() == caller:
            time.sleep(0.005)
            return real_read(fd, size)
        data = real_read(fd, size)
        reads.append(data)
        if len(reads) == 2:
            os._exit(9)
        return data

    monkeypatch.setattr(search.os, "read", read)
    old = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(5)  # a hang fails the test instead of stalling the suite
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="code 9 before it reported"):
            extremal_number(8, cycle_graph(5), C4_FREE,
                            SearchBudget(time_limit=time_limit,
                                         parallel_width=2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 2
    _no_child_left()


def test_fan_out_refuses_a_task_list_that_does_not_fit_before_forking(
        monkeypatch):
    # 20 000 four-byte indices overflow a 64 KiB pipe
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(search.os, "fork", fork)
    before = sorted(os.listdir("/dev/fd"))
    with pytest.raises(ValueError, match="20000 tasks do not fit"):
        list(search._fan_out(_square, list(range(20_000)), 2))
    assert forks == []
    assert sorted(os.listdir("/dev/fd")) == before


def test_width_above_one_is_refused_while_another_thread_runs():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with pytest.raises(ValueError, match="threads.*use width 1"):
            extremal_number(6, cycle_graph(5), C4_FREE,
                            SearchBudget(parallel_width=2))
        serial = extremal_number(6, cycle_graph(5), C4_FREE)
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    assert serial == extremal_number(6, cycle_graph(5), C4_FREE,
                                     SearchBudget(parallel_width=2))
    _no_child_left()


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_incomplete_record_folds_every_finished_task(monkeypatch, width, k):
    # at n = 7 the trunk is the planar C4-free graphs on 5 vertices, and
    # each task adds two vertices; the k-th task stops its process
    pattern = Pattern.from_graph(cycle_graph(5))
    trunk = [(g, generators) for g, generators, _ in search._grow(
        (empty_graph(0), None), 5, C4_FREE, True, False, None, None)]
    real = search._subtree_task
    scans = [real(node, steps=2, family=C4_FREE, require_planar=True,
                  require_connected=False, pattern=pattern, deadline=None)
             for node in trunk]

    def task(node, **kw):
        if node == trunk[k]:
            raise SearchIncomplete("stopped")
        return real(node, **kw)

    monkeypatch.setattr(search, "_subtree_task", task)
    rec = extremal_number(7, pattern, C4_FREE,
                          SearchBudget(parallel_width=width))
    # alone, the process stops after the prefix; at width 2 the other
    # process takes every task left
    finished = range(k) if width == 1 else set(range(len(trunk))) - {k}
    assert rec.status == "incomplete"
    assert rec.graphs_explored == sum(scans[i][0] for i in finished)
    assert rec.max_count == max(scans[i][1] for i in finished)
    _no_child_left()


def test_width_above_one_is_refused_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        extremal_number(5, cycle_graph(5), C4_FREE,
                        SearchBudget(parallel_width=2))
    rec = extremal_number(5, cycle_graph(5), C4_FREE)
    assert rec.status == "complete"


@pytest.mark.parametrize("n", [0, -1])
def test_extremal_refuses_empty_vertex_counts(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        extremal_number(n, cycle_graph(5), C4_FREE)


def test_extremal_time_limit_yields_incomplete():
    rec = extremal_number(7, cycle_graph(5), C4_FREE,
                          SearchBudget(time_limit=1e-7))
    assert rec.status == "incomplete"


def test_extremal_time_limit_bounds_wall_time_with_workers():
    # the planar C5 search at n = 9 takes over ten seconds at width 2
    start = time.monotonic()
    rec = extremal_number(9, cycle_graph(5), EMPTY_FAMILY,
                          SearchBudget(max_vertices=9, time_limit=1.0,
                                       parallel_width=2))
    assert rec.status == "incomplete"
    assert time.monotonic() - start < 1.5
    _no_child_left()


def test_extremal_extra_patterns_match_brute_force():
    # planar triangle-free graphs on 5 vertices scored by copies of P2,
    # against every labeled graph; the maximum 9 is attained by K_{2,3}
    pairs = list(combinations(range(5), 2))
    p2 = path_with_edges(2)
    scores = {}
    for mask in range(1 << len(pairs)):
        g = build_graph(5, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if is_planar_by_subdivision(g) and count_cycles_brute(g, 3) == 0:
            scores[canonical_form(g)] = count_copies_brute(p2, g)
    best = max(scores.values())
    assert best == 9
    family = ForbiddenFamily(frozenset(), (cycle_graph(3),))
    for width in (1, 2):
        rec = extremal_number(5, p2, family, SearchBudget(parallel_width=width))
        assert rec.status == "complete"
        assert rec.max_count == best
        assert set(rec.witnesses) == {f for f, c in scores.items() if c == best}
        assert rec.graphs_explored == len(scores)


def test_extremal_accepts_pattern_object():
    pat = Pattern.from_graph(cycle_graph(3), "C3")
    rec = extremal_number(5, pat, EMPTY_FAMILY)
    assert rec.pattern is pat
    assert rec.max_count > 0


@pytest.mark.parametrize("h, name", [(cycle_graph(5), "C5"),
                                     (star_graph(3), "K1_3")])
def test_records_of_a_hand_built_and_a_compiled_pattern_are_equal(h, name):
    # the cycle length and the embedding plan follow from the graph, so
    # they take no part in equality or hashing
    built = Pattern(h, automorphism_count(h), name)
    compiled = Pattern.from_graph(h, name)
    assert built == compiled and hash(built) == hash(compiled)
    searched = extremal_number(6, compiled, EMPTY_FAMILY)
    by_hand = dataclasses.replace(searched, pattern=built)
    assert by_hand == searched and hash(by_hand) == hash(searched)
    assert extremal_number(6, built, EMPTY_FAMILY) == searched


@pytest.mark.parametrize("planar, connected",
                         [(False, False), (True, True), (False, True)])
def test_record_json_keeps_the_search_flags(planar, connected):
    rec = extremal_number(5, cycle_graph(5), EMPTY_FAMILY,
                          require_planar=planar, require_connected=connected)
    assert (rec.require_planar, rec.require_connected) == (planar, connected)
    data = json.loads(json.dumps(record_to_json(rec)))
    assert (data["require_planar"], data["require_connected"]) == (planar, connected)


def test_recertify_refuses_a_disconnected_witness_of_a_connected_search():
    rec = extremal_number(5, cycle_graph(3), EMPTY_FAMILY, require_connected=True)
    search._recertify(rec)
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    forged = dataclasses.replace(rec, n=6, max_count=2,
                                 witnesses=(canonical_form(two_triangles),))
    with pytest.raises(RuntimeError, match="re-certification"):
        search._recertify(forged)
    search._recertify(dataclasses.replace(forged, require_connected=False))


def _forge_c5_c4free_line(directory):
    """A record line for C4-free C5 at n = 8 that says max 1 (the true
    max is 4), with C5 plus three isolated vertices as witness."""
    padded_c5 = build_graph(8, [(i, (i + 1) % 5) for i in range(5)])
    forged = search.ExtremalRecord(8, Pattern.from_graph(cycle_graph(5)),
                                   C4_FREE, 1, (canonical_form(padded_c5),),
                                   351, 0.0)
    path = directory / "extremal.jsonl"
    path.write_text(json.dumps(record_to_json(forged), sort_keys=True) + "\n")
    return path, path.read_bytes()


def test_search_answers_afresh_beside_a_forged_record_line(tmp_path, monkeypatch):
    # PLANAR_TURAN_CACHE once named a directory whose lines answered a
    # search with no check of the max; no line may answer one now
    line, before = _forge_c5_c4free_line(tmp_path)
    monkeypatch.setenv("PLANAR_TURAN_CACHE", str(tmp_path))
    rec = extremal_number(8, cycle_graph(5), C4_FREE)
    assert (rec.max_count, rec.graphs_explored, rec.status) == (4, 351, "complete")
    assert list(tmp_path.iterdir()) == [line] and line.read_bytes() == before


def test_growth_probe_on_quadratic_family():
    spec = ConstructionSpec("cycle_blowup", {"k": 4})
    probe = growth_probe(spec, [16, 32, 64])
    assert probe.points == ((16, 91), (32, 435), (64, 1891))
    assert 1.8 < probe.slope < 2.6
    assert len(probe.residuals) == 3


def test_growth_probe_needs_three_points():
    spec = ConstructionSpec("cycle_blowup", {"k": 4})
    with pytest.raises(ValueError):
        growth_probe(spec, [16, 32])
    with pytest.raises(ValueError):
        growth_probe(spec, [16, 16, 16])


def test_growth_probe_refuses_family_not_sized_by_n():
    spec = ConstructionSpec("pentagon_extremal", {"t": 3, "s": 3})
    with pytest.raises(ConstructionError):
        growth_probe(spec, [10, 11, 12])


def test_witnesses_decode_from_graph6():
    rec = extremal_number(5, cycle_graph(5), C4_FREE)
    payload = record_to_json(rec)
    for text in payload["witnesses"]:
        g = from_graph6(text)
        assert canonical_form(g) in rec.witnesses
