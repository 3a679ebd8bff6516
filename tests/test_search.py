"""Isomorph-free enumeration and the exhaustive extremal search.

Completeness is checked against the only oracle that needs no trust:
every labeled graph on n vertices, deduplicated by canonical form.
That oracle is quadratic in 2^C(n,2), so it stops at n = 5; the known
class counts carry the check to n = 6 and 7.
"""

import json
import os
import signal
import threading
import time
from functools import partial
from itertools import combinations

import pytest

from planar_turan import search
from planar_turan.bruteforce import (count_copies_brute, count_cycles_brute,
                                     is_planar_by_subdivision)
from planar_turan.canonical import (canonical_form, canonical_search,
                                    orbit_roots, root_partition)
from planar_turan.counting import Pattern
from planar_turan.cycles import EMPTY_FAMILY, ForbiddenFamily, is_family_free
from planar_turan.graph import (build_graph, cycle_graph, empty_graph,
                                is_connected, path_with_edges)
from planar_turan.graph6 import from_graph6, to_graph6
from planar_turan.planarity import is_planar
from planar_turan.search import (
    SearchBudget,
    SearchIncomplete,
    enumerate_constrained,
    extremal_number,
    record_from_json,
    record_to_json,
)
from planar_turan.constructions import (ConstructionError, ConstructionSpec,
                                        growth_probe)

C4_FREE = ForbiddenFamily.of_lengths(4)

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
    root = orbit_roots(child.n, generators)
    last = root[pos.index(child.n - 1)]
    return {v for v in range(child.n) if root[v] == last}


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
                cell = cells[-1]
                assert orbit <= set(cell)
                if k not in cell or cell == (k,):
                    assert (k in cell) == (k in orbit), (to_graph6(child), cell)
                    decided[k in orbit] += 1
            for child in search._accepted_children(parent, EMPTY_FAMILY, False):
                assert k in _last_orbit(child), to_graph6(child)
    assert decided[True] and decided[False]


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
    assert calls == [1, 2, 3, 4, 5, 6]


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
    serial = extremal_number(5, cycle_graph(5), C4_FREE, use_cache=False)
    assert forks == []  # width 1 is the serial loop
    wide = extremal_number(5, cycle_graph(5), C4_FREE,
                           SearchBudget(parallel_width=64), use_cache=False)
    # the trunk at n = 5 is the four graphs on 3 vertices, so the width
    # is capped at 4: the caller and three forked children
    assert len(forks) == 3
    assert wide == serial and wide.witnesses == serial.witnesses
    two = extremal_number(6, cycle_graph(5), C4_FREE,
                          SearchBudget(parallel_width=2), use_cache=False)
    assert len(forks) == 4
    assert two == extremal_number(6, cycle_graph(5), C4_FREE, use_cache=False)
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
                                         parallel_width=2),
                            use_cache=False)
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
                            SearchBudget(parallel_width=2), use_cache=False)
        serial = extremal_number(6, cycle_graph(5), C4_FREE, use_cache=False)
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    assert serial == extremal_number(6, cycle_graph(5), C4_FREE,
                                     SearchBudget(parallel_width=2),
                                     use_cache=False)
    _no_child_left()


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_incomplete_record_folds_every_finished_task(monkeypatch, width, k):
    # at n = 7 the trunk is the planar C4-free graphs on 5 vertices, and
    # each task adds two vertices; the k-th task stops its process
    pattern = Pattern.from_graph(cycle_graph(5))
    trunk = list(search._grow(empty_graph(1), 4, C4_FREE, True, False, None))
    real = search._subtree_task
    scans = [real(g, steps=2, family=C4_FREE, require_planar=True,
                  require_connected=False, pattern=pattern, deadline=None)
             for g in trunk]

    def task(parent, **kw):
        if parent == trunk[k]:
            raise SearchIncomplete("stopped")
        return real(parent, **kw)

    monkeypatch.setattr(search, "_subtree_task", task)
    rec = extremal_number(7, pattern, C4_FREE,
                          SearchBudget(parallel_width=width), use_cache=False)
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
                        SearchBudget(parallel_width=2), use_cache=False)
    rec = extremal_number(5, cycle_graph(5), C4_FREE, use_cache=False)
    assert rec.status == "complete"


@pytest.mark.parametrize("n", [0, -1])
def test_extremal_refuses_empty_vertex_counts(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        extremal_number(n, cycle_graph(5), C4_FREE, use_cache=False)


def test_extremal_time_limit_yields_incomplete():
    rec = extremal_number(7, cycle_graph(5), C4_FREE,
                          SearchBudget(time_limit=1e-7))
    assert rec.status == "incomplete"


def test_extremal_time_limit_bounds_wall_time_with_workers():
    # the planar C5 search at n = 9 takes over ten seconds at width 2
    start = time.monotonic()
    rec = extremal_number(9, cycle_graph(5), EMPTY_FAMILY,
                          SearchBudget(max_vertices=9, time_limit=1.0,
                                       parallel_width=2),
                          use_cache=False)
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


def test_record_json_roundtrip():
    rec = extremal_number(5, cycle_graph(5), C4_FREE)
    data = record_to_json(rec)
    clone = record_from_json(json.loads(json.dumps(data)))
    assert clone == rec
    assert clone.witnesses == rec.witnesses


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("PLANAR_TURAN_CACHE", str(tmp_path))
    first = extremal_number(5, cycle_graph(5), C4_FREE)
    cache = tmp_path / "extremal.jsonl"
    assert cache.exists()
    lines = cache.read_text().strip().splitlines()
    assert len(lines) == 1
    stored = record_from_json(json.loads(lines[0]))
    assert stored == first
    second = extremal_number(5, cycle_graph(5), C4_FREE)
    assert second == first
    # the hit must not append a second line
    assert len(cache.read_text().strip().splitlines()) == 1


def test_cache_bypassed_for_extra_patterns(tmp_path, monkeypatch):
    monkeypatch.setenv("PLANAR_TURAN_CACHE", str(tmp_path))
    assert extremal_number(6, cycle_graph(5), C4_FREE).max_count == 1
    with_c5 = ForbiddenFamily(frozenset({4}), (cycle_graph(5),))
    assert extremal_number(6, cycle_graph(5), with_c5).max_count == 0
    lines = (tmp_path / "extremal.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1


def test_cache_survives_a_torn_line_and_recertifies_hits(tmp_path, monkeypatch):
    monkeypatch.setenv("PLANAR_TURAN_CACHE", str(tmp_path))
    extremal_number(5, cycle_graph(5), C4_FREE)
    with open(tmp_path / "extremal.jsonl", "a", encoding="ascii") as fh:
        fh.write("garbage{\n")
    first = extremal_number(6, cycle_graph(5), C4_FREE)  # a miss reads past it

    def no_search(*args, **kwargs):
        raise AssertionError("a cache hit must not search")

    recertified = []
    real_recertify = search._recertify

    def spy(record, *args):
        recertified.append(record)
        real_recertify(record, *args)

    monkeypatch.setattr(search, "_grow", no_search)
    monkeypatch.setattr(search, "_recertify", spy)
    second = extremal_number(6, cycle_graph(5), C4_FREE)
    assert second == first
    assert recertified == [second]


def test_cache_path_that_is_a_file_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    monkeypatch.setenv("PLANAR_TURAN_CACHE", str(path))
    with pytest.raises(ValueError, match="PLANAR_TURAN_CACHE") as info:
        extremal_number(5, cycle_graph(5), C4_FREE)
    assert str(path) in str(info.value)


def test_cache_ignored_when_disabled(tmp_path, monkeypatch):
    monkeypatch.setenv("PLANAR_TURAN_CACHE", str(tmp_path))
    extremal_number(5, cycle_graph(5), C4_FREE, use_cache=False)
    assert not os.path.exists(tmp_path / "extremal.jsonl")


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
