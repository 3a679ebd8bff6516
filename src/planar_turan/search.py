"""Exhaustive extremal search over small planar family-free graphs.

Enumeration is canonical augmentation with McKay's orbit criterion
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  A
parent on i vertices is extended by one new vertex joined to an
attachment mask, one mask per orbit of Aut(parent).  The child is kept
only when the new vertex lies in the Aut(child) orbit of the vertex at
the child's last canonical position, i.e. when the canonical deletion
of the child gives back this parent and this mask orbit.  Each
isomorphism class then appears exactly once globally, with no
deduplication table within a parent or across a level.

That vertex, and with it its Aut(child) orbit, lies in the last cell
of the child's root equitable partition, so a child is rejected when
the new vertex is outside that cell and accepted with no canonical
search when the cell is the new vertex alone; only the rest get a full
`canonical_search`, started from that partition.  The partition is
refined from the child's bit rows, the parent's rows plus the mask, so
a child is built as a `Graph` only when it survives this test.
Children are kept as built, so the enumeration yields each class
exactly once in a deterministic order, but not in canonical labelling
and not sorted per parent.

Planarity and forbidden cycles are hereditary under vertex deletion, so
pruning during augmentation is sound, and each test runs at the cheapest
point: forbidden cycles through the new vertex, the planar edge bound
and the degree of the vertex at the last canonical position are checked
on the mask before a child is built; planarity runs only on children
that pass the orbit test.

Disconnected graphs are part of the search space: the extremal maximum
quantifies over all graphs on n vertices, not only connected ones.

`extremal_number` builds the trunk, every class two vertices short of
n, in the calling process; one task per trunk graph then adds the last
two vertices and scores the classes.  `_fan_out` shares the tasks between
the caller and `parallel_width - 1` children forked from it, which
share the trunk instead of receiving it pickled.  Every task index is
in a pipe before the first fork and each process only reads from it,
so a process that dies holding a task makes the caller raise instead
of leaving the others waiting.  The fold of the results (sum, max,
sorted witness set) does not depend on their order, so the record is
the same at every width.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial

from .canonical import (CanonicalForm, canonical_form, canonical_search,
                        orbit_roots, root_partition)
from .counting import Pattern, count_copies
from .cycles import (EMPTY_FAMILY, ForbiddenFamily, closing_partners,
                     is_family_free)
from .graph import Graph, empty_graph, is_connected
from .graph6 import from_graph6, to_graph6
from .planarity import is_planar

CACHE_ENV = "PLANAR_TURAN_CACHE"
DEFAULT_VERTEX_CAP = 8
HARD_VERTEX_CAP = 9


class SearchIncomplete(RuntimeError):
    """Raised by the augmentation loop when its deadline passes."""


@dataclass(frozen=True)
class SearchBudget:
    max_vertices: int = DEFAULT_VERTEX_CAP
    time_limit: float | None = None  # seconds
    parallel_width: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.max_vertices, int)
                and isinstance(self.parallel_width, int)):
            raise ValueError("max_vertices and parallel_width must be integers")
        if self.max_vertices < 1 or self.parallel_width < 1:
            raise ValueError("budget values must be positive")
        # `not > 0` also refuses NaN, which every deadline test would ignore
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class ExtremalRecord:
    n: int
    pattern: Pattern
    family: ForbiddenFamily
    max_count: int
    witnesses: tuple[CanonicalForm, ...]
    graphs_explored: int
    elapsed: float = field(compare=False)
    status: str = "complete"  # "complete" or "incomplete"


# ======================================================================
# Canonical augmentation
# ======================================================================

def _on_masks(perm: tuple[int, ...]) -> list[int]:
    """The permutation of vertex subsets (as bitmasks) induced by perm."""
    image = [0] * (1 << len(perm))
    for mask in range(1, len(image)):
        low = mask & -mask
        image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
    return image


def _accepted_children(parent: Graph, family: ForbiddenFamily,
                       require_planar: bool) -> list[Graph]:
    """The constrained one-vertex extensions of `parent` whose canonical
    parent it is, each class once, as built: the parent's labels plus
    the new vertex n, in mask order.

    Cheapest test first: attachment masks that close a forbidden cycle,
    break the planar edge bound or leave the new vertex short of maximum
    degree are dropped before any child is built; one mask per
    Aut(parent) orbit survives.  Each surviving mask gives the child's
    bit rows, and their root partition is refined once; n outside its
    last cell rejects the child before any `Graph` exists.  Only then
    is the child built, checked for extra patterns, and its parent test
    finished: accepted when the last cell is (n,), otherwise by one
    canonical search from that partition.  Planarity runs only on
    accepted children.
    """
    n = parent.n
    partners = closing_partners(parent, family)
    # e <= 3v - 6 for planar graphs on v >= 3 vertices
    max_attach = (3 * (n + 1) - 6 - parent.edge_count
                  if require_planar and n >= 2 else n)
    free = bytearray(1 << n)  # free[mask]: joining mask closes no cycle
    free[0] = 1
    for mask in range(1, 1 << n):
        high = mask.bit_length() - 1
        rest = mask ^ 1 << high
        free[mask] = free[rest] and not partners[high] & rest
    # The vertex at the last canonical position has maximum degree, so
    # the new vertex needs at least as many neighbours as any old vertex
    # and one more than an old vertex of top degree that it joins.
    top = max(len(row) for row in parent.adj)
    at_top = sum(1 << v for v in range(n) if len(parent.adj[v]) == top)
    masks = [m for m in range(1 << n)
             if free[m] and top <= m.bit_count() <= max_attach
             and not (m.bit_count() == top and m & at_top)]
    if len(masks) > 1:
        _, _, generators = canonical_search(parent)
        if generators:
            root = orbit_roots(1 << n, [_on_masks(p) for p in generators])
            masks = [m for m in masks if root[m] == m]
    accepted: list[Graph] = []
    bits = parent.bits
    for mask in masks:
        # McKay's criterion: the new vertex n must lie in the Aut(child)
        # orbit of the vertex at the last canonical position.  That vertex
        # and its orbit lie in the last root cell, which often decides.
        rows = tuple(row | 1 << n if mask >> v & 1 else row
                     for v, row in enumerate(bits)) + (mask,)
        cells = root_partition(rows)
        cell = cells[-1]
        if n not in cell:
            continue
        child = parent.with_vertex([i for i in range(n) if mask >> i & 1])
        if family.extra_patterns and not is_family_free(child, family):
            continue
        if len(cell) > 1:
            _, pos, generators = canonical_search(child, cells)
            last = pos.index(n)
            if last != n:
                if not generators:
                    continue
                root = orbit_roots(n + 1, generators)
                if root[last] != root[n]:
                    continue
        if require_planar and not is_planar(child).is_planar:
            continue
        accepted.append(child)
    return accepted


def _check_n(n: int, budget: SearchBudget) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = min(budget.max_vertices, HARD_VERTEX_CAP)
    if n > cap:
        raise ValueError(
            f"n = {n} exceeds the vertex cap {cap}; pass --max-vertices (CLI) or "
            f"a SearchBudget with max_vertices (library) up to {HARD_VERTEX_CAP} "
            f"to opt in to larger runs")


def _grow(parent: Graph, steps: int, family: ForbiddenFamily,
          require_planar: bool, require_connected: bool,
          deadline: float | None):
    """Yield the descendants of `parent` `steps` vertices down, depth
    first (the order of building level by level too), only connected ones
    with `require_connected`.  Raises SearchIncomplete once the deadline
    has passed, checked before each graph is extended or yielded."""
    _check(deadline)
    if steps == 0:
        if not require_connected or is_connected(parent):
            yield parent
        return
    for child in _accepted_children(parent, family, require_planar):
        yield from _grow(child, steps - 1, family, require_planar,
                         require_connected, deadline)


def _deadline(budget: SearchBudget) -> float | None:
    if budget.time_limit is None:
        return None
    return time.monotonic() + budget.time_limit


def _check(deadline: float | None) -> None:
    """Raise SearchIncomplete once the monotonic `deadline` has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise SearchIncomplete("time limit passed")


def _left(budget: SearchBudget, deadline: float | None) -> SearchBudget:
    """`budget` with only the time left before `deadline`, so the
    searches of one claim or table share its time limit.  Raises
    SearchIncomplete once it has passed."""
    if deadline is None:
        return budget
    left = deadline - time.monotonic()
    if left <= 0:
        raise SearchIncomplete("time limit passed")
    return replace(budget, time_limit=left)


def enumerate_constrained(n: int, family: ForbiddenFamily = EMPTY_FAMILY,
                          require_planar: bool = True, *,
                          require_connected: bool = False,
                          budget: SearchBudget | None = None):
    """Yield one representative per isomorphism class of n-vertex graphs
    satisfying the constraints.  Raises SearchIncomplete once the
    budget's time limit passes, also between yielded classes, so a slow
    consumer is stopped too; partial output is never silent.  Classes
    stream depth first, so the first arrives at once."""
    budget = budget or SearchBudget()
    _check_n(n, budget)
    yield from _grow(empty_graph(1), n - 1, family, require_planar,
                     require_connected, _deadline(budget))


# ======================================================================
# Extremal numbers
# ======================================================================

def _subtree_task(parent: Graph, *, steps: int, family: ForbiddenFamily,
                  require_planar: bool, require_connected: bool,
                  pattern: Pattern,
                  deadline: float | None) -> tuple[int, int, list[Graph]]:
    """Extend one parent by `steps` vertices and scan the result; returns
    (explored, local_max, witnesses attaining local_max)."""
    explored = 0
    best = -1
    witnesses: list[Graph] = []
    for g in _grow(parent, steps, family, require_planar, require_connected,
                   deadline):
        explored += 1
        c = count_copies(pattern, g)
        if c > best:
            best = c
            witnesses = [g]
        elif c == best:
            witnesses.append(g)
    return explored, best, witnesses


def _fan_out(task, items, width: int):
    """Yield task(item) for every item, run by the caller and width - 1
    children forked from it; at width 1 this is the plain serial loop.

    The processes take the items one at a time (`_taken`), each up to
    its first exception; a child pickles what it finished and that
    exception through its own pipe, and one that dies first leaves the
    pipe empty, which raises.  All finished results are yielded, then a
    held SearchIncomplete is raised: the processes share one deadline,
    so the caller waits for the children only until they reach it.  Any
    other exception, in a child or in the caller, goes on at once, after
    every child still running is killed and reaped."""
    if width <= 1:
        yield from map(task, items)
        return
    pids: list[int] = []
    pipes: list[int] = []
    tasks, fill = os.pipe()
    try:
        with open(fill, "wb", buffering=0) as out:
            os.set_blocking(fill, False)  # too long a list fails, not blocks
            index = b"".join(i.to_bytes(4, "little") for i in range(len(items)))
            if out.write(index) != len(index):
                raise ValueError(f"{len(items)} tasks do not fit in the task pipe")
        for _ in range(1, width):
            r, w = os.pipe()
            pipes.append(r)
            pid = os.fork()
            if pid == 0:
                _child(task, _taken(items, tasks), pipes, w)
            os.close(w)
            pids.append(pid)
        stop = None
        try:
            for item in _taken(items, tasks):
                yield task(item)
        except SearchIncomplete as exc:
            stop = exc
        for pid, r in zip(list(pids), pipes):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            if not data:
                raise RuntimeError(
                    f"search worker {pid} exited with code "
                    f"{os.waitstatus_to_exitcode(status)} before it reported")
            done, exc, trace = pickle.loads(data)
            yield from done
            if isinstance(exc, SearchIncomplete):
                stop = stop or exc
            elif exc is not None:
                raise exc from RuntimeError(f"in search worker {pid}:\n{trace}")
        if stop is not None:
            raise stop
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (*pipes, tasks):
            os.close(fd)


def _taken(items, tasks: int):
    """The items this process takes: each 4-byte read of the task pipe
    is one item's index, in order, and end of file means none is left.
    Filled and closed for writing before the first fork, the pipe gives
    no item to two processes and makes none wait on another."""
    while index := os.read(tasks, 4):
        yield items[int.from_bytes(index, "little")]


def _child(task, items, pipes: list[int], w: int) -> None:
    """A forked worker: run task on items up to the first exception,
    write (results, exception or None, its traceback) to fd w and exit,
    never returning into the caller's frames."""
    code = 1
    try:
        for r in pipes:
            os.close(r)
        done, exc, trace = [], None, ""
        try:
            for item in items:
                done.append(task(item))
        except Exception as err:
            import traceback  # deferred: only a failing worker needs it
            exc, trace = err, traceback.format_exc()
        data = pickle.dumps((done, exc, trace))  # a failure here writes nothing
        with open(w, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def extremal_number(n: int, pattern: Graph | Pattern,
                    family: ForbiddenFamily, budget: SearchBudget | None = None,
                    *, require_planar: bool = True,
                    require_connected: bool = False,
                    use_cache: bool = True) -> ExtremalRecord:
    """Exact maximum of the pattern count over every (planar) family-free
    graph on n vertices, with all maximizing classes as witnesses.

    A `parallel_width` above 1 forks workers, so it needs `os.fork` and
    is refused where there is none, or when the caller runs other
    threads, which a fork would not copy.  An incomplete record folds
    every trunk task that some process finished before the deadline."""
    budget = budget or SearchBudget()
    _check_n(n, budget)
    if budget.parallel_width > 1 and not hasattr(os, "fork"):
        raise ValueError("parallel_width > 1 forks workers, and os.fork is "
                         "not available on this platform; use width 1")
    if budget.parallel_width > 1 and threading.active_count() > 1:
        raise ValueError(f"parallel_width > 1 forks workers, and this process "
                         f"runs {threading.active_count()} threads, of which a "
                         f"fork copies only the calling one; use width 1")
    if isinstance(pattern, Graph):
        pattern = Pattern.from_graph(pattern)
    # The cache record holds neither the connectivity filter nor extra
    # patterns, so such searches are never cached.
    use_cache = (use_cache and not require_connected
                 and not family.extra_patterns)
    cached = _cache_lookup(n, pattern, family, require_planar) if use_cache else None
    if cached is not None:
        _recertify(cached, require_planar)
        return cached
    start = time.monotonic()
    deadline = _deadline(budget)

    # Serial trunk to level n-2, then one task per trunk graph for the
    # final two augmentation levels plus counting.
    split = max(1, n - 2)
    task = partial(_subtree_task, steps=n - split, family=family,
                   require_planar=require_planar,
                   require_connected=require_connected, pattern=pattern,
                   deadline=deadline)
    explored = 0
    best = -1
    found: list[Graph] = []
    status = "complete"
    try:
        trunk = list(_grow(empty_graph(1), split - 1, family, require_planar,
                           False, deadline))
        width = min(budget.parallel_width, len(trunk))
        for sub_explored, sub_best, sub_found in _fan_out(task, trunk, width):
            explored += sub_explored
            if sub_best > best:
                best = sub_best
                found = sub_found
            elif sub_best == best:
                found.extend(sub_found)
    except SearchIncomplete:
        status = "incomplete"

    best = max(best, 0)  # -1 means no class was scanned, so found is empty
    witnesses = tuple(sorted({canonical_form(g) for g in found}))
    record = ExtremalRecord(n, pattern, family, best, witnesses, explored,
                            time.monotonic() - start, status)
    if status == "complete":
        _recertify(record, require_planar)
        if use_cache:
            _cache_store(record, require_planar)
    return record


def _recertify(record: ExtremalRecord, require_planar: bool) -> None:
    for form in record.witnesses:
        g = form.as_graph()
        ok = (is_family_free(g, record.family)
              and (not require_planar or is_planar(g).is_planar)
              and count_copies(record.pattern, g) == record.max_count)
        if not ok:
            raise RuntimeError(f"witness failed re-certification: {to_graph6(g)}")


# ======================================================================
# JSON-lines cache and record serialization
# ======================================================================

def record_to_json(record: ExtremalRecord, require_planar: bool = True) -> dict:
    return {
        "n": record.n,
        "pattern": to_graph6(record.pattern.graph),
        "pattern_name": record.pattern.name,
        "family": list(record.family.sorted_lengths),
        "require_planar": require_planar,
        "max_count": record.max_count,
        "witnesses": [to_graph6(f.as_graph()) for f in record.witnesses],
        "graphs_explored": record.graphs_explored,
        "elapsed": record.elapsed,
        "status": record.status,
    }


def record_from_json(data: dict) -> ExtremalRecord:
    pattern = Pattern.from_graph(from_graph6(data["pattern"]),
                                 data.get("pattern_name"))
    family = ForbiddenFamily(frozenset(data["family"]))
    witnesses = tuple(sorted(canonical_form(from_graph6(s))
                             for s in data["witnesses"]))
    return ExtremalRecord(data["n"], pattern, family, data["max_count"],
                          witnesses, data["graphs_explored"],
                          data["elapsed"], data["status"])


def _cache_file() -> str | None:
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{CACHE_ENV}={root!r} is not a usable cache "
                         f"directory: {exc}") from exc
    return os.path.join(root, "extremal.jsonl")


def _cache_key(n: int, pattern: Pattern, family: ForbiddenFamily,
               require_planar: bool) -> tuple:
    return (n, to_graph6(canonical_form(pattern.graph).as_graph()),
            family.sorted_lengths, require_planar)


def _cache_lookup(n: int, pattern: Pattern, family: ForbiddenFamily,
                  require_planar: bool) -> ExtremalRecord | None:
    path = _cache_file()
    if path is None or not os.path.exists(path):
        return None
    want = _cache_key(n, pattern, family, require_planar)
    with open(path, encoding="ascii") as fh:
        for line in fh:
            try:
                data = json.loads(line)
                got = (data["n"],
                       to_graph6(canonical_form(from_graph6(data["pattern"])).as_graph()),
                       tuple(data["family"]), data["require_planar"])
                if got == want and data["status"] == "complete":
                    return record_from_json(data)
            except (ValueError, KeyError, TypeError):
                continue  # blank, torn or foreign line: the search recomputes it
    return None


def _cache_store(record: ExtremalRecord, require_planar: bool) -> None:
    path = _cache_file()
    if path is None:
        return
    with open(path, "a", encoding="ascii") as fh:
        fh.write(json.dumps(record_to_json(record, require_planar),
                            sort_keys=True) + "\n")
