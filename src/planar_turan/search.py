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
search when the cell is the new vertex alone.  Refinement orders cells
by degree first, so a new vertex of strictly greatest degree is that
cell alone, and its child is accepted with no refinement at all.  Any
other partition is refined from the child's bit rows, the parent's rows
plus the mask, so a child is built as a `Graph` only when it survives
this test; only the undecided rest get a full `canonical_search`,
started from that partition and from automorphisms known already:
every parent generator that maps the mask onto itself, extended by
n -> n, is an automorphism of the child, and the search prunes with it
from the start; the form and the positions, and so the parent test,
are the same as unseeded.  The generators of Aut(child) that this
search returns, those known included, go down with the child, so its
own expansion does not search it again for its mask orbits; the
parent test closes the orbit of the new vertex under them
(`orbits_of`).  Children are kept as built, so the enumeration yields
each class exactly once in a deterministic order, but not in canonical
labelling and not sorted per parent.

Planarity and forbidden cycles are hereditary under vertex deletion, so
pruning during augmentation is sound, and each test runs at the cheapest
point.  Only the masks that close no forbidden cycle through the new
vertex are listed; the planar edge bound and the degree of the vertex
at the last canonical position are checked on them before a child is
built.  These filters are invariant under Aut(parent), so the masks
kept are a union of its orbits, and the automorphisms are applied to
them alone, not to all 2^n subsets: walked in increasing order, a mask
not yet reached is the least of its orbit, and applying the generators
until nothing new is reached marks the rest of that orbit.  Planarity
runs only on children that pass the orbit test, and a mask that
contains one whose child is not planar is dropped before it is refined:
adding edges keeps a graph non-planar.

Disconnected graphs are part of the search space: the extremal maximum
quantifies over all graphs on n vertices, not only connected ones.

Every search is one walk down the augmentation tree, `_grow`, from the
empty graph, whose only child is K1.  `extremal_number` takes from it
the trunk, every class two vertices short of n, in the calling process;
one task per trunk graph then walks the last two levels, and `_grow`
scores the last level as it expands it.  A cycle pattern C_k is scored
on the last level from the parent: every k-cycle through the new vertex v
is v, a, a path of k - 2 edges in the parent, b, v, with a and b in the
mask, so a child's count is its parent's plus, over the unordered pairs
of its mask, the parent's path count between them, from one table per
parent.  `_recertify` recounts every witness with `count_copies`, so
each reported maximum has two routes.  `_fan_out` shares the tasks
between the caller and `parallel_width - 1` children forked from it,
which share the trunk instead of receiving it pickled.  Every task
index is in a pipe before the first fork and each process only reads
from it, so a process that dies holding a task makes the caller raise
instead of leaving the others waiting.  One fold, `_fold`, sums the
leaves of a task and then the results of the tasks (sum, max, witness
set, sorted in the record); it does not depend on their order, so the
record is the same at every width.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial

from .canonical import (CanonicalForm, Generators, canonical_form,
                        canonical_search, orbits_of, root_partition)
from .counting import Pattern, count_copies
from .cycles import (EMPTY_FAMILY, ForbiddenFamily, closing_partners,
                     count_cycles, is_family_free, path_table)
from .graph import Graph, empty_graph, is_connected
from .graph6 import to_graph6
from .planarity import is_planar

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
    require_planar: bool = True
    require_connected: bool = False


# ======================================================================
# Canonical augmentation
# ======================================================================

def _orbit_least(masks: list[int], generators: Generators) -> list[int]:
    """The least mask of each orbit of the group that `generators`
    generate, on `masks`: a union of its orbits, in increasing order.
    Each mask not yet reached is kept, and its orbit is reached by
    applying the generators until it is closed.  An image outside
    `masks` raises KeyError."""
    members = set(masks)
    perms = []
    for p in generators:
        moved = [(1 << v, 1 << w) for v, w in enumerate(p) if v != w]
        still = sum(1 << v for v, w in enumerate(p) if v == w)
        perms.append((moved, still))
    reached: set[int] = set()
    kept = []
    for m in masks:
        if m in reached:
            continue
        kept.append(m)
        reached.add(m)
        orbit = [m]
        while orbit:
            x = orbit.pop()
            for moved, still in perms:
                image = x & still
                for a, b in moved:
                    if x & a:
                        image |= b
                if image not in reached:
                    if image not in members:
                        raise KeyError(image)
                    reached.add(image)
                    orbit.append(image)
    return kept


def _accepted_children(parent: Graph, generators: Generators | None,
                       family: ForbiddenFamily, require_planar: bool
                       ) -> list[tuple[Graph, Generators | None]]:
    """The constrained one-vertex extensions of `parent` whose canonical
    parent it is, each class once, as built: the parent's labels plus
    the new vertex n, in mask order.  Each comes with generators of its
    automorphism group when its parent test found them, else None;
    `generators` are the parent's, or None to search for them here.

    Cheapest test first.  Only the attachment masks that close no
    forbidden cycle are listed, and those that break the planar edge
    bound or leave the new vertex short of maximum degree are dropped
    before any child is built.  The rest are a union of Aut(parent)
    orbits, and the least mask of each orbit survives.  With
    `require_planar`, a mask that contains one whose child was found
    non-planar is dropped too.  A new vertex of strictly greatest degree
    is alone in the child's last root cell, so it is accepted at once;
    any other mask gives the child's bit rows, and their root partition
    is refined once: n outside its last cell rejects the child before
    any `Graph` exists.  Only then is the child built, checked for extra
    patterns, and its parent test finished: accepted when the last cell
    is {n}, otherwise by one canonical search from that partition,
    whose generators go with the child.  Each parent generator that maps
    the mask onto itself, extended by n -> n, is an automorphism of the
    child, so that search starts with them as known: the form, the
    positions and so the parent test are the same as unseeded, and the
    generators that go with the child include them.  Planarity runs only
    on accepted children.
    """
    n = parent.n
    partners = closing_partners(parent, family)
    # e <= 3v - 6 for planar graphs on v >= 3 vertices
    max_attach = (3 * (n + 1) - 6 - parent.edge_count
                  if require_planar and n >= 2 else n)
    # the masks that close no forbidden cycle, in increasing order: each
    # is a smaller one plus its highest vertex
    free = [0]
    for high in range(n):
        free += [rest | 1 << high for rest in free if not partners[high] & rest]
    # The vertex at the last canonical position has maximum degree, so
    # the new vertex needs at least as many neighbours as any old vertex
    # and one more than an old vertex of top degree that it joins.
    top = max((len(row) for row in parent.adj), default=0)
    at_top = sum(1 << v for v in range(n) if len(parent.adj[v]) == top)
    masks = [m for m in free if top <= m.bit_count() <= max_attach
             and not (m.bit_count() == top and m & at_top)]
    if len(masks) > 1:
        if generators is None:
            _, _, generators = canonical_search(parent)
        if generators:
            masks = _orbit_least(masks, generators)
    accepted: list[tuple[Graph, Generators | None]] = []
    dead: list[int] = []  # masks whose child is not planar
    bits = parent.bits
    for mask in masks:
        # a graph with a non-planar subgraph is not planar
        if any(mask & d == d for d in dead):
            continue
        # McKay's criterion: the new vertex n must lie in the Aut(child)
        # orbit of the vertex at the last canonical position.  That vertex
        # and its orbit lie in the last root cell, which often decides.
        # Refinement orders cells by degree first, so a new vertex of
        # strictly greatest degree is that cell alone.
        cells = None
        if mask.bit_count() <= top + bool(mask & at_top):
            rows = tuple(row | 1 << n if mask >> v & 1 else row
                         for v, row in enumerate(bits)) + (mask,)
            cells = root_partition(rows)
            if not cells[-1] >> n & 1:
                continue
        child = parent.with_vertex([i for i in range(n) if mask >> i & 1])
        if family.extra_patterns and not is_family_free(child, family):
            continue
        found = None
        if cells is not None and cells[-1] != 1 << n:
            seeds = tuple(p + (n,) for p in generators or ()
                          if all(mask >> p[v] & 1 for v in range(n)
                                 if mask >> v & 1))
            _, pos, found = canonical_search(child, cells, seeds)
            if not orbits_of(1 << n, found) >> pos.index(n) & 1:
                continue
        if require_planar and not is_planar(child).is_planar:
            dead.append(mask)
            continue
        accepted.append((child, found))
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


def _grow(node: tuple[Graph, Generators | None], steps: int,
          family: ForbiddenFamily, require_planar: bool,
          require_connected: bool, pattern: Pattern | None,
          deadline: float | None):
    """Yield (graph, generators or None, count or None) for the
    descendants of `node`, a (graph, generators or None) pair, `steps`
    >= 1 vertices down, depth first (the order of building level by
    level too), only connected ones with `require_connected`.  The
    generators are those its parent test found; the count is that of
    `pattern`, None without one: a cycle pattern is counted on each last
    parent's children at once by `_cycle_counts`, any other by
    `count_copies`.  Raises SearchIncomplete once the deadline has
    passed, checked before each graph is extended or yielded."""
    _check(deadline)
    parent, generators = node
    children = _accepted_children(parent, generators, family, require_planar)
    if steps > 1:
        for child in children:
            yield from _grow(child, steps - 1, family, require_planar,
                             require_connected, pattern, deadline)
        return
    k = 0 if pattern is None else pattern.cycle_length
    if k and children:
        counts = _cycle_counts(parent, k, [c.bits[-1] for c, _ in children])
    for i, (child, found) in enumerate(children):
        _check(deadline)
        if require_connected and not is_connected(child):
            continue
        if k:
            count = counts[i]
        else:
            count = None if pattern is None else count_copies(pattern, child)
        yield child, found, count


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
    for g, _, _ in _grow((empty_graph(0), None), n, family, require_planar,
                         require_connected, None, _deadline(budget)):
        yield g


# ======================================================================
# Extremal numbers
# ======================================================================

def _subtree_task(node: tuple[Graph, Generators | None], *, steps: int,
                  family: ForbiddenFamily, require_planar: bool,
                  require_connected: bool, pattern: Pattern,
                  deadline: float | None) -> tuple[int, int, list[Graph]]:
    """Extend one trunk graph, given with its generators or None, by
    `steps` >= 1 vertices and fold the scored leaves: (explored,
    local_max, witnesses attaining local_max), local_max -1 for none."""
    leaves = _grow(node, steps, family, require_planar, require_connected,
                   pattern, deadline)
    return tuple(_fold([0, -1, []], ((1, c, [g]) for g, _, c in leaves)))


def _fold(total: list, parts) -> list:
    """Fold (explored, max, witnesses) triples into the list `total`
    of the same three, in place, so what was folded before an exception
    stays: the counts add up and the witness lists (taken over, not
    copied) of the greatest max join, in any order of `parts`."""
    for explored, best, found in parts:
        total[0] += explored
        if best > total[1]:
            total[1:] = best, found
        elif best == total[1]:
            total[2].extend(found)
    return total


def _cycle_counts(parent: Graph, k: int, masks: list[int]) -> list[int]:
    """The number of k-cycles of the child of `parent` with each mask:
    the parent's count plus, over the unordered pairs {a, b} of the
    mask, the parent's paths of k - 2 edges from a to b.  The parent is
    counted and walked once for all its children."""
    base = count_cycles(parent, k)
    table = path_table(parent, k - 2)
    counts = []
    for mask in masks:
        c = base
        while mask:
            bit = mask & -mask
            mask ^= bit
            row = table[bit.bit_length() - 1]
            rest = mask  # the vertices of the mask above this one
            while rest:
                low = rest & -rest
                rest ^= low
                c += row[low.bit_length() - 1]
        counts.append(c)
    return counts


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
                    # ignored; kept because perfbench/workloads.py passes it
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
    start = time.monotonic()
    deadline = _deadline(budget)

    # Serial trunk to level n-2, then one task per trunk graph for the
    # final two augmentation levels plus counting.
    split = max(0, n - 2)
    task = partial(_subtree_task, steps=n - split, family=family,
                   require_planar=require_planar,
                   require_connected=require_connected, pattern=pattern,
                   deadline=deadline)
    total = [0, -1, []]
    status = "complete"
    try:
        root = (empty_graph(0), None)
        trunk = [root] if split == 0 else [
            (g, gens) for g, gens, _ in _grow(root, split, family,
                                              require_planar, False, None,
                                              deadline)]
        width = min(budget.parallel_width, len(trunk))
        _fold(total, _fan_out(task, trunk, width))
    except SearchIncomplete:
        status = "incomplete"

    explored, best, found = total
    best = max(best, 0)  # -1 means no class was scanned, so found is empty
    witnesses = tuple(sorted({canonical_form(g) for g in found}))
    record = ExtremalRecord(n, pattern, family, best, witnesses, explored,
                            time.monotonic() - start, status,
                            require_planar, require_connected)
    if status == "complete":
        _recertify(record)
    return record


def _recertify(record: ExtremalRecord) -> None:
    for form in record.witnesses:
        g = form.as_graph()
        ok = (is_family_free(g, record.family)
              and (not record.require_planar or is_planar(g).is_planar)
              and (not record.require_connected or is_connected(g))
              and count_copies(record.pattern, g) == record.max_count)
        if not ok:
            raise RuntimeError(f"witness failed re-certification: {to_graph6(g)}")


# ======================================================================
# Record serialization
# ======================================================================

def record_to_json(record: ExtremalRecord) -> dict:
    return {
        "n": record.n,
        "pattern": to_graph6(record.pattern.graph),
        "pattern_name": record.pattern.name,
        "family": list(record.family.sorted_lengths),
        "require_planar": record.require_planar,
        "require_connected": record.require_connected,
        "max_count": record.max_count,
        "witnesses": [to_graph6(f.as_graph()) for f in record.witnesses],
        "graphs_explored": record.graphs_explored,
        "elapsed": record.elapsed,
        "status": record.status,
    }
