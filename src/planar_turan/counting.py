"""Copy, embedding and path counts.

Copies of a pattern h in a host g are subgraphs of g isomorphic to h.
A `Pattern`, h compiled once, is the one place that picks the counter:
a cycle C_k goes to the cycle walker (`cycles`), any other pattern is
counted as injective homomorphisms by backtracking in a
connectivity-first vertex order with bitmask candidate filtering, then
divided by |Aut(h)|.  The same choice scores a search parent's children
(`Pattern.count_children`) and tests a host for a forbidden pattern
(`Pattern.occurs_in`).  `count_copies` compiles a bare graph on entry.

The end of the order is counted, not walked.  Its trailing run of t
vertices whose placed neighbours are the same list S is closed in one
step: the backtrack stops at the run's first vertex and adds the falling
factorial P(|common host neighbourhood of the images of S minus the used
vertices|, t).  This is exact.  Two run members cannot be adjacent (the
later one would list the earlier one in S), and the run ends the order,
so each member's neighbours are exactly S and the members need only be
distinct common neighbours; each such candidate has host degree at
least |S|, its pattern degree, so no degree filter applies.  A star
K1,t is therefore one pass over the host vertices, Sum_v P(deg v, t);
K2,t is one pass over the host vertex pairs (a, b) through each common
neighbour x, adding P(|N(a) & N(b)| - 1, t - 1); and trailing isolated
vertices close on the unused host vertices.

The plain injective-homomorphism counter, its oracle, places pattern
vertices in id order, each on the unused host vertices adjacent to the
images of its lower-id neighbours (an AND of host bit rows), and counts
the last vertex's candidates.  It compiles nothing: no plan, no degree
filter, no closing run, so the two sides share only that AND and can
cross-check each other; `bruteforce.count_copies_brute` shares nothing
with either and guards both.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from math import perm
from typing import NamedTuple

from .canonical import automorphism_count
from .cycles import (ForbiddenFamily, count_cycles, has_cycle, is_family_free,
                     path_row)
from .graph import Graph, is_connected
from .graph6 import to_graph6


class _Plan(NamedTuple):
    """Position i of the walk places pattern vertex order[i], of degree
    degrees[i], next to the positions placed[i]; tail.. is the run."""

    order: tuple[int, ...]
    placed: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    tail: int


def _plan(h: Graph) -> _Plan:
    """Max-connectivity-first static order: most already-placed neighbors,
    ties broken by higher degree then lower id; the trailing run is the
    longest suffix whose placed neighbours are the last vertex's."""
    remaining = set(range(h.n))
    order: list[int] = []
    done = 0
    while remaining:
        best = max(remaining, key=lambda v: (
            (h.bits[v] & done).bit_count(), h.degree(v), -v))
        order.append(best)
        remaining.discard(best)
        done |= 1 << best
    rank = {v: i for i, v in enumerate(order)}
    placed = tuple(tuple(sorted(rank[w] for w in h.adj[v] if rank[w] < i))
                   for i, v in enumerate(order))
    tail = h.n - 1
    while tail > 0 and placed[tail - 1] == placed[-1]:
        tail -= 1
    return _Plan(tuple(order), placed, tuple(h.degree(v) for v in order), tail)


def _cycle_length(h: Graph) -> int:
    """k when h is the cycle C_k: k >= 3, every degree 2, connected (a
    disjoint union of cycles is 2-regular too); else 0."""
    is_cycle = (h.n >= 3 and h.edge_count == h.n
                and all(len(row) == 2 for row in h.adj) and is_connected(h))
    return h.n if is_cycle else 0


@dataclass(frozen=True)
class Pattern:
    """A pattern graph compiled once: its automorphism count, its cycle
    length (k for C_k, else 0) and any other pattern's embedding plan,
    the last two left out of equality since they follow from `graph`."""

    graph: Graph
    automorphisms: int
    name: str | None = None
    cycle_length: int = field(init=False, compare=False, repr=False)
    plan: _Plan | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        k = _cycle_length(self.graph)
        object.__setattr__(self, "cycle_length", k)
        object.__setattr__(self, "plan", None if k else _plan(self.graph))

    @classmethod
    def from_graph(cls, g: Graph, name: str | None = None) -> Pattern:
        # |Aut C_k| = 2k, the dihedral group: no search, no vertex cap
        return cls(g, 2 * _cycle_length(g) or automorphism_count(g), name)

    def occurs_in(self, g: Graph) -> bool:
        """True when g contains a copy of the pattern; stops at the first."""
        if self.cycle_length:
            return has_cycle(g, self.cycle_length)
        return _count_embeddings(self.graph, self.plan, g,
                                 stop_at_first=True) > 0

    def count_children(self, parent: Graph,
                       children: list[Graph]) -> Iterable[int]:
        """The count in each child, a child being `parent` plus a new
        vertex joined to the mask children[i].bits[-1].  C_k is counted
        from the parent once for all its children, and not at all with
        none: a k-cycle through the new vertex v is v, a, a path of k - 2
        edges in the parent, b, v with a and b in the mask, so a child
        adds to the parent's count its paths between each pair of the
        mask (`path_row`).  Any other pattern is counted in each child
        as it is read."""
        k = self.cycle_length
        if not k:
            return (count_copies(self, child) for child in children)
        if not children:
            return []
        base = count_cycles(parent, k)
        rows = [path_row(parent, a, k - 2) for a in range(parent.n)]
        counts = []
        for child in children:
            mask = child.bits[-1]
            c = base
            while mask:
                bit = mask & -mask
                mask ^= bit
                row = rows[bit.bit_length() - 1]
                rest = mask  # the vertices of the mask above this one
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c += row[low.bit_length() - 1]
            counts.append(c)
        return counts


@dataclass(frozen=True)
class EmpiricalBound:
    quantity_name: str
    observed_max: int
    parameters: dict[str, int]
    witness_graph6: str | None = None
    witness_pair: tuple[int, int] | None = None


def _count_embeddings(h: Graph, plan: _Plan, g: Graph,
                      stop_at_first: bool = False) -> int:
    """Injective homomorphisms h -> g along h's `plan`, or with
    `stop_at_first` a positive number as soon as one is found (0 when
    there is none)."""
    if h.n > g.n or h.edge_count > g.edge_count:
        return 0
    if h.n == 0:
        return 1
    placed, hdeg, tail = plan.placed, plan.degrees, plan.tail
    run = h.n - tail
    gbits = g.bits
    gdeg = [len(row) for row in g.adj]
    full = (1 << g.n) - 1
    images = [0] * h.n  # host vertex at each position

    def rec(i: int, used: int) -> int:
        cand = full & ~used
        for p in placed[i]:
            cand &= gbits[images[p]]
        if i == tail:
            return perm(cand.bit_count(), run)
        need = hdeg[i]
        total = 0
        m = cand
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            if gdeg[w] >= need:
                images[i] = w
                total += rec(i + 1, used | low)
                if stop_at_first and total:
                    return total
        return total

    return rec(0, 0)


def count_copies(h: Graph | Pattern, g: Graph) -> int:
    """Number of subgraphs of g isomorphic to h, a bare graph compiled
    on entry."""
    if isinstance(h, Graph):
        h = Pattern.from_graph(h)
    if h.cycle_length:
        return count_cycles(g, h.cycle_length)
    embeddings = _count_embeddings(h.graph, h.plan, g)
    assert embeddings % h.automorphisms == 0, "|Aut| must divide embeddings"
    return embeddings // h.automorphisms


def count_injective_homs(h: Graph, g: Graph) -> int:
    """Injective edge-preserving maps V(h) -> V(g), vertices in id order.

    Each pattern vertex's candidates are one mask, the unused host
    vertices ANDed with the host rows of its lower-id neighbours'
    images; the last pattern vertex adds its candidates' count, with no
    further call.  As the oracle of `_count_embeddings` it compiles
    nothing and shares no plan, degree filter or closing run with it.
    """
    if h.n > g.n:
        return 0
    if h.n == 0:
        return 1
    bits = g.bits
    earlier = [[u for u in h.adj[v] if u < v] for v in range(h.n)]
    last = h.n - 1
    full = (1 << g.n) - 1
    images = [-1] * h.n

    def rec(v: int, used: int) -> int:
        cand = full & ~used
        for u in earlier[v]:
            cand &= bits[images[u]]
        if v == last:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            images[v] = low.bit_length() - 1
            total += rec(v + 1, used | low)
        return total

    return rec(0, 0)


def count_paths_between(g: Graph, u: int, v: int, k: int) -> int:
    """Simple paths from u to v with exactly k edges: the paths of k - 1
    edges from u that avoid v (`cycles.path_row`), summed over N(v)."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoint out of range")
    if u == v:
        raise ValueError("endpoints must be distinct")
    if k <= 1:
        return int(k == 1 and g.has_edge(u, v))
    row = path_row(g, u, k - 1, 1 << v)
    return sum(row[w] for w in g.adj[v])


def probe_bounded_paths(graphs, ell: int, k: int) -> EmpiricalBound:
    """Max of count_paths_between(g, u, v, k) over all pairs in a stream of
    graphs that must avoid even cycles of length <= 2*ell, read off one
    `path_row` per source; the first maximizing pair in (a, b) order is
    the witness."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not 1 <= k <= ell:
        raise ValueError(f"need 1 <= k <= ell, got k={k}, ell={ell}")
    family = ForbiddenFamily.even_cycles_through(ell)
    best = -1
    best_graph: Graph | None = None
    best_pair: tuple[int, int] | None = None
    instances = 0
    for g in graphs:
        instances += 1
        if not is_family_free(g, family):
            raise ValueError(
                f"probe instance {instances} contains a forbidden even cycle "
                f"(family C4..C{2 * ell})")
        for a in range(g.n - 1):
            row = path_row(g, a, k)
            for b in range(a + 1, g.n):
                if row[b] > best:
                    best, best_graph, best_pair = row[b], g, (a, b)
    if instances == 0:
        raise ValueError("empty probe stream")
    if best_graph is None:
        raise ValueError("no graph in the probe stream has two vertices")
    return EmpiricalBound(
        quantity_name=f"max-paths-length-{k}",
        observed_max=best,
        parameters={"ell": ell, "k": k, "instances": instances},
        witness_graph6=to_graph6(best_graph) if best_graph.n <= 258047 else None,
        witness_pair=best_pair)
