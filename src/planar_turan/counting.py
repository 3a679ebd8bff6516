"""Copy, embedding and path counts.

Copies of a pattern h in a host g are subgraphs of g isomorphic to h.
count_copies is the one place that picks the counter: a cycle pattern
C_k goes to the cycle walker (`cycles.count_cycles`); any other pattern
is counted as injective homomorphisms by backtracking in a
connectivity-first vertex order with bitmask candidate filtering, then
divided by |Aut(h)|.

A `Pattern` is a pattern compiled once for all the hosts it is counted
in: its automorphism count, its cycle length and any other pattern's
embedding plan; `count_copies` compiles a bare graph on entry.

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

The plain injective-homomorphism counter, its oracle, walks pattern
vertices in id order over the unused host vertices with no candidate
masks, probing edges on the host's bit rows, and compiles nothing, so
the two sides share no plan and no pruning logic and can cross-check
each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import perm
from typing import NamedTuple

from .canonical import automorphism_count
from .cycles import ForbiddenFamily, count_cycles, is_family_free, path_row
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
        return cls(g, automorphism_count(g), name)


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
    """Number of subgraphs of g isomorphic to h.  A cycle pattern is
    counted by the cycle walker with no automorphism count, so a bare
    cycle is not compiled; any other bare graph is compiled on entry."""
    if isinstance(h, Graph):
        if _cycle_length(h):
            return count_cycles(g, h.n)
        h = Pattern.from_graph(h)
    if h.cycle_length:
        return count_cycles(g, h.cycle_length)
    embeddings = _count_embeddings(h.graph, h.plan, g)
    assert embeddings % h.automorphisms == 0, "|Aut| must divide embeddings"
    return embeddings // h.automorphisms


def count_injective_homs(h: Graph, g: Graph) -> int:
    """Injective edge-preserving maps V(h) -> V(g), vertices in id order.

    Each pattern vertex walks the unused host vertices by bit, with no
    candidate masks, and keeps one adjacent in g to the images of all
    its lower-id neighbours; the last pattern vertex adds one for each
    host vertex it keeps, with no further call.  As the oracle of
    `_count_embeddings` it compiles nothing and shares no plan with it.
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
        total = 0
        free = full & ~used
        while free:
            low = free & -free
            free ^= low
            w = low.bit_length() - 1
            for u in earlier[v]:
                if not bits[images[u]] >> w & 1:
                    break
            else:
                if v == last:
                    total += 1
                else:
                    images[v] = w
                    total += rec(v + 1, used | low)
        return total

    return rec(0, 0)


def has_injective_hom(h: Graph, g: Graph) -> bool:
    """Early-exit variant: does g contain a copy of h at all?"""
    return _count_embeddings(h, _plan(h), g, stop_at_first=True) > 0


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
