"""Exhaustive reference implementations used as oracles.

Nothing here is clever on purpose: each function is the transparent,
factorial-cost version of an operation that the main modules implement
with pruning or smarter data structures.  Tests and `verify` claims
compare the two sides; keep these independent of the optimized code
paths.  Edges are probed on the host's bit rows (`bits[a] >> b & 1`).

`count_copies_brute` lists the labelled copies of h on the points
0..k-1: the image of E(h) under each of the k! permutations, ORed edge
by edge into a bitmask of point pairs, each image kept once.  A
k-subset of host vertices, listed in increasing order, names its
vertices 0..k-1, so its copies are exactly the labelled copies that its
induced pair mask contains.  One sound skip is allowed: a subset whose
induced edges < |E(h)| holds no copy, since every copy on it has
exactly |E(h)| edges, all inside it.  The copies, and how many lie
inside each induced mask met, depend on h alone, so a bounded cache
keyed by the immutable graph h keeps them; like everything here, they
borrow nothing from `counting`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .graph import Graph
from .params import BetaWitness


def are_isomorphic_brute(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    # with equal edge counts, a bijection that maps every edge of g to
    # an edge of h maps the edge sets onto each other
    hbits = h.bits
    return any(all(hbits[perm[u]] >> perm[v] & 1 for u, v in g.edges)
               for perm in permutations(range(g.n)))


def automorphism_count_brute(g: Graph) -> int:
    """Vertex permutations that map every edge to an edge; a permutation
    is a bijection on vertex pairs, so these preserve the edge set."""
    bits = g.bits
    return sum(1 for perm in permutations(range(g.n))
               if all(bits[perm[u]] >> perm[v] & 1 for u, v in g.edges))


def count_cycles_brute(g: Graph, k: int) -> int:
    """Count k-cycles by labeled closed walks; each cycle appears 2k times."""
    if k < 3 or g.n < k:
        return 0
    bits = g.bits
    total = 0
    for seq in permutations(range(g.n), k):
        prev = seq[-1]  # the closing edge is probed first
        for w in seq:
            if not bits[prev] >> w & 1:
                break
            prev = w
        else:
            total += 1
    assert total % (2 * k) == 0
    return total // (2 * k)


@lru_cache(maxsize=256)
def _labelled_copies(h: Graph) -> tuple[list, set[int], dict[int, int]]:
    """The point pairs (i, j, pair bit), h's labelled copies as pair
    masks, and h's own memo of the copies inside each induced mask."""
    k = h.n
    pair = [[1 << (min(a, b) * k + max(a, b)) for b in range(k)]
            for a in range(k)]
    shapes = set()
    for p in permutations(range(k)):
        image = 0
        for u, v in h.edges:
            image |= pair[p[u]][p[v]]
        shapes.add(image)
    local = [(i, j, pair[i][j]) for i, j in combinations(range(k), 2)]
    return local, shapes, {}


def count_copies_brute(h: Graph, g: Graph) -> int:
    """Count subgraphs of g isomorphic to h, as distinct (vertices, edges) sets.

    The distinct images of E(h) under the permutations of 0..k-1, with
    k = |V(h)|, are h's labelled copies on k points.  Each k-subset of
    g with induced edges >= |E(h)| adds the labelled copies inside its
    induced edges, its vertices named 0..k-1 in increasing order.  The
    vertex image is the whole subset, so copies that differ only in
    isolated-vertex placement lie on different subsets.  No automorphism
    division is involved, which keeps this independent of the
    embedding-count route.
    """
    k = h.n
    if k > g.n:
        return 0
    local, shapes, contained = _labelled_copies(h)
    need = h.edge_count
    bits = g.bits
    total = 0
    for subset in combinations(range(g.n), k):
        induced = 0
        for i, j, bit in local:
            if bits[subset[i]] >> subset[j] & 1:
                induced |= bit
        if induced.bit_count() < need:
            continue  # the sound skip of the module docstring
        inside = contained.get(induced)
        if inside is None:
            inside = contained[induced] = sum(1 for s in shapes
                                              if s & induced == s)
        total += inside
    return total


def count_paths_brute(g: Graph, u: int, v: int, k: int) -> int:
    """Paths with exactly k edges from u to v, by enumerating internals."""
    if u == v:
        raise ValueError("endpoints must differ")
    if k == 0:
        return 0
    if k == 1:
        return 1 if g.has_edge(u, v) else 0
    bits = g.bits
    others = [w for w in range(g.n) if w != u and w != v]
    total = 0
    for internals in permutations(others, k - 1):
        prev = u
        for w in internals + (v,):
            if not bits[prev] >> w & 1:
                break
            prev = w
        else:
            total += 1
    return total


def beta_brute(h: Graph, i: int) -> BetaWitness:
    """beta by its definition: every subset of the degree-<=2 vertices, in
    include-first order over ascending ids, whose induced components are
    each a singleton of degree <= 1 in h or a path on exactly i vertices
    of degree 2 in h.  The first subset with the most components wins."""
    eligible = [v for v in range(h.n) if h.degree(v) <= 2]
    best = BetaWitness(0, ())
    for code in range((1 << len(eligible)) - 1, -1, -1):
        if code.bit_count() <= best.value:
            continue  # no more components than vertices
        chosen = sum(1 << v for k, v in enumerate(reversed(eligible)) if code >> k & 1)
        comps = []
        rest = chosen
        while rest:
            comp = rest & -rest
            grown = 0
            while grown != comp:
                grown = comp
                for v in _members(comp):
                    comp |= h.bits[v] & chosen
            comps.append(comp)
            rest &= ~comp
        if len(comps) > best.value and all(_beta_piece(h, c, i) for c in comps):
            best = BetaWitness(len(comps), tuple(sorted(_members(c) for c in comps)))
    return best


def _members(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _beta_piece(h: Graph, comp: int, i: int) -> bool:
    members = _members(comp)
    if len(members) == 1 and h.degree(members[0]) <= 1:
        return True
    degree_sum = sum((h.bits[v] & comp).bit_count() for v in members)
    # connected with |comp| - 1 edges and every degree 2 in h: a path
    return (len(members) == i and degree_sum == 2 * (i - 1)
            and all(h.degree(v) == 2 for v in members))


# ======================================================================
# Kuratowski-style planarity oracle: exhaustive search for a K5 or
# K3,3 subdivision.  Correct for any graph, practical for <= 8 or so
# vertices.
# ======================================================================

def _paths_between(g: Graph, a: int, b: int, allowed_mask: int):
    """Yield internal-vertex masks of a->b paths whose internals lie in
    allowed_mask.  The direct edge contributes the empty mask."""
    if g.has_edge(a, b):
        yield 0

    def rec(cur: int, used: int):
        for w in g.adj[cur]:
            if w == b:
                if used:
                    yield used
            elif allowed_mask >> w & 1 and not used >> w & 1:
                yield from rec(w, used | 1 << w)

    yield from rec(a, 0)


def _place_paths(g: Graph, pairs: list[tuple[int, int]], i: int,
                 free_mask: int) -> bool:
    if i == len(pairs):
        return True
    a, b = pairs[i]
    for internals in _paths_between(g, a, b, free_mask):
        if _place_paths(g, pairs, i + 1, free_mask & ~internals):
            return True
    return False


def has_k5_subdivision(g: Graph) -> bool:
    if g.n < 5:
        return False
    eligible = [v for v in range(g.n) if g.degree(v) >= 4]
    full = (1 << g.n) - 1
    for branch in combinations(eligible, 5):
        pairs = [(a, b) for a, b in combinations(branch, 2)]
        branch_mask = sum(1 << v for v in branch)
        if _place_paths(g, pairs, 0, full & ~branch_mask):
            return True
    return False


def has_k33_subdivision(g: Graph) -> bool:
    if g.n < 6:
        return False
    eligible = [v for v in range(g.n) if g.degree(v) >= 3]
    full = (1 << g.n) - 1
    for six in combinations(eligible, 6):
        rest = set(six)
        first = six[0]
        rest.discard(first)
        for two in combinations(sorted(rest), 2):
            left = (first,) + two
            right = tuple(sorted(rest - set(two)))
            pairs = [(a, b) for a in left for b in right]
            branch_mask = sum(1 << v for v in six)
            if _place_paths(g, pairs, 0, full & ~branch_mask):
                return True
    return False


def is_planar_by_subdivision(g: Graph) -> bool:
    """Kuratowski: planar iff no K5 and no K3,3 subdivision."""
    return not (has_k5_subdivision(g) or has_k33_subdivision(g))
