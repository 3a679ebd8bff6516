"""Structural parameters: beta, tree partition, degeneracy, and the
minimum edge degree sum.

beta(h, i) maximizes the number of components of an induced subgraph
whose components are only (a) single vertices of degree at most 1 in
h, or (b) paths on exactly i vertices all of degree 2 in h.  Vertices
of degree >= 3 never participate, and the degree-<=2 vertices induce
disjoint paths and cycles, the pieces.  No chosen component spans two
pieces, so beta is a sum over pieces.  Each path piece is one scan in
walk order (last vertex unchosen, a chosen singleton, or a chosen run
of length 1..i); a cycle piece is a whole component of h, and any i + 1
consecutive vertices of it hold an unchosen one, so it is scanned as a
path opened at each of those.

The witness is the lexicographically first optimal set: over the
degree-<=2 vertices in ascending id, each vertex is taken whenever
some optimum contains it and agrees with every earlier choice.  The
constructions build their hosts from this set, so it must not change.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, induced_subgraph, is_tree

_BETA_CAP = 24
_NONE = -(1 << 20)  # the count of an infeasible state; stays negative


@dataclass(frozen=True)
class BetaWitness:
    """Value of beta plus one realizing family of components."""

    value: int
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TreePartition:
    """The degree-based vertex partition of a tree used for path-forest
    reduction.

    leaves: degree <= 1.
    branch_vertices: degree >= 3.
    deep_degree_two: degree-2 vertices with no branch vertex within
        distance < ell.
    chain_middles: middle vertices of maximal degree-2 chains whose two
        endpoints both branch, with chain length in [ell+1, 2*ell-1];
        for odd-length chains the middle nearer the smaller endpoint
        label is taken.
    other_degree_two: remaining degree-2 vertices.
    path_forest: induced subgraph on leaves + deep_degree_two +
        chain_middles, relabeled densely; forest_vertices records the
        original ids in relabel order.
    """

    leaves: frozenset[int]
    branch_vertices: frozenset[int]
    deep_degree_two: frozenset[int]
    chain_middles: frozenset[int]
    other_degree_two: frozenset[int]
    path_forest: Graph
    forest_vertices: tuple[int, ...]


def beta(h: Graph, i: int) -> BetaWitness:
    """Maximum number of components over induced subgraphs whose components
    are degree-<=1 singletons or degree-2 paths on i vertices.  The witness
    is the lexicographically first optimal set: its 0/1 vector over the
    degree-<=2 vertices in ascending id is the greatest."""
    if i < 1:
        raise ValueError(f"beta index must be >= 1, got {i}")
    if h.n > _BETA_CAP:
        raise ValueError(f"beta search is capped at {_BETA_CAP} vertices (got {h.n})")
    total = 0
    mask = 0
    for seq, closed in _pieces(h):
        low = [h.degree(v) <= 1 for v in seq]
        force: list[bool | None] = [None] * len(seq)
        best = _piece_best(low, force, closed, i)
        # the lexicographic maximum of a product is the product of the
        # per-piece maxima, so each piece fixes its vertices greedily
        for pos in sorted(range(len(seq)), key=seq.__getitem__):
            force[pos] = True
            if _piece_best(low, force, closed, i) != best:
                force[pos] = False
            else:
                mask |= 1 << seq[pos]
        total += best
    return BetaWitness(total, _components_of_mask(h, mask))


def _pieces(h: Graph) -> list[tuple[list[int], bool]]:
    """The paths and cycles of h restricted to its degree-<=2 vertices, each
    in walk order with a flag for cycles.  Paths are walked from an end;
    the vertices left over lie on cycles, each a whole component of h."""
    nbrs = {v: [u for u in h.adj[v] if h.degree(u) <= 2]
            for v in range(h.n) if h.degree(v) <= 2}
    ends = [v for v, near in nbrs.items() if len(near) < 2]
    seen: set[int] = set()
    pieces = []
    for v in ends + list(nbrs):
        if v in seen:
            continue
        seq, prev = [v], v
        while nxt := [u for u in nbrs[seq[-1]] if u != prev and u != v]:
            prev = seq[-1]
            seq.append(nxt[0])
        seen.update(seq)
        pieces.append((seq, len(nbrs[v]) == 2))
    return pieces


def _piece_best(low: list[bool], force: list[bool | None], closed: bool,
                i: int) -> int:
    """Best count on one piece with some vertices forced in (True) or out
    (False); negative when the forced values admit no valid set.  A cycle
    has an unchosen vertex among any i + 1 consecutive ones, so it is
    opened at each of the i + 1 vertices ending at its start."""
    if not closed:
        return _path_best(low, force, i)
    n = len(low)
    return max((_path_best(low[k:] + low[:k], [False] + force[k + 1:] + force[:k], i)
                for k in {(n - j) % n for j in range(i + 1)} if force[k] is not True),
               default=_NONE)


def _path_best(low: list[bool], force: list[bool | None], i: int) -> int:
    """Scan a path: the last vertex is unchosen, a chosen degree-<=1
    singleton, or closes a chosen degree-2 run of length r (runs[r - 1]).
    A run is counted when it starts and may end only at length i."""
    out, single, runs = 0, _NONE, [_NONE] * i
    for lo, f in zip(low, force):
        done = max(out, single, runs[-1])
        if f is False:
            out, single, runs = done, _NONE, [_NONE] * i
        elif lo:
            out, single, runs = (_NONE if f else done), out + 1, [_NONE] * i
        else:
            out, single, runs = (_NONE if f else done), _NONE, [out + 1] + runs[:-1]
    return max(out, single, runs[-1])


def _components_of_mask(h: Graph, mask: int) -> tuple[tuple[int, ...], ...]:
    comps = []
    seen = 0
    for v in range(h.n):
        if not mask >> v & 1 or seen >> v & 1:
            continue
        stack = [v]
        seen |= 1 << v
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for w in h.adj[x]:
                if mask >> w & 1 and not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


def tree_partition(t: Graph, ell: int) -> TreePartition:
    """Partition the vertices of a tree by the ell-dependent degree rules
    and build the induced path forest."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not is_tree(t):
        raise ValueError("tree_partition requires a tree")
    deg = [t.degree(v) for v in range(t.n)]
    leaves = frozenset(v for v in range(t.n) if deg[v] <= 1)
    branch = frozenset(v for v in range(t.n) if deg[v] >= 3)
    deg_two = [v for v in range(t.n) if deg[v] == 2]

    # distance to nearest branch vertex, multi-source BFS
    dist = [-1] * t.n
    frontier = sorted(branch)
    for v in frontier:
        dist[v] = 0
    d = 0
    while frontier:
        nxt = []
        for v in frontier:
            for w in t.adj[v]:
                if dist[w] < 0:
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
        d += 1
    deep = frozenset(v for v in deg_two if dist[v] < 0 or dist[v] >= ell)

    middles = set()
    for a in sorted(branch):
        for first in t.adj[a]:
            if deg[first] != 2:
                continue
            # walk the degree-2 chain leaving a through first
            internal = [first]
            prev, cur = a, first
            while deg[cur] == 2:
                nxt = t.adj[cur][0] if t.adj[cur][0] != prev else t.adj[cur][1]
                prev, cur = cur, nxt
                if deg[cur] == 2:
                    internal.append(cur)
            b = cur
            if b not in branch or a > b:
                continue  # endpoint not branching, or chain handled from b
            length = len(internal) + 1
            if ell + 1 <= length <= 2 * ell - 1:
                middles.add(internal[length // 2 - 1])
    middles_f = frozenset(middles)
    other = frozenset(v for v in deg_two if v not in deep and v not in middles_f)

    forest_ids = tuple(sorted(leaves | deep | middles_f))
    forest = induced_subgraph(t, forest_ids)
    for v in range(forest.n):
        if forest.degree(v) > 2:
            raise RuntimeError("path forest construction produced degree > 2")
    return TreePartition(leaves, branch, deep, middles_f, other, forest, forest_ids)


def degeneracy(g: Graph) -> int:
    """Smallest c such that every subgraph has a vertex of degree <= c."""
    n = g.n
    if n == 0:
        return 0
    deg = [g.degree(v) for v in range(n)]
    alive = [True] * n
    best = 0
    for _ in range(n):
        v = min((x for x in range(n) if alive[x]), key=lambda x: (deg[x], x))
        best = max(best, deg[v])
        alive[v] = False
        for w in g.adj[v]:
            if alive[w]:
                deg[w] -= 1
    return best


def min_edge_degree_sum(g: Graph) -> int | None:
    """min over edges of d(x) + d(y); None for edgeless graphs."""
    if not g.edges:
        return None
    return min(g.degree(u) + g.degree(v) for u, v in g.edges)
