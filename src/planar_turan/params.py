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
path opened at each of those.  The witness's components are the runs
of chosen vertices along the pieces, and tree_partition reads its deep
vertices and chain middles off the same pieces.

The witness is the lexicographically first optimal set: over the
degree-<=2 vertices in ascending id, each vertex is taken whenever
some optimum contains it and agrees with every earlier choice.  The
constructions build their hosts from this set, so it must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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
    comps = []
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
        total += best
        # the components are the runs of chosen vertices; a cycle is read
        # from its first unchosen vertex, which every valid choice has
        k = force.index(False) if closed else 0
        for chosen, run in groupby(zip(force[k:] + force[:k], seq[k:] + seq[:k]),
                                   key=itemgetter(0)):
            if chosen:
                comps.append(tuple(sorted(v for _, v in run)))
    return BetaWitness(total, tuple(sorted(comps)))


def _pieces(h: Graph) -> list[tuple[list[int], bool]]:
    """The paths and cycles of h restricted to its degree-<=2 vertices, each
    in walk order with a flag for cycles.  Paths are walked from an end;
    the vertices left over lie on cycles, each a whole component of h."""
    deg = [len(row) for row in h.adj]
    nbrs = {v: [u for u in row if deg[u] <= 2]
            for v, row in enumerate(h.adj) if deg[v] <= 2}
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
    deep, middles = set(), set()
    for seq, _ in _pieces(t):
        # a degree-2 vertex reaches a branch vertex only along its piece,
        # through a or b, the branch neighbours beyond its two ends
        a, b = (next((u for u in t.adj[v] if u in branch), None)
                for v in (seq[0], seq[-1]))
        for p, v in enumerate(seq):
            near = min(ell if a is None else p + 1, ell if b is None else len(seq) - p)
            if deg[v] == 2 and near >= ell:
                deep.add(v)
        # a degree-2 piece between two branch vertices is one chain
        length = len(seq) + 1
        if (None not in (a, b) and deg[seq[0]] == 2
                and ell + 1 <= length <= 2 * ell - 1):
            middles.add((seq if a < b else seq[::-1])[length // 2 - 1])
    other = frozenset(v for v in range(t.n) if deg[v] == 2) - deep - middles
    forest_ids = tuple(sorted(leaves | deep | middles))
    forest = induced_subgraph(t, forest_ids)
    for v in range(forest.n):
        if forest.degree(v) > 2:
            raise RuntimeError("path forest construction produced degree > 2")
    return TreePartition(leaves, branch, frozenset(deep), frozenset(middles),
                         other, forest, forest_ids)


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
