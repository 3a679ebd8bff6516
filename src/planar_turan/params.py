"""Structural parameters: beta, tree partition, degeneracy, and the
minimum edge degree sum.

beta(h, i) maximizes the number of components of an induced subgraph
whose components are only (a) single vertices of degree at most 1 in
h, or (b) paths on exactly i vertices all of degree 2 in h.  Vertices
of degree >= 3 never participate, so the search runs over the
degree-<=2 vertices with incremental path-component tracking and undo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, induced_subgraph, is_tree

_BETA_CAP = 24


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
    are degree-<=1 singletons or degree-2 paths on i vertices."""
    if i < 1:
        raise ValueError(f"beta index must be >= 1, got {i}")
    if h.n > _BETA_CAP:
        raise ValueError(f"beta search is capped at {_BETA_CAP} vertices (got {h.n})")
    deg = [h.degree(v) for v in range(h.n)]
    eligible = [v for v in range(h.n) if deg[v] <= 2]
    total = len(eligible)
    parent = list(range(h.n))
    size = [1] * h.n
    chosen_mask = 0
    best = 0
    best_mask = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(idx: int, comp_count: int, incomplete: int) -> None:
        nonlocal chosen_mask, best, best_mask
        if idx == total:
            if incomplete == 0 and comp_count > best:
                best = comp_count
                best_mask = chosen_mask
            return
        if comp_count + (total - idx) <= best:
            return
        v = eligible[idx]
        # include v
        nbrs = [u for u in h.adj[v] if chosen_mask >> u & 1]
        ok = True
        if deg[v] <= 1:
            ok = not nbrs
            if ok:
                chosen_mask |= 1 << v
                rec(idx + 1, comp_count + 1, incomplete)
                chosen_mask ^= 1 << v
        else:
            roots = []
            for u in nbrs:
                if deg[u] == 1:
                    ok = False
                    break
                r = find(u)
                if r not in roots:
                    roots.append(r)
            if ok and len(nbrs) == 2 and len(roots) == 1:
                ok = False  # closing a cycle
            if ok:
                merged = 1 + sum(size[r] for r in roots)
                if merged > i:
                    ok = False
            if ok:
                was_incomplete = sum(1 for r in roots if size[r] != i)
                chosen_mask |= 1 << v
                for r in roots:
                    parent[r] = v
                size[v] = merged
                delta_inc = (1 if merged != i else 0) - was_incomplete
                rec(idx + 1, comp_count + 1 - len(roots), incomplete + delta_inc)
                for r in roots:
                    parent[r] = r
                size[v] = 1
                chosen_mask ^= 1 << v
        # exclude v
        rec(idx + 1, comp_count, incomplete)

    rec(0, 0, 0)
    return BetaWitness(best, _components_of_mask(h, best_mask))


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
