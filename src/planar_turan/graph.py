"""Immutable simple graphs on vertex ids 0..n-1 with bitset adjacency.

Vertices are always the integers 0..n-1.  Edges are stored as sorted
(u, v) tuples with u < v.  Every derived view (neighbor lists, bitset
rows) is precomputed once at construction; instances are hashable and
safe to share across processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class Graph:
    """A finite undirected simple graph with a fixed vertex count."""

    __slots__ = ("n", "edges", "adj", "bits")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 adj: tuple[tuple[int, ...], ...], bits: tuple[int, ...]):
        # Callers go through build_graph; this constructor trusts its input.
        self.n = n
        self.edges = edges
        self.adj = adj
        self.bits = bits

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.bits[u] >> v & 1)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(row) for row in self.adj))

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def __reduce__(self):
        return (_rebuild, (self.n, self.edges))

    # -- derived graphs ---------------------------------------------------

    def relabel(self, perm: Sequence[int]) -> Graph:
        """Return the graph with vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex ids")
        return build_graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def with_vertex(self, attach_to: Iterable[int]) -> Graph:
        """Return the graph extended by one new vertex n joined to attach_to.

        The parent's sorted edges and rows are extended directly, with no
        `build_graph` pass; an id outside 0..n-1 or given twice raises
        ValueError.
        """
        w = self.n
        new = sorted(attach_to)
        mask = 0
        for a in new:
            if not 0 <= a < w:
                raise ValueError(f"attachment {a!r} is outside 0..{w - 1}")
            mask |= 1 << a
        if mask.bit_count() != len(new):
            raise ValueError(f"attachment ids {new!r} repeat")
        edges = tuple(sorted(self.edges + tuple((a, w) for a in new)))
        adj = tuple(row + (w,) if mask >> v & 1 else row
                    for v, row in enumerate(self.adj)) + (tuple(new),)
        bits = tuple(row | 1 << w if mask >> v & 1 else row
                     for v, row in enumerate(self.bits)) + (mask,)
        return Graph(w + 1, edges, adj, bits)

    def delete_vertex(self, v: int) -> Graph:
        """Remove v and relabel the remaining vertices densely, order kept."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        keep = [u for u in range(self.n) if u != v]
        return induced_subgraph(self, keep)


def _rebuild(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    return build_graph(n, edges)


def build_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and construct a Graph.

    Duplicate pairs collapse to one edge; (u, v) and (v, u) are the same
    edge.  Self-loops and out-of-range ids raise ValueError.
    """
    n = int(vertex_count)
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {pair!r} references a vertex outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        seen.add((u, v) if u < v else (v, u))
    sorted_edges = tuple(sorted(seen))
    bits = [0] * n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted_edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
        nbrs[u].append(v)
        nbrs[v].append(u)
    # sorted edges fill a row in order: its smaller neighbours u from
    # the edges (u, row), then its larger ones v from the edges (row, v)
    return Graph(n, sorted_edges, tuple(map(tuple, nbrs)), tuple(bits))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given ids, relabeled 0..k-1 in sorted order."""
    ids = sorted(set(vertices))
    for v in ids:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for graph on {g.n} vertices")
    pos = {v: i for i, v in enumerate(ids)}
    kept = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return build_graph(len(ids), kept)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Components as vertex sets, ordered by smallest member."""
    seen = [False] * g.n
    out: list[frozenset[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count == g.n - 1 and is_connected(g)


# ======================================================================
# Named small graphs.  Path/cycle length conventions follow the usual
# extremal-graph-theory reading: path_with_edges(k) has k edges (k+1
# vertices), cycle_graph(k) has k vertices and k edges.
# ======================================================================

def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def path_with_edges(k: int) -> Graph:
    """The path P_k with k edges on k+1 vertices 0-1-...-k."""
    if k < 0:
        raise ValueError("path length must be >= 0")
    return build_graph(k + 1, [(i, i + 1) for i in range(k)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(r: int) -> Graph:
    return build_graph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    return build_graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return build_graph(offset, edges)
