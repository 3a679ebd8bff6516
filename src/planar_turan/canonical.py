"""Canonical labeling and automorphism counting for small graphs.

The canonical form is computed by iterative refinement of an ordered
partition (degree-style counting against every cell) plus backtracking
over individualization choices.  Leaves of the search tree are complete
labelings; the lexicographically least encoding wins.  Automorphisms
discovered as equal-encoding leaves prune sibling branches, which keeps
highly symmetric inputs (empty or complete graphs) tractable; they are
also returned, and generate the whole automorphism group.

Everything here is capped at 64 vertices: bitset rows stay machine-sized
and the desk-scale contracts never need more.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .graph import Graph, build_graph

_ISO_CAP = 64


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Canonical edge list.

    Two graphs are isomorphic exactly when their CanonicalForms are
    equal.  The vertex count is part of the form: isolated vertices
    leave no trace in an edge list.
    """

    vertex_count: int
    edge_list: tuple[tuple[int, int], ...]

    def as_graph(self) -> Graph:
        return build_graph(self.vertex_count, self.edge_list)


def _check_cap(g: Graph) -> None:
    if g.n > _ISO_CAP:
        raise ValueError(
            f"iso tooling is capped at {_ISO_CAP} vertices (got {g.n}); "
            "larger hosts are supported for counting only")


def _equitable(bits: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Refine an ordered partition until counting against every cell is stable."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple((bits[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new.append(tuple(groups[key]))
        cells = new
        if not changed:
            return cells


class _CanonSearch:
    def __init__(self, g: Graph):
        self.n = g.n
        self.bits = g.bits
        self.adj = g.adj
        self.best_code: tuple[int, ...] | None = None
        self.best_order: list[int] | None = None
        self.generators: list[tuple[int, ...]] = []

    def run(self) -> None:
        if self.n == 0:
            self.best_code = ()
            self.best_order = []
            return
        self._descend([tuple(range(self.n))], [])

    def _descend(self, cells: list[tuple[int, ...]], fixed: list[int]) -> None:
        cells = _equitable(self.bits, cells)
        target = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                target = i
                break
        if target < 0:
            self._leaf([c[0] for c in cells])
            return
        cell = cells[target]
        prefix = cells[:target]
        suffix = cells[target + 1:]
        tried: list[int] = []
        root: list[int] | None = None
        known = 0  # generators that root accounts for
        for v in cell:
            if tried:
                if len(self.generators) != known:
                    known = len(self.generators)
                    root = self._stabilizer_orbits(fixed)
                # skip v if a known automorphism fixing the individualized
                # prefix pointwise maps it into an already-tried branch
                if root is not None and any(root[u] == root[v] for u in tried):
                    continue
            tried.append(v)
            rest = tuple(w for w in cell if w != v)
            self._descend(prefix + [(v,)] + [rest] + suffix, fixed + [v])

    def _stabilizer_orbits(self, fixed: list[int]) -> list[int] | None:
        """Orbit roots under the known automorphisms that fix `fixed`
        pointwise, or None when there are none."""
        useful = [p for p in self.generators if all(p[f] == f for f in fixed)]
        return orbit_roots(self.n, useful) if useful else None

    def _leaf(self, order: list[int]) -> None:
        n = self.n
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = [0] * n
        for v in range(n):
            pv = pos[v]
            row = 0
            for w in self.adj[v]:
                row |= 1 << pos[w]
            rows[pv] = row
        code = tuple(rows)
        if self.best_code is None or code < self.best_code:
            self.best_code = code
            self.best_order = order
        elif code == self.best_code:
            assert self.best_order is not None
            perm = [0] * n
            for i in range(n):
                perm[self.best_order[i]] = order[i]
            self.generators.append(tuple(perm))


def orbit_roots(size: int, perms: Sequence[Sequence[int]]) -> list[int]:
    """The least point of each point's orbit under the group that the
    permutations of range(size) generate."""
    root = list(range(size))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for p in perms:
        for a, b in enumerate(p):
            if a != b:
                ra, rb = find(a), find(b)
                if ra < rb:
                    root[rb] = ra
                elif rb < ra:
                    root[ra] = rb
    return [find(a) for a in range(size)]


def canonical_search(g: Graph) -> tuple[CanonicalForm, tuple[int, ...],
                                        tuple[tuple[int, ...], ...]]:
    """Canonical form, the map original-vertex -> canonical position, and
    automorphisms of g (as vertex maps) that generate its whole
    automorphism group.

    Every leaf with the least code is an automorphic image of the first
    one found, and the search visits each such leaf or an image of it
    under automorphisms already found, so the generators are complete.
    Refinement orders cells by degree first, so the vertex at the last
    canonical position has maximum degree.
    """
    _check_cap(g)
    search = _CanonSearch(g)
    search.run()
    order = search.best_order
    assert order is not None
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    edges = tuple(sorted(
        (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
        for u, v in g.edges))
    form = CanonicalForm(g.n, edges)
    return form, tuple(pos), tuple(search.generators)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form; equal for two graphs iff they are isomorphic."""
    return canonical_search(g)[0]


def canonical_labeling(g: Graph) -> tuple[CanonicalForm, tuple[int, ...]]:
    """Canonical form plus the map original-vertex -> canonical position."""
    form, pos, _ = canonical_search(g)
    return form, pos


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group, by backtracking over images.

    Candidate images are filtered by degree and by bitset-consistency
    with the already-placed neighborhood, so asymmetric graphs finish in
    near-linear time while K_n still costs about e * n! nodes.
    """
    _check_cap(g)
    n = g.n
    if n <= 1:
        return 1
    bits = g.bits
    degs = [len(a) for a in g.adj]
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    mapping = [-1] * n

    def rec(i: int, placed_img: int) -> int:
        if i == n:
            return 1
        v = order[i]
        needed = 0
        for u in g.adj[v]:
            mu = mapping[u]
            if mu >= 0:
                needed |= 1 << mu
        dv = degs[v]
        total = 0
        for w in range(n):
            if placed_img >> w & 1:
                continue
            if degs[w] != dv or bits[w] & placed_img != needed:
                continue
            mapping[v] = w
            total += rec(i + 1, placed_img | 1 << w)
            mapping[v] = -1
        return total

    return rec(0, 0)
