"""Canonical labeling and automorphism counting for small graphs.

`canonical_search` is McKay's partition backtrack ("Practical graph
isomorphism", 1981).  A node of the search tree is an ordered partition
of the vertices made equitable: the vertices of a cell have equally
many neighbours in each cell.  Each cell is a vertex mask, one int,
read in increasing vertex order.  A child individualizes one vertex v
of the node's first non-singleton cell, as a cell {v} just before the
rest of that cell, and refines again.  Leaves are discrete partitions,
i.e. vertex orders; a leaf's code is its adjacency rows in that order,
and the first leaf with the least code is canonical.

Refinement counts only against fresh cells.  A round splits each cell
by its vertices' counts against the cells that are new since the last
round, and orders the pieces by those counts; right after an
individualization only {v} is fresh, and a cell splits into v's
non-neighbours and v's neighbours by two ANDs.  Splits and order come
out as if every round counted against every cell: counts against an
unchanged cell are already constant on each cell, and counts against
the last piece of a split follow from its siblings' counts.

Two leaves with the same code differ by an automorphism.  Automorphisms
known so far prune twice: a child is skipped when one that fixes the
node's individualized vertices maps it onto a child already tried; and
a leaf with the best code sends the search straight back to the node
where its path leaves the best leaf's path, on to that node's next
child.  Either way the skipped subtree is the image of one already
searched, so the first least leaf is always reached and its path and
positions do not depend on the pruning.  A node screens each
automorphism once for fixing its individualized vertices, and skips a
child that lies in the orbits of the children tried under those, closed
over one vertex mask by `orbits_of`, the one orbit closure here.  The
screen is required: an automorphism that moves an individualized vertex
maps the node onto another node, so it does not make two children of
this node images of each other, and pruning with it loses leaves (some
labelings of the 4-regular graph Ht`JqWt on 9 vertices then count 16
automorphisms instead of 32).  The argument holds for every
automorphism, found or known, so a caller that already knows some may
hand them to `canonical_search`, which prunes with them from the start.
`canonical_search` shows why the automorphisms found, with those
known, still generate the whole group.

The root node, the equitable refinement of the unit partition, is
public as `root_partition`, computed from bit rows alone, so a caller
can judge a graph by its root cells before building it;
`canonical_search` then takes that partition as its start node instead
of refining again.

`canonical_search` alone runs the backtrack and returns the canonical
leaf's path, the positions and those generators: `canonical_form` builds
the form from the positions, and `automorphism_count` multiplies the
orbit sizes of the generators' stabilizer chain along the path.

Everything here is capped at 64 vertices: bitset rows stay machine-sized
and the desk-scale contracts never need more.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .graph import Graph, build_graph

_ISO_CAP = 64

# automorphisms as vertex maps
Generators = tuple[tuple[int, ...], ...]


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


def _equitable(bits: tuple[int, ...], cells: list[int],
               fresh: list[int]) -> list[int]:
    """Refine an ordered partition, each cell a vertex mask, until
    counting against every cell is stable.

    Each round splits every cell by its vertices' counts against the
    `fresh` cells (in partition order) and orders the pieces by those
    counts.  Counts against every other cell must already be constant on
    each cell, so they could neither split a cell nor order its pieces.
    The pieces of a split are fresh in the next round, all but the last:
    counts against the last piece are the old cell's constant count
    minus its siblings', so they are tied whenever the siblings' counts
    are.

    When the only fresh cell is one vertex u, as right after an
    individualization, a cell splits into u's non-neighbours and u's
    neighbours, two ANDs.  Otherwise a vertex's counts are packed into
    one int, 7 bits per fresh cell in partition order; a count is at
    most 64, so the ints order exactly as the count tuples would.  With
    one fresh cell the key is its count.
    """
    while fresh:
        new: list[int] = []
        masks: list[int] = []
        one = fresh[0] if len(fresh) == 1 else 0  # the only fresh mask, else 0
        if one and not one & (one - 1):
            row = bits[one.bit_length() - 1]
            for cell in cells:
                low = cell & ~row
                if low and low != cell:
                    new.append(low)
                    new.append(cell & row)
                    masks.append(low)
                else:
                    new.append(cell)
            cells = new
            fresh = masks
            continue
        for cell in cells:
            if cell & (cell - 1):
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    row = bits[bit.bit_length() - 1]
                    if one:
                        key = (row & one).bit_count()
                    else:
                        key = 0
                        for m in fresh:
                            key = key << 7 | (row & m).bit_count()
                    groups[key] = groups.get(key, 0) | bit
                if len(groups) > 1:
                    for key in sorted(groups):
                        new.append(groups[key])
                        masks.append(groups[key])
                    masks.pop()  # the last piece is not fresh
                    continue
            new.append(cell)
        cells = new
        fresh = masks
    return cells


class _CanonSearch:
    def __init__(self, g: Graph, known: Generators = ()):
        self.n = g.n
        self.bits = g.bits
        self.adj = g.adj
        self.best_code: tuple[int, ...] | None = None
        self.best_order: list[int] | None = None
        self.best_path: list[int] = []
        self.generators: list[tuple[int, ...]] = list(known)

    def _descend(self, cells: list[int], fresh: list[int],
                 fixed: list[int]) -> int:
        """Search below the node that individualized `fixed`; return the
        depth at which the search resumes."""
        cells = _equitable(self.bits, cells, fresh)
        depth = len(fixed)
        target = -1
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                target = i
                break
        if target < 0:
            return self._leaf([c.bit_length() - 1 for c in cells], fixed)
        cell = cells[target]
        prefix = cells[:target]
        suffix = cells[target + 1:]
        tried = 0  # the children tried so far, as a vertex mask
        images = 0  # their orbits under `useful`, when not `stale`
        stale = False
        useful: list[tuple[int, ...]] = []  # known automorphisms fixing `fixed`
        counted = 0  # generators screened for `useful`
        rest = cell
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if tried:
                generators = self.generators
                if len(generators) != counted:
                    for p in generators[counted:]:
                        if all(p[f] == f for f in fixed):
                            useful.append(p)
                            stale = True
                    counted = len(generators)
                if stale and useful:
                    images = orbits_of(tried, useful)
                    stale = False
                # skip v if a known automorphism fixing the individualized
                # prefix pointwise maps it into an already-tried branch
                if images & bit:
                    continue
            tried |= bit
            stale = True
            back = self._descend(prefix + [bit, cell ^ bit] + suffix, [bit],
                                 fixed + [v])
            if back < depth:
                return back
        return depth

    def _leaf(self, order: list[int], fixed: list[int]) -> int:
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
            self.best_path = fixed
        elif code == self.best_code:
            assert self.best_order is not None
            perm = [0] * n
            for i in range(n):
                perm[self.best_order[i]] = order[i]
            self.generators.append(tuple(perm))
            # resume where this path leaves the best leaf's path
            split = 0
            while fixed[split] == self.best_path[split]:
                split += 1
            return split
        return len(fixed)


def orbits_of(points: int, perms: Sequence[Sequence[int]]) -> int:
    """The union of the orbits of the vertices in the mask `points` under
    the group that `perms` generate, as a mask."""
    todo = points
    while todo:
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        for p in perms:
            image = 1 << p[v]
            if not points & image:
                points |= image
                todo |= image
    return points


def root_partition(bits: tuple[int, ...]) -> list[int]:
    """The equitable refinement of the unit partition of the graph whose
    adjacency bit rows are `bits`: the root node of `canonical_search`,
    each cell a vertex mask, and [] when there is no vertex.

    Every leaf refines the root partition in place, so the vertex at the
    last canonical position lies in its last cell; refinement commutes
    with relabelling, so every automorphism orbit lies inside one root
    cell.
    """
    n = len(bits)
    if n > _ISO_CAP:
        raise ValueError(
            f"iso tooling is capped at {_ISO_CAP} vertices (got {n}); "
            "larger hosts are supported for counting only")
    if not n:
        return []
    return _equitable(bits, [(1 << n) - 1], [(1 << n) - 1])


def canonical_search(g: Graph, root: list[int] | None = None,
                     known: Generators = ()
                     ) -> tuple[tuple[int, ...], tuple[int, ...], Generators]:
    """The canonical leaf's path (the vertices it individualizes, in
    order), the map original-vertex -> canonical position, and
    automorphisms of g (as vertex maps) that generate its whole
    automorphism group.  No form is built here; `canonical_form` builds
    it from the positions.

    `root`, when given, must be `root_partition(g.bits)`: the search
    starts from that node instead of refining the unit partition again.
    It is the node the search would start from anyway, so the path, the
    positions and the generators are the same either way.

    `known`, when given, are automorphisms of g that the search prunes
    with from the start, as if it had found them; they head the returned
    generators.  The path and the positions stay the same, since each
    skipped subtree is still the image of one searched; the generators
    found then differ, but with `known` they still generate Aut(g).

    Why the generators are complete.  Let b_0, ..., b_{m-1} be the
    vertices the canonical leaf's path individualizes, node k the node
    after the first k of them, A_k the automorphisms fixing b_0..b_{k-1}
    and G_k the group that the returned generators fixing b_0..b_{k-1}
    generate.  A_m is trivial, since node m is a discrete partition.
    Take w in the A_k-orbit of b_k.  Child w of node k holds an image of
    the canonical leaf, so it comes after child b_k, when the best leaf
    is final.  If child w is skipped, it is in the G_k-orbit of a child
    tried before it.  If it is searched, the search meets a leaf with the
    best code (at every node the first child whose subtree holds one is
    never skipped), which gives a generator in G_k taking b_k to w; that
    leaf jumps back to node k, not above it, so the later children of
    node k are still tried.  By induction over the children, the A_k-
    and G_k-orbits of b_k agree, so A_k lies in G_k A_{k+1}, and from
    A_m up, A_0 = Aut(g) is generated.  Nothing here depends on the root
    partition being the unit partition, or on which generators were
    known before the search began.

    Refinement orders cells by degree first, so the vertex at the last
    canonical position has maximum degree.
    """
    search = _CanonSearch(g, known)
    search._descend(root_partition(g.bits) if root is None else root, [], [])
    order = search.best_order
    assert order is not None
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return tuple(search.best_path), tuple(pos), tuple(search.generators)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form; equal for two graphs iff they are isomorphic.  It
    is g's edge list relabelled by `canonical_search`'s positions."""
    _, pos, _ = canonical_search(g)
    edges = tuple(sorted(
        (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
        for u, v in g.edges))
    return CanonicalForm(g.n, edges)


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group, read off `canonical_search`.

    With b_0, ..., b_{m-1} the returned path, it is the product over k
    of the orbit size of b_k under the returned generators that fix
    b_0..b_{k-1}.  The `canonical_search` docstring shows that these
    generators generate A_k, the automorphisms fixing b_0..b_{k-1}, and
    that A_m is trivial; orbit-stabilizer gives |A_k| = |A_k-orbit of
    b_k| * |A_{k+1}|.
    """
    path, _, generators = canonical_search(g)
    order = 1
    for k, b in enumerate(path):
        useful = [p for p in generators if all(p[f] == f for f in path[:k])]
        order *= orbits_of(1 << b, useful).bit_count()
    return order
