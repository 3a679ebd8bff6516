"""Fixed-length cycle counting and forbidden-family checks.

count_cycles and has_cycle are one walker.  It anchors every cycle
a, v1, ..., v_{k-1} at its minimum vertex a and extends simple paths
through vertices above a, in both orientations, up to v_{k-3}.  The
last two vertices are closed there by counting the ordered pairs
(w, c) with w an unvisited neighbour of v_{k-3} above a and c an
unvisited neighbour of w in close = N(a) above a, one popcount per
free w.  Each cycle is met once per orientation, so the total is
halved at the end.  k = 3 needs no walk: it is the number of ordered
edges inside close.  has_cycle stops at the first v_{k-3} whose
closing count is non-zero.

For k >= 6 the walk also steps over parallel degree-2 chains at once.
A chain runs from a vertex u of degree >= 3 through degree-2 vertices
to a far end f != u of degree >= 3.  The chains of u with the same f
and the same length L (edges) form a class; a class of one chain is
walked as usual.  A walk that enters a chain is forced along it to f,
so when f would land on v_j with j <= k - 3 and f is unvisited and
above a, the class is taken in one step.  With one member's internal
vertices visited, the walk recurses into f, or, when f lands on
v_{k-3}, counts the closing pairs at f once; that count is multiplied
by the number of members whose internal vertices all lie above a.
This is exact.  Swapping two members is an automorphism that fixes a
and every other vertex and keeps the members' vertices above a, so
every such member adds the same count; a member with a vertex at or
below a adds none.  The unchosen members stay unvisited, so they may
serve as the closing w and c (from u = a, a 6-cycle through two
members of length 3); the swap carries those pairs along on both
sides, so the counts still agree.  k = 4 leaves no room for a chain
of length >= 2, and at k = 5 only a chain from the anchor landing on
v2 would fit, so the C4 and C5 walks build no classes.

A `ForbiddenFamily` compiles its extra patterns once, when it is built,
into `counting.Pattern`s, and `is_family_free` asks each of them
whether it occurs in the host (`Pattern.occurs_in`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .graph import Graph


@dataclass(frozen=True)
class ForbiddenFamily:
    """Cycle lengths to exclude, plus optional extra pattern graphs,
    compiled once into `counting.Pattern`s (`compiled`, left out of
    equality since it follows from `extra_patterns`)."""

    cycle_lengths: frozenset[int]
    extra_patterns: tuple[Graph, ...] = ()
    compiled: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for length in self.cycle_lengths:
            if length < 3:
                raise ValueError(f"cycle length {length} is not a cycle")
        compiled = ()
        if self.extra_patterns:
            from .counting import Pattern  # deferred: counting imports cycles
            compiled = tuple(map(Pattern.from_graph, self.extra_patterns))
        object.__setattr__(self, "compiled", compiled)

    @classmethod
    def of_lengths(cls, *lengths: int) -> ForbiddenFamily:
        return cls(frozenset(lengths))

    @classmethod
    def even_cycles_through(cls, ell: int) -> ForbiddenFamily:
        """{C4, C6, ..., C_{2*ell}}; empty for ell = 1."""
        if ell < 1:
            raise ValueError("ell must be >= 1")
        return cls(frozenset(range(4, 2 * ell + 1, 2)))

    @property
    def sorted_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(self.cycle_lengths))


EMPTY_FAMILY = ForbiddenFamily(frozenset())


def _chain_classes(g: Graph, longest: int) -> dict[int, tuple]:
    """Vertex u -> its classes of two or more parallel degree-2 chains of
    length at most `longest`, each as (far end, length, sorted minimum
    internal ids, mask of first vertices, internal mask of the member
    with the greatest minimum).  Chains between two vertices of degree
    >= 3 count; a chain back to its own start or to a degree-1 vertex is
    left out."""
    adj = g.adj
    links = [v for v, row in enumerate(adj) if len(row) == 2]
    if len(links) < 2:
        return {}
    groups: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    seen = 0
    for v in links:
        if seen >> v & 1:
            continue
        inner, ends = 1 << v, []
        for cur in adj[v]:  # walk out to both ends of v's chain
            prev = v
            while len(adj[cur]) == 2 and cur != v:
                inner |= 1 << cur
                prev, cur = cur, adj[cur][adj[cur][0] == prev]
            ends.append((cur, prev))  # an end and the chain's first vertex there
        seen |= inner
        (a, first_a), (b, first_b) = ends
        if a != b and len(adj[a]) >= 3 and len(adj[b]) >= 3:
            low, length = (inner & -inner).bit_length() - 1, inner.bit_count() + 1
            groups.setdefault((a, b, length), []).append((low, 1 << first_a, inner))
            groups.setdefault((b, a, length), []).append((low, 1 << first_b, inner))
    out: dict[int, tuple] = {}
    for (u, far, length), members in groups.items():
        if len(members) > 1 and length <= longest:
            members.sort()
            out[u] = out.get(u, ()) + ((
                far, length, tuple(low for low, _, _ in members),
                sum(first for _, first, _ in members), members[-1][2]),)
    return out


def _walk_cycles(g: Graph, k: int, stop_at_first: bool) -> int:
    """The number of k-cycles; with `stop_at_first`, a positive number as
    soon as one is found (0 when there is none)."""
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    if g.n < k:
        return 0
    bits = g.bits
    adj = g.adj
    last = k - 3  # the walk places v1, ..., v_{k-3} after the anchor
    # a chain step needs placed + length <= last with length >= 2
    chains = _chain_classes(g, last) if last >= 3 else {}
    total = 0  # every cycle is counted once in each orientation
    for a in range(g.n - k + 1):
        above = -1 << (a + 1)
        close = bits[a] & above
        if close.bit_count() < 2:
            continue
        if not last:  # k = 3: the ordered edges inside close
            total += sum((bits[v1] & close).bit_count()
                         for v1 in adj[a] if v1 > a)
            if stop_at_first and total:
                return total
            continue

        def closing(xs: int, visited: int) -> int:
            # ordered triples (x, w, c): x in xs is v_{k-3}, w an unvisited
            # neighbour of x above a, c an unvisited neighbour of w in close
            sub = 0
            while xs:
                x = xs & -xs
                xs ^= x
                seen = visited | x
                free = bits[x.bit_length() - 1] & above & ~seen
                gate = close & ~seen
                while free:
                    w = free & -free
                    sub += (bits[w.bit_length() - 1] & gate).bit_count()
                    free ^= w
                if stop_at_first and sub:
                    return sub
            return sub

        def walk(cur: int, visited: int, placed: int) -> int:
            if placed == last - 1:
                return closing(bits[cur] & above & ~visited, visited)
            sub = 0
            skip = visited  # plus the first vertices of the classes taken
            # `inner` belongs to the member with the greatest minimum id,
            # which lies above a whenever any member's does
            classes = chains[cur] if cur in chains else ()
            for far, length, lows, firsts, inner in classes:
                if placed + length <= last and far > a and not visited >> far & 1:
                    skip |= firsts
                    eligible = len(lows) - bisect_right(lows, a)
                    if not eligible:
                        continue
                    if placed + length < last:
                        sub += eligible * walk(far, visited | inner | 1 << far,
                                               placed + length)
                    else:  # far lands on v_{k-3}
                        sub += eligible * closing(1 << far, visited | inner)
                    if stop_at_first and sub:
                        return sub
            for w in adj[cur]:
                if w > a and not skip >> w & 1:
                    sub += walk(w, visited | 1 << w, placed + 1)
                    if stop_at_first and sub:
                        return sub
            return sub

        total += walk(a, 1 << a, 0)
        if stop_at_first and total:
            return total
    return total // 2


def count_cycles(g: Graph, k: int) -> int:
    """Number of k-cycles (as vertex subsets with their cyclic structure)."""
    return _walk_cycles(g, k, False)


def has_cycle(g: Graph, k: int) -> bool:
    """True when g contains at least one k-cycle; short-circuits."""
    return _walk_cycles(g, k, True) > 0


def is_family_free(g: Graph, family: ForbiddenFamily) -> bool:
    """True when g avoids every forbidden cycle length and extra pattern."""
    for length in family.sorted_lengths:
        if has_cycle(g, length):
            return False
    return not any(pattern.occurs_in(g) for pattern in family.compiled)


def closing_partners(g: Graph, family: ForbiddenFamily) -> tuple[int, ...]:
    """For each vertex a, the bitmask of the vertices b such that one new
    vertex joined to both a and b closes a cycle of a forbidden length.

    A k-cycle through the new vertex is a simple path of k - 2 edges
    from a to b in g, so a family-free g stays free of the family's
    cycles after adding a vertex joined to `mask` exactly when no a in
    mask has a partner in mask.  Extra patterns are not covered.
    """
    want = 0  # bit d set: a path of d edges closes a forbidden cycle
    for length in family.cycle_lengths:
        if length - 1 <= g.n:  # the path has length - 1 vertices
            want |= 1 << (length - 2)
    if not want:
        return (0,) * g.n
    deepest = want.bit_length() - 1
    adj = g.adj
    bits = g.bits

    def ends(cur: int, visited: int, depth: int) -> int:
        found = 1 << cur if want >> depth & 1 else 0
        if depth == deepest - 1:  # the last step is one mask
            return found | bits[cur] & ~visited
        for w in adj[cur]:
            if not visited >> w & 1:
                found |= ends(w, visited | 1 << w, depth + 1)
        return found

    return tuple(ends(a, 1 << a, 0) for a in range(g.n))


def path_row(g: Graph, a: int, length: int, visited: int = 0) -> list[int]:
    """row[b], the number of simple paths with `length` >= 1 edges from a
    to b that avoid the vertex mask `visited`; zero at a."""
    adj = g.adj
    bits = g.bits
    row = [0] * g.n

    def walk(cur: int, visited: int, depth: int) -> None:
        if depth == length - 1:  # the last step is one mask
            free = bits[cur] & ~visited
            while free:
                bit = free & -free
                free ^= bit
                row[bit.bit_length() - 1] += 1
            return
        for w in adj[cur]:
            if not visited >> w & 1:
                walk(w, visited | 1 << w, depth + 1)

    walk(a, visited | 1 << a, 0)
    return row

