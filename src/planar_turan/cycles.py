"""Fixed-length cycle counting and forbidden-family checks.

count_cycles anchors every cycle at its minimum vertex and extends
simple paths through vertices above the anchor; orientation is fixed by
requiring the second vertex to be smaller than the last, so each cycle
is generated exactly once.  The final vertex of a cycle is never placed
explicitly: it is read off a bitmask intersection, which collapses the
innermost loop to a popcount and keeps million-cycle hosts cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class ForbiddenFamily:
    """Cycle lengths to exclude, plus optional extra pattern graphs."""

    cycle_lengths: frozenset[int]
    extra_patterns: tuple[Graph, ...] = ()

    def __post_init__(self):
        for length in self.cycle_lengths:
            if length < 3:
                raise ValueError(f"cycle length {length} is not a cycle")

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


def count_cycles(g: Graph, k: int) -> int:
    """Number of k-cycles (as vertex subsets with their cyclic structure)."""
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    if g.n < k:
        return 0
    bits = g.bits
    adj = g.adj
    total = 0
    for a in range(g.n - k + 1):
        close_mask = bits[a] & (-1 << (a + 1))
        if not close_mask:
            continue

        def rec(cur: int, visited: int, placed: int) -> int:
            if placed == k - 2:
                return (bits[cur] & close_mask & ~visited & v1_high).bit_count()
            sub = 0
            for w in adj[cur]:
                if w > a and not visited >> w & 1:
                    sub += rec(w, visited | 1 << w, placed + 1)
            return sub

        abit = 1 << a
        for v1 in adj[a]:
            if v1 <= a:
                continue
            v1_high = -1 << (v1 + 1)
            total += rec(v1, abit | 1 << v1, 1)
    return total


def has_cycle(g: Graph, k: int) -> bool:
    """True when g contains at least one k-cycle; short-circuits."""
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    if g.n < k:
        return False
    bits = g.bits
    adj = g.adj
    for a in range(g.n - k + 1):
        close_mask = bits[a] & (-1 << (a + 1))
        if not close_mask:
            continue

        def rec(cur: int, visited: int, placed: int) -> bool:
            if placed == k - 2:
                return bool(bits[cur] & close_mask & ~visited & v1_high)
            for w in adj[cur]:
                if w > a and not visited >> w & 1:
                    if rec(w, visited | 1 << w, placed + 1):
                        return True
            return False

        abit = 1 << a
        for v1 in adj[a]:
            if v1 <= a:
                continue
            v1_high = -1 << (v1 + 1)
            if rec(v1, abit | 1 << v1, 1):
                return True
    return False


def is_family_free(g: Graph, family: ForbiddenFamily) -> bool:
    """True when g avoids every forbidden cycle length and extra pattern."""
    for length in family.sorted_lengths:
        if has_cycle(g, length):
            return False
    if family.extra_patterns:
        from .counting import has_injective_hom  # deferred: counting imports cycles
        for pattern in family.extra_patterns:
            if has_injective_hom(pattern, g):
                return False
    return True


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

    def ends(cur: int, visited: int, depth: int) -> int:
        found = 1 << cur if want >> depth & 1 else 0
        if depth < deepest:
            for w in adj[cur]:
                if not visited >> w & 1:
                    found |= ends(w, visited | 1 << w, depth + 1)
        return found

    return tuple(ends(a, 1 << a, 0) for a in range(g.n))


def shortest_even_cycle(g: Graph) -> int | None:
    """Length of the shortest even cycle, or None if no even cycle exists."""
    for length in range(4, g.n + 1, 2):
        if has_cycle(g, length):
            return length
    return None
