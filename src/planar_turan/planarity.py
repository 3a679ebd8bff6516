"""Planarity verdicts with optional Kuratowski witnesses.

The verdict is an in-house, decision-only left-right planarity test
(Brandes, "The Left-Right Planarity Test", 2009).  It runs on the
adjacency rows directly, and both depth-first passes are iterative, so
deep hosts never meet the recursion limit.  It keeps only the state the
decision needs: heights, lowpoints, the nesting order, the conflict-pair
stack, `ref` and `stack_bottom`.  The sides of the back edges, and with
them `lowpt_edge` and the embedding, are never computed.  Two degree
checks come first: more than 3n - 6 edges is non-planar, and a graph
with fewer than 6 vertices of degree >= 3 and fewer than 5 of degree
>= 4 is planar, since a K3,3 subdivision has 6 branch vertices of
degree 3 and a K5 subdivision 5 of degree 4 (Kuratowski).

A Kuratowski witness is found by deletion: each edge (u, v), u < v, in
lexicographic order, is deleted for good when the graph stays
non-planar without it.  What remains is an edge-minimal non-planar
subgraph, i.e. a K5 or K3,3 subdivision.  The re-tests go through the
same degree checks, which only settle graphs the full test would
decide the same way, so the witness does not depend on them.  networkx's
`get_counterexample` meets the edges in this order too; it only adds
re-tests of edges it has already kept, and a kept edge stays needed in
every later, smaller graph, so the two give the same witness.  The
independent cross-check (exhaustive subdivision search) lives in
`bruteforce` and the two are compared class-by-class in the
verification suite.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Sequence
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class PlanarityVerdict:
    is_planar: bool
    witness_edges: tuple[tuple[int, int], ...] | None = None
    witness_kind: str | None = None  # "K5", "K3,3" or None


def is_planar(g: Graph, want_witness: bool = False) -> PlanarityVerdict:
    """Decide planarity; optionally extract a Kuratowski subdivision.

    With want_witness, a non-planar verdict carries the edges of a K5 or
    K3,3 subdivision inside g (in g's own labels) and its kind.
    """
    planar = _lr_planar(g.n, g.adj)
    if planar or not want_witness:
        return PlanarityVerdict(planar)
    edges = _deletion_witness(g)
    return PlanarityVerdict(False, edges, _classify_witness(edges))


def _deletion_witness(g: Graph) -> tuple[tuple[int, int], ...]:
    rows = [set(row) for row in g.adj]
    kept = []
    for u, v in g.edges:
        rows[u].remove(v)
        rows[v].remove(u)
        if _lr_planar(g.n, rows):
            rows[u].add(v)
            rows[v].add(u)
            kept.append((u, v))
    return tuple(kept)


def _classify_witness(edges: tuple[tuple[int, int], ...]) -> str | None:
    degree = Counter(x for edge in edges for x in edge)
    branch_degrees = sorted(d for d in degree.values() if d >= 3)
    if branch_degrees == [4, 4, 4, 4, 4]:
        return "K5"
    if branch_degrees == [3, 3, 3, 3, 3, 3]:
        return "K3,3"
    return None


def _lr_planar(n: int, adj: Sequence[Collection[int]]) -> bool:
    """True when the graph with neighbour rows adj[0..n-1] is planar.

    Edges get ids in the order the orientation pass meets them.  An
    interval is a (low, high) pair of back-edge ids, -1 for none; a
    conflict pair is the list [left low, left high, right low, right
    high], and `stack_bottom` compares pairs by identity.
    """
    degrees = [len(row) for row in adj]
    if n > 2 and sum(degrees) > 2 * (3 * n - 6):
        return False  # more than 3n - 6 edges
    # A K3,3 subdivision needs 6 branch vertices of degree >= 3, a K5
    # subdivision 5 of degree >= 4; with neither, Kuratowski says planar.
    if (sum(d >= 3 for d in degrees) < 6
            and sum(d >= 4 for d in degrees) < 5):
        return True

    # -- orientation pass: heights, lowpoints, nesting order ------------
    height = [-1] * n
    parent = [-1] * n          # id of the tree edge into v, -1 at roots
    head: list[int] = []       # edge id -> target vertex
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, todo = stack[-1]
            hv = height[v]
            for w in todo:
                hw = height[w]
                if hw < 0:
                    ei = len(head)  # tree edge: finished when w is popped
                    head.append(w)
                    lowpt.append(hv)
                    lowpt2.append(hv)
                    nesting.append(0)
                    out[v].append(ei)
                    parent[w] = ei
                    height[w] = hv + 1
                    stack.append((w, iter(adj[w])))
                    break
                if hw >= hv - 1:
                    continue  # the tree edge to v's parent, or an oriented back edge
                ei = len(head)  # back edge to the ancestor w
                head.append(w)
                lowpt.append(hw)
                lowpt2.append(hv)
                nesting.append(0)
                out[v].append(ei)
                _finish_edge(ei, hv, parent[v], lowpt, lowpt2, nesting)
            else:
                stack.pop()
                ei = parent[v]
                if ei >= 0:
                    u = stack[-1][0]
                    _finish_edge(ei, height[u], parent[u], lowpt, lowpt2, nesting)

    # -- testing pass: the conflict-pair stack ---------------------------
    for row in out:
        row.sort(key=nesting.__getitem__)
    m = len(head)
    ref = [-1] * m
    stack_bottom: list[list[int] | None] = [None] * m
    pairs: list[list[int]] = []
    nxt = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            row = out[v]
            i = nxt[v]
            if i < len(row):
                ei = row[i]
                stack_bottom[ei] = pairs[-1] if pairs else None
                w = head[ei]
                if parent[w] == ei:
                    stack.append(w)  # tree edge: integrated when w is popped
                    continue
                pairs.append([-1, -1, ei, ei])
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = stack[-1]
                _remove_back_edges(v, height[v], head, lowpt, ref, pairs)
                i = nxt[v]
            # constrain the return edges of v's i-th out-edge ei against
            # those of its earlier siblings
            nxt[v] = i + 1
            if i and lowpt[ei] < height[v] and not _add_constraints(
                    ei, lowpt[parent[v]], lowpt, ref, stack_bottom, pairs):
                return False
    return True


def _finish_edge(ei, hv, e, lowpt, lowpt2, nesting) -> None:
    """Set the nesting depth of the finished out-edge ei of a vertex at
    height hv, and fold its lowpoints into v's parent edge e."""
    low = lowpt[ei]
    nesting[ei] = 2 * low + (lowpt2[ei] < hv)  # +1 when chordal
    if e < 0:
        return
    if low < lowpt[e]:
        lowpt2[e] = min(lowpt[e], lowpt2[ei])
        lowpt[e] = low
    elif low > lowpt[e]:
        lowpt2[e] = min(lowpt2[e], low)
    else:
        lowpt2[e] = min(lowpt2[e], lowpt2[ei])


def _add_constraints(ei, low_e, lowpt, ref, stack_bottom, pairs) -> bool:
    """Merge the conflict pairs above stack_bottom[ei] (the return edges
    of ei) and the earlier siblings' pairs they conflict with into one
    pair; False when two return edges are forced onto the same side."""
    pll = plh = prl = prh = -1
    # merge the return edges of ei into the right interval of the new pair
    bottom = stack_bottom[ei]
    while True:
        ql, qh, qrl, qrh = pairs.pop()
        if ql >= 0 or qh >= 0:
            ql, qh, qrl, qrh = qrl, qrh, ql, qh
        if ql >= 0 or qh >= 0:
            return False
        if lowpt[qrl] > low_e:
            if prl < 0 and prh < 0:
                prh = qrh
            elif prl >= 0:
                ref[prl] = qrh
            prl = qrl
        # else the interval returns to lowpt(e) and leaves the stack
        if (pairs[-1] if pairs else None) is bottom:
            break
    # merge the conflicting return edges of ei's earlier siblings into the left
    low = lowpt[ei]
    while pairs:
        ql, qh, qrl, qrh = pairs[-1]
        if not ((qh >= 0 and lowpt[qh] > low) or (qrh >= 0 and lowpt[qrh] > low)):
            break
        pairs.pop()
        if qrh >= 0 and lowpt[qrh] > low:
            ql, qh, qrl, qrh = qrl, qrh, ql, qh
            if qrh >= 0 and lowpt[qrh] > low:
                return False
        if prl >= 0:
            ref[prl] = qrh
        if qrl >= 0:
            prl = qrl
        if pll < 0 and plh < 0:
            plh = qh
        elif pll >= 0:
            ref[pll] = qh
        pll = ql
    if pll >= 0 or plh >= 0 or prl >= 0 or prh >= 0:
        pairs.append([pll, plh, prl, prh])
    return True


def _remove_back_edges(u, hu, head, lowpt, ref, pairs) -> None:
    """Drop the return edges that end at u, at height hu, once a child of
    u is finished."""
    while pairs:
        ll, lh, rl, rh = pairs[-1]
        if ll < 0 and lh < 0:
            lowest = lowpt[rl]
        elif rl < 0 and rh < 0:
            lowest = lowpt[ll]
        else:
            lowest = min(lowpt[ll], lowpt[rl])
        if lowest != hu:
            break
        pairs.pop()
    if not pairs:
        return
    top = pairs[-1]
    ll, lh, rl, rh = top
    while lh >= 0 and head[lh] == u:
        lh = ref[lh]
    if lh < 0:
        ll = -1
    while rh >= 0 and head[rh] == u:
        rh = ref[rh]
    if rh < 0:
        rl = -1
    top[:] = ll, lh, rl, rh
