"""Certified lower-bound constructions.

Every builder returns a ConstructionOutput whose certification facts
(planarity, forbidden-family freeness, pattern count) `_certify`
recomputes with the planarity/cycles/counting modules, never asserting
them blindly.  A builder that fails its own certification raises
CertificationError: that is a bug or an impossible parameter choice,
not a soft warning.  `_certify` also refuses a graph over the vertex
budget n of a family sized by n, with ConstructionError.

Every family sized by n is a base graph plus m copies: the blow-ups
clone the vertices of an independent set of a tree or of C_k
(`_blowup`), and the parallel-path families add m internally disjoint
paths between fixed anchors (`_copies`).  Multiplicity conventions
follow the source formulas: cycle blow-ups use floor(2n/k) - 1 copies,
tree blow-ups floor(n/(2*beta)), and the parallel-path families use the
largest multiplicity that fits n vertices.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .counting import count_copies
from .cycles import EMPTY_FAMILY, ForbiddenFamily, is_family_free
from .graph import Graph, build_graph, cycle_graph, is_tree
from .params import beta
from .planarity import is_planar

COUNT_CERT_CAP = 80  # recount pattern copies during certification up to this order


class ConstructionError(ValueError):
    """Raised for parameter choices the construction cannot realize."""


class CertificationError(RuntimeError):
    """Raised when a built graph contradicts its declared facts."""


@dataclass(frozen=True)
class Certification:
    planar: bool
    family_lengths: tuple[int, ...]
    family_free: bool
    pattern_name: str
    declared_count: int
    computed_count: int | None  # None when the instance exceeded the recount cap
    count_is_exact: bool  # declared == computed vs declared <= computed


@dataclass(frozen=True)
class ConstructionOutput:
    graph: Graph
    label_table: dict[str, int]
    certification: Certification


def _certify(graph: Graph, labels: dict[str, int], family: ForbiddenFamily,
             pattern: Graph, pattern_name: str, declared: int, exact: bool,
             count_cap: int, budget: int | None = None) -> ConstructionOutput:
    if budget is not None and graph.n > budget:
        raise ConstructionError(
            f"{graph.n} vertices exceed the vertex budget {budget}")
    planar_ok = is_planar(graph).is_planar
    family_free = is_family_free(graph, family)
    computed: int | None = None
    count_ok = True
    if graph.n <= count_cap:
        computed = count_copies(pattern, graph)
        count_ok = computed == declared if exact else computed >= declared
    if not (planar_ok and family_free and count_ok):
        raise CertificationError(
            f"certification failed for {pattern_name} construction on "
            f"{graph.n} vertices: planar={planar_ok}, family_free={family_free}, "
            f"declared={declared}, computed={computed}")
    return ConstructionOutput(graph, labels, Certification(
        planar_ok, family.sorted_lengths, family_free, pattern_name,
        declared, computed, exact))


# ======================================================================
# Blow-up primitive
# ======================================================================

def blowup_independent_set(g: Graph, s, m: int) -> Graph:
    """Replace each vertex of the independent set s by m clones sharing its
    neighborhood.  Originals keep their ids; clone j of the i-th set member
    (sorted) gets id n + i*(m-1) + (j-1)."""
    members = sorted(set(s))
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    for a in members:
        for b in members:
            if a < b and g.has_edge(a, b):
                raise ValueError(f"set is not independent: edge ({a}, {b})")
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    edges = list(g.edges)
    nid = g.n
    for v in members:
        for _ in range(m - 1):
            edges.extend((nid, w) for w in g.adj[v])
            nid += 1
    return build_graph(nid, edges)


def _blowup(base: Graph, members: list[int], m: int,
            prefix: str) -> tuple[Graph, dict[str, int]]:
    """blowup_independent_set(base, members, m) with labels: base vertex
    i is f"{prefix}{i}" and clone j of member v is f"{prefix}{v}.{j}"."""
    graph = blowup_independent_set(base, members, m)
    clones = [f"{prefix}{v}.{j}" for v in sorted(set(members)) for j in range(1, m)]
    labels = {f"{prefix}{i}": i for i in range(base.n)}
    labels.update(zip(clones, range(base.n, graph.n)))
    return graph, labels


def _copies(edges: list, labels: dict[str, int], nid: int, name: str,
            length: int, copies, start, end) -> int:
    """For each j in `copies`, add a path of `length` new vertices from id
    `nid` on, vertex p labelled f"{name}.{j}.{p}", its first vertex
    joined to every id in `start` and its last to every id in `end`.
    Returns the next free id."""
    for j in copies:
        ids = range(nid, nid + length)
        nid += length
        for p, v in enumerate(ids):
            labels[f"{name}.{j}.{p}"] = v
        edges.extend(zip(ids, ids[1:]))
        edges.extend((a, ids[0]) for a in start)
        edges.extend((ids[-1], b) for b in end)
    return nid


# ======================================================================
# Families
# ======================================================================

def tree_beta_blowup(t: Graph, n: int, *,
                     count_cap: int = COUNT_CERT_CAP) -> ConstructionOutput:
    """Blow up a maximum degree-<=2 independent witness of the tree by
    floor(n / (2*beta))."""
    if not is_tree(t):
        raise ConstructionError("tree_beta_blowup requires a tree")
    if n < 2 * t.n:
        raise ConstructionError(f"need n >= {2 * t.n} for a tree on {t.n} vertices")
    wit = beta(t, 1)
    if wit.value == 0:
        raise ConstructionError("tree has no degree-1/2 witness vertices")
    b = wit.value
    chosen = sorted(c[0] for c in wit.components)
    m = n // (2 * b)
    graph, labels = _blowup(t, chosen, m, "v")
    return _certify(graph, labels, EMPTY_FAMILY, t, "tree", m ** b, False,
                    count_cap, n)


def cycle_blowup(k: int, n: int, *,
                 count_cap: int = COUNT_CERT_CAP) -> ConstructionOutput:
    """Blow up the alternating maximum independent set of C_k by
    floor(2n/k) - 1 clones."""
    if k < 3:
        raise ConstructionError(f"cycle length must be >= 3, got {k}")
    if n < k:
        raise ConstructionError(f"need n >= {k}")
    m = max(1, 2 * n // k - 1)
    base = cycle_graph(k)
    s = list(range(1, k, 2)) if k % 2 == 0 else list(range(1, k - 1, 2))
    graph, labels = _blowup(base, s, m, "x")
    # k = 4 is special: both blown classes share both junctions (K_{2,2m}),
    # so pairs within one class also close 4-cycles.
    declared = m * (2 * m - 1) if k == 4 else m ** (k // 2)
    return _certify(graph, labels, EMPTY_FAMILY, base, f"C{k}", declared,
                    True, count_cap, n)


def even_tree_parallel_paths(t: Graph, ell: int, n: int, *,
                             count_cap: int = COUNT_CERT_CAP) -> ConstructionOutput:
    """Replace each component of a beta_ell witness of the tree by parallel
    copies joined to the same neighbors, certified free of even cycles of
    length <= 2*ell."""
    if not is_tree(t):
        raise ConstructionError("even_tree_parallel_paths requires a tree")
    if ell < 1:
        raise ConstructionError(f"ell must be >= 1, got {ell}")
    wit = beta(t, ell)
    if wit.value == 0:
        raise ConstructionError(f"tree has beta_{ell} = 0, nothing to parallelize")
    b = wit.value
    replaced = sum(len(c) for c in wit.components)
    m = (n - t.n + replaced) // replaced
    if m < 1:
        raise ConstructionError(
            f"n = {n} gives multiplicity < 1 (need at least {t.n})")
    edges = list(t.edges)
    labels = {f"v{i}": i for i in range(t.n)}
    nid = t.n
    for ci, comp in enumerate(wit.components):
        inside = set(comp)
        # the copies need only the path's two ends, the smaller first; a
        # one-vertex component is both, and build_graph collapses the
        # repeated edges of its anchors
        ends = [v for v in comp if sum(w in inside for w in t.adj[v]) <= 1]
        nid = _copies(edges, labels, nid, f"c{ci}", len(comp), range(1, m),
                      [w for w in t.adj[min(ends)] if w not in inside],
                      [w for w in t.adj[max(ends)] if w not in inside])
    graph = build_graph(nid, edges)
    return _certify(graph, labels, ForbiddenFamily.even_cycles_through(ell),
                    t, "tree", m ** b, False, count_cap, n)


def pentagon_extremal(t: int, s: int, *,
                      count_cap: int = COUNT_CERT_CAP) -> ConstructionOutput:
    """The C4-free plane graph on n = 5 + 3t + 2s vertices with n - 4
    pentagons: a pentagon core, t parallel length-4 paths between two core
    vertices threaded by a path through the opposite core vertex, and a
    zig-zag strip of 2s vertices alternating between two core vertices."""
    if t < 0 or s < 0:
        raise ConstructionError("t and s must be >= 0")
    # core pentagon x1..x5 as ids 0..4
    x1, x2, x3, x4, x5 = range(5)
    edges = [(x1, x2), (x2, x3), (x3, x4), (x4, x5), (x5, x1)]
    labels = {f"x{i + 1}": i for i in range(5)}
    nid = 5
    prev_y4 = x4
    for i in range(1, t + 1):
        y5, y4, y3 = nid, nid + 1, nid + 2
        nid += 3
        labels[f"y5.{i}"] = y5
        labels[f"y4.{i}"] = y4
        labels[f"y3.{i}"] = y3
        edges += [(x1, y5), (y5, y4), (y4, y3), (y3, x2), (prev_y4, y4)]
        prev_y4 = y4
    prev_z = None
    for i in range(1, 2 * s + 1):
        z = nid
        nid += 1
        labels[f"z{i}"] = z
        if i == 1:
            edges.append((z, x1))
        if prev_z is not None:
            edges.append((prev_z, z))
        edges.append((z, x5 if i % 4 in (0, 1) else x3))
        prev_z = z
    graph = build_graph(nid, edges)
    return _certify(graph, labels, ForbiddenFamily.of_lengths(4),
                    cycle_graph(5), "C5", graph.n - 4, True, count_cap)


def _segment_lengths(k: int) -> list[int]:
    """Bundle segment lengths for ck_c4free_parallel, chosen so that no
    segment has twice its length equal to k (which would add same-bundle
    k-cycles); k = 6 cannot avoid it and is handled by its count formula."""
    q, r = divmod(k, 3)
    if r == 0:
        return [3] * q
    if r == 1:
        return [3] * (q - 1) + [4]
    return [3] * (q - 1) + [5]


def ck_c4free_parallel(k: int, n: int, *,
                       count_cap: int = COUNT_CERT_CAP) -> ConstructionOutput:
    """C4-free planar graph rich in k-cycles: junction vertices in a cyclic
    layout, consecutive pairs joined by m internally disjoint paths."""
    if k < 5:
        raise ConstructionError(f"need k >= 5, got {k}")
    if k == 5:
        # one bundle of length-3 paths plus a fixed length-2 arc
        m = (n - 3) // 2
        if m < 1:
            raise ConstructionError("need n >= 5 for k = 5")
        j0, j1, arc = 0, 1, 2
        edges = [(j0, arc), (arc, j1)]
        labels = {"J0": j0, "J1": j1, "A.0": arc}
        nid = _copies(edges, labels, 3, "P0", 2, range(m), [j0], [j1])
        graph = build_graph(nid, edges)
        declared = m
    else:
        segments = _segment_lengths(k)
        q = len(segments)
        variable = sum(length - 1 for length in segments)
        m = (n - q) // variable
        if m < 1:
            raise ConstructionError(f"need n >= {q + variable} for k = {k}")
        edges = []
        labels = {f"J{i}": i for i in range(q)}
        nid = q
        for si, length in enumerate(segments):
            nid = _copies(edges, labels, nid, f"P{si}", length - 1, range(m),
                          [si], [(si + 1) % q])
        graph = build_graph(nid, edges)
        declared = 2 * m * m - m if k == 6 else m ** q
    return _certify(graph, labels, ForbiddenFamily.of_lengths(4),
                    cycle_graph(k), f"C{k}", declared, True, count_cap, n)


def conjecture_family(k: int, ell: int, n: int, *,
                      count_cap: int = COUNT_CERT_CAP) -> ConstructionOutput:
    """Parallelize the beta_ell witness of C_k: floor(k/(ell+1)) runs of
    ell consecutive vertices each become m parallel copies, giving at least
    m^floor(k/(ell+1)) k-cycles while staying planar and free of even
    cycles of length <= 2*ell."""
    if ell < 1:
        raise ConstructionError(f"ell must be >= 1, got {ell}")
    if k < 2 * (ell + 1):
        raise ConstructionError(f"need k >= {2 * (ell + 1)} for ell = {ell}")
    b, r = divmod(k, ell + 1)
    fixed = b + r  # one separator per run plus the remainder arc
    m = (n - fixed) // (b * ell)
    if m < 1:
        raise ConstructionError(f"need n >= {fixed + b * ell} for k = {k}")
    # fixed backbone: separators S0..S_{b-1}; remainder arc R0..R_{r-1}
    # cyclic order: [run 0] S0 [run 1] S1 ... [run b-1] S_{b-1} R0..R_{r-1}
    labels = {f"S{i}": i for i in range(b)}
    labels.update((f"R{j}", b + j) for j in range(r))
    edges = list(zip(range(b - 1, fixed - 1), range(b, fixed)))  # S_{b-1} R0..
    nid = fixed
    for run in range(b):
        before = (b + r - 1) if (run == 0 and r) else (run - 1) % b
        nid = _copies(edges, labels, nid, f"W{run}", ell, range(m), [before],
                      [run])
    graph = build_graph(nid, edges)
    return _certify(graph, labels, ForbiddenFamily.even_cycles_through(ell),
                    cycle_graph(k), f"C{k}", m ** b, False, count_cap, n)


# ======================================================================
# Registry used by the CLI, the verify claims and the growth probes
# ======================================================================

@dataclass(frozen=True)
class ConstructionSpec:
    """A construction family name plus its non-size parameters; the vertex
    budget n may live in params or be supplied per call."""
    family: str
    params: dict


# family -> (builder, names of its positional parameters)
CONSTRUCTION_FAMILIES = {
    "tree_beta_blowup": (tree_beta_blowup, ("tree", "n")),
    "cycle_blowup": (cycle_blowup, ("k", "n")),
    "even_tree_parallel_paths": (even_tree_parallel_paths, ("tree", "ell", "n")),
    "pentagon_extremal": (pentagon_extremal, ("t", "s")),
    "ck_c4free_parallel": (ck_c4free_parallel, ("k", "n")),
    "conjecture_family": (conjecture_family, ("k", "ell", "n")),
}


def build_construction(spec: ConstructionSpec, n: int | None = None,
                       *, count_cap: int = COUNT_CERT_CAP) -> ConstructionOutput:
    """Dispatch on spec.family.  `n` overrides params['n'] when given."""
    if spec.family not in CONSTRUCTION_FAMILIES:
        raise ConstructionError(
            f"unknown construction family {spec.family!r}; known: "
            + ", ".join(CONSTRUCTION_FAMILIES))
    builder, names = CONSTRUCTION_FAMILIES[spec.family]
    p = dict(spec.params)
    if n is not None:
        p["n"] = n
    missing = [name for name in names if name not in p]
    if missing:
        raise ConstructionError(
            f"family {spec.family!r} needs parameter {missing[0]!r}")
    unread = [name for name in p if name not in names]
    if unread:
        raise ConstructionError(
            f"family {spec.family!r} takes only {', '.join(names)}; "
            f"got {', '.join(map(repr, unread))}")
    return builder(*(p[name] for name in names), count_cap=count_cap)


@dataclass(frozen=True)
class GrowthProbe:
    spec: ConstructionSpec
    points: tuple[tuple[int, int], ...]  # (n, count)
    slope: float
    intercept: float
    residuals: tuple[float, ...]


def growth_probe(spec: ConstructionSpec, n_values: list[int]) -> GrowthProbe:
    """Build the family at each n, certify its own pattern count, and fit a
    least-squares line to log(count) versus log(n)."""
    if len(set(n_values)) < 3:
        raise ValueError("need at least 3 distinct n values")
    points: list[tuple[int, int]] = []
    for n in sorted(set(n_values)):
        # _certify refuses a graph over its budget n, so a cap of n always recounts
        c = build_construction(spec, n=n, count_cap=n).certification.computed_count
        if c > 0:
            points.append((n, c))
    if len(points) < 3:
        raise ValueError(f"only {len(points)} usable points (zero counts dropped)")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(c) for _, c in points]
    slope, intercept = statistics.linear_regression(xs, ys)
    residuals = tuple(y - (slope * x + intercept) for x, y in zip(xs, ys))
    return GrowthProbe(spec, tuple(points), slope, intercept, residuals)
