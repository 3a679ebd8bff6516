"""Planarity verdicts with optional Kuratowski witnesses.

The decision itself is delegated to networkx's check_planarity, an
implementation of the left-right criterion; only the boolean verdict is
consumed by the rest of the package.  The independent cross-check
(exhaustive subdivision search) lives in `bruteforce` and the two are
compared class-by-class in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .graph import Graph


@dataclass(frozen=True)
class PlanarityVerdict:
    is_planar: bool
    witness_edges: tuple[tuple[int, int], ...] | None = None
    witness_kind: str | None = None  # "K5", "K3,3" or None


def edge_bound_prefilter(g: Graph) -> bool:
    """True when the edge count already rules planarity out (e > 3v - 6)."""
    return g.n >= 3 and g.edge_count > 3 * g.n - 6


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _classify_witness(sub: nx.Graph) -> str | None:
    branch_degrees = sorted(d for _, d in sub.degree() if d >= 3)
    if branch_degrees == [4, 4, 4, 4, 4]:
        return "K5"
    if branch_degrees == [3, 3, 3, 3, 3, 3]:
        return "K3,3"
    return None


def is_planar(g: Graph, want_witness: bool = False) -> PlanarityVerdict:
    """Decide planarity; optionally extract a Kuratowski subdivision.

    The witness is best-effort: its edges form a K5 or K3,3 subdivision
    inside g (in g's own labels) whenever networkx can isolate one.
    """
    if not want_witness and edge_bound_prefilter(g):
        return PlanarityVerdict(False)
    planar, sub = nx.check_planarity(_to_nx(g), counterexample=want_witness)
    if planar or not want_witness:
        return PlanarityVerdict(bool(planar))
    edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in sub.edges()))
    return PlanarityVerdict(False, edges, _classify_witness(sub))
