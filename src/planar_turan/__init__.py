"""Counting fixed subgraph patterns in planar hosts with forbidden cycles.

The package splits into small layers: exact graph plumbing (`graph`,
`graph6`, `canonical`), verdicts and counters (`planarity`, `cycles`,
`counting`), structural parameters (`params`), certified lower-bound
builders (`constructions`), exhaustive search (`search`), and named
verification sweeps (`verify`).  `bruteforce` holds deliberately naive
reference implementations used to cross-check the fast paths.
"""

from .canonical import CanonicalForm, automorphism_count, canonical_form
from .constructions import (CertificationError, Certification,
                            ConstructionError, ConstructionOutput,
                            ConstructionSpec, GrowthProbe,
                            blowup_independent_set, build_construction,
                            ck_c4free_parallel, conjecture_family,
                            cycle_blowup, even_tree_parallel_paths,
                            growth_probe, pentagon_extremal, tree_beta_blowup)
from .counting import (EmpiricalBound, Pattern, count_copies,
                       count_injective_homs, count_paths_between,
                       probe_bounded_paths)
from .cycles import (EMPTY_FAMILY, ForbiddenFamily, count_cycles, has_cycle,
                     is_family_free)
from .graph import (Graph, build_graph, complete_bipartite, complete_graph,
                    connected_components, cycle_graph, disjoint_union,
                    empty_graph, induced_subgraph, is_connected, is_tree,
                    path_with_edges, star_graph)
from .graph6 import from_graph6, to_graph6
from .params import (BetaWitness, TreePartition, beta, degeneracy,
                     min_edge_degree_sum, tree_partition)
from .planarity import PlanarityVerdict, is_planar
from .search import (ExtremalRecord, SearchBudget, SearchIncomplete,
                     enumerate_constrained, extremal_number)
from .verify import VerificationReport, run_claim

__version__ = "0.1.0"

__all__ = [
    "BetaWitness", "CanonicalForm", "Certification", "CertificationError",
    "ConstructionError", "ConstructionOutput", "ConstructionSpec",
    "EmpiricalBound", "EMPTY_FAMILY", "ExtremalRecord", "ForbiddenFamily",
    "Graph", "GrowthProbe", "Pattern", "PlanarityVerdict", "SearchBudget",
    "SearchIncomplete", "TreePartition", "VerificationReport",
    "automorphism_count", "beta", "blowup_independent_set",
    "build_construction", "build_graph", "canonical_form",
    "ck_c4free_parallel", "complete_bipartite", "complete_graph",
    "conjecture_family", "connected_components", "count_copies",
    "count_cycles", "count_injective_homs", "count_paths_between",
    "cycle_blowup", "cycle_graph", "degeneracy", "disjoint_union",
    "empty_graph", "enumerate_constrained", "even_tree_parallel_paths",
    "extremal_number", "from_graph6", "growth_probe", "has_cycle",
    "induced_subgraph", "is_connected", "is_family_free", "is_planar",
    "is_tree", "min_edge_degree_sum", "path_with_edges", "pentagon_extremal",
    "probe_bounded_paths", "run_claim", "star_graph", "to_graph6",
    "tree_beta_blowup", "tree_partition",
]
