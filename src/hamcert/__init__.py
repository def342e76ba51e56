"""Exact small-graph solvers with checkable Hamiltonicity-or-extremal certificates."""

from hamcert.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    enumerate_labeled,
    from_edge_mask,
    is_clique,
    is_connected,
    is_independent_set,
    join,
    min_degree,
    path_graph,
    petersen_graph,
    star_graph,
    with_edges,
)
from hamcert.graph6 import parse_graph6, to_graph6

__all__ = [
    "Graph",
    "complement",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "edgeless_graph",
    "enumerate_labeled",
    "from_edge_mask",
    "is_clique",
    "is_connected",
    "is_independent_set",
    "join",
    "min_degree",
    "parse_graph6",
    "path_graph",
    "petersen_graph",
    "star_graph",
    "to_graph6",
    "with_edges",
]

__version__ = "0.1.0"
