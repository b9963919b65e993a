"""Torus graphs of Hilbert schemes of points in the affine plane.

The package enumerates monomial-ideal fixed points, tests the combinatorial
necessary conditions for two of them to be joined by a one-dimensional torus
orbit (dominance order, arrow maps, arrow maps on box quotients), produces
the integer equations of the edge scheme from the affine cell coordinates at
each fixed point, and settles edge existence with an exact Groebner engine.
"""

from .arrows import (ArrowMap, OrientedPair, arrow_map_exists, dual_condition,
                     enumerate_arrow_maps, is_arrow_map, is_system_of_arrows,
                     oriented_pair)
from .assembly import (EdgeCache, PipelineDepth, TGraph, build_tgraph,
                       count_table, graph_to_dot, graph_to_json, table_to_csv)
from .cells import (CellBasis, EdgeIdeal, cell_generators_f, cell_generators_g,
                    edge_ideal, reduce_monomial, significant_arrows)
from .edges import EdgeRecord, EdgeStatus, decide_edge
from .groebner import (BudgetExceeded, GroebnerBasis, buchberger,
                       quotient_dimension)
from .induced import induced_arrow_map, initial_ideal
from .monomial import (Grading, MonomialIdeal2, colon_box, enumerate_ideals,
                       format_ideal, format_monomial, hilbert_function,
                       minimal_box, parse_ideal, parse_monomial)
from .poly import ArrowVar, Poly, Ring, arrow_ring

__version__ = "0.1.0"

__all__ = [
    "ArrowMap", "ArrowVar", "BudgetExceeded", "CellBasis", "EdgeCache",
    "EdgeIdeal", "EdgeRecord", "EdgeStatus", "Grading", "GroebnerBasis",
    "MonomialIdeal2", "OrientedPair", "PipelineDepth", "Poly", "Ring",
    "TGraph", "arrow_map_exists", "arrow_ring", "buchberger",
    "build_tgraph", "cell_generators_f", "cell_generators_g", "colon_box",
    "count_table", "decide_edge", "dual_condition", "edge_ideal",
    "enumerate_arrow_maps", "enumerate_ideals", "format_ideal",
    "format_monomial", "graph_to_dot", "graph_to_json", "hilbert_function",
    "induced_arrow_map", "initial_ideal", "is_arrow_map", "is_system_of_arrows",
    "minimal_box", "oriented_pair", "parse_ideal", "parse_monomial",
    "quotient_dimension", "reduce_monomial", "significant_arrows",
    "table_to_csv",
]
