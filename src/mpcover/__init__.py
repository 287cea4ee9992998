"""Monochromatic diameter-bounded covers of 2-edge-colored complete
multipartite graphs: constructions, exact decision procedures, exhaustive
shape surveys, and the cover/matching hypergraph bridge."""

from .covers import Cover, MonoSubgraph, make_cover, verify_cover
from .errors import (CapExceeded, ConstructionExhausted, EmptySet,
                     InequalityViolated, InvalidCover, InvalidParameter,
                     InvalidShape, InvalidVertex, MpcoverError, NoUniqueClone,
                     Unsupported)
from .families import (check_monotone_extension, classify_tripartite,
                       gen_fig4, gen_thm31, parse_family)
from .graphs import (BLUE, RED, EdgeColoring, MultipartiteShape, build_shape,
                     coloring_from_json, coloring_to_json, color_diameter,
                     color_distance)
from .construct import multipartite_cover, tc2_cover, tripartite_cover
from .ryser import (CoverStats, Hypergraph, exact_stats, graph_to_hypergraph,
                    hypergraph_to_graph, verify_equivalence_chain)
from .ladder import cover_exists, find_cover, prune_with_constructions
from .search import SearchResult, compute_D, gk_survey
from .symmetry import canonical_classes, canonical_key, symmetry_group

__version__ = "0.1.0"

__all__ = [
    "BLUE", "RED",
    "CapExceeded", "ConstructionExhausted", "Cover", "CoverStats",
    "EdgeColoring", "EmptySet", "Hypergraph", "InequalityViolated",
    "InvalidCover", "InvalidParameter", "InvalidShape", "InvalidVertex",
    "MonoSubgraph", "MpcoverError", "MultipartiteShape", "NoUniqueClone",
    "SearchResult", "Unsupported",
    "build_shape", "canonical_classes", "canonical_key",
    "check_monotone_extension", "classify_tripartite", "color_diameter",
    "color_distance", "coloring_from_json", "coloring_to_json", "compute_D",
    "cover_exists", "exact_stats", "find_cover", "gen_fig4", "gen_thm31",
    "gk_survey", "graph_to_hypergraph", "hypergraph_to_graph", "make_cover",
    "multipartite_cover", "parse_family", "prune_with_constructions",
    "symmetry_group", "tc2_cover", "tripartite_cover",
    "verify_cover", "verify_equivalence_chain",
]
