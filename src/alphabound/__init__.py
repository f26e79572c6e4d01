"""alphabound: independence numbers near the counting bound.

For a graph with n vertices and m edges, let p be the largest integer with
p(p-1) <= n^2 - n - 2m; the independence number alpha never exceeds p.
This package decides "alpha <= p - k?" for small k: cheap degree-based
bounds first, then a linear-size low-degree kernel, then a bounded
branching search for a vertex cover of the kernel.  Exact brute-force
oracles, graph generators, tight-instance (extremal) tooling, and a JSON
CLI round it out.

Entry points: :func:`decide` for the full pipeline, :func:`bounds_report`
for the bound chain, :func:`kernelize` for the kernel alone, and the
``alphabound`` console script.
"""

from .bounds import (
    BoundsReport,
    bounds_report,
    degree_sequence_bound,
    neighborhood_union_bound,
    neighborhood_union_sequence,
    nonedge_bound,
    welsh_powell_chromatic_bound,
)
from .errors import InternalError, ParameterError, ParseError, ResourceLimitError
from .extremal import (
    FAMILY_TAGS,
    MIN_P,
    UNMATCHED,
    ExtremalAnalysis,
    classify_extremal,
    enumerate_k1_extremal,
    generate_extremal,
    is_self_kernel,
    residual_nonedge_budget,
    residual_nonedge_floor,
    rest_size_range,
)
from .formats import (
    FORMATS,
    format_dimacs,
    format_edgelist,
    guess_format,
    parse_dimacs,
    parse_edgelist,
    read_graph,
    write_graph,
)
from .graph import (
    Graph,
    complement_edge_count,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    gnp,
    h_np,
    iter_bits,
    join,
    path_graph,
)
from .kernel import (
    KernelResult,
    kernel_size_bound,
    kernel_size_bound_scaled,
    kernelize,
)
from .oracle import (
    alpha_by_enumeration,
    exact_alpha,
    exact_min_vc,
    has_augmenting_set_upto,
    is_augmenting_set,
)
from .pipeline import Decision, decide, decide_many, verify_decision
from .vertex_cover import (
    DEFAULT_NODE_BUDGET,
    VcOutcome,
    max_independent_set_at_least,
    vertex_cover_decide,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph
    "Graph",
    "iter_bits",
    "empty_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "join",
    "disjoint_union",
    "h_np",
    "gnp",
    "complement_edge_count",
    # bounds
    "BoundsReport",
    "bounds_report",
    "nonedge_bound",
    "degree_sequence_bound",
    "neighborhood_union_sequence",
    "neighborhood_union_bound",
    "welsh_powell_chromatic_bound",
    # kernel
    "KernelResult",
    "kernelize",
    "kernel_size_bound",
    "kernel_size_bound_scaled",
    # vertex cover search
    "VcOutcome",
    "vertex_cover_decide",
    "max_independent_set_at_least",
    "DEFAULT_NODE_BUDGET",
    # oracle
    "exact_alpha",
    "exact_min_vc",
    "alpha_by_enumeration",
    "is_augmenting_set",
    "has_augmenting_set_upto",
    # pipeline
    "Decision",
    "decide",
    "decide_many",
    "verify_decision",
    # extremal
    "FAMILY_TAGS",
    "UNMATCHED",
    "MIN_P",
    "ExtremalAnalysis",
    "residual_nonedge_budget",
    "residual_nonedge_floor",
    "rest_size_range",
    "generate_extremal",
    "classify_extremal",
    "enumerate_k1_extremal",
    "is_self_kernel",
    # formats
    "FORMATS",
    "guess_format",
    "parse_dimacs",
    "parse_edgelist",
    "format_dimacs",
    "format_edgelist",
    "read_graph",
    "write_graph",
    # errors
    "InternalError",
    "ParameterError",
    "ParseError",
    "ResourceLimitError",
]
