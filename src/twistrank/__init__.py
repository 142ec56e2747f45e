"""Centrality rankings in signed and attributed networks via twisted path sampling.

The pipeline: load or preprocess a graph, pick a path measure (sign product
for influence, sign minimum for trust, minimum inner product for
advertisement targeting), tilt the short-walk distribution by a temperature
theta (or solve theta from a target mean measure), and read centralities off
the endpoint-pair marginals.
"""

# Bound first: submodules (the manifest writer in io) read it.
__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    EnumerationBudgetError,
    GraphError,
    ParseError,
    SolveError,
    TwistrankError,
)
from .graph import (
    AttributedGraph,
    GraphStats,
    NegativeInjection,
    PreprocessReport,
    PreprocessResult,
    load_graph,
    preprocess,
    stats,
)
from .sampling import (
    WalkConfig,
    enumerate_paths,
    path_count,
)
from .twisting import (
    MinInnerProduct,
    SignMin,
    PathTable,
    SignProduct,
    TwistResult,
    achievable_range,
    measure_atoms,
    path_table,
    solve_theta_closed,
    solve_theta_numeric,
    twist,
)
from .centrality import (
    BivariateDistribution,
    CentralityRanking,
    TiltModel,
    bivariate,
    centrality,
    influence_closed_form,
    marginal,
    measure_for,
    resolve_theta,
)
from .analysis import (
    SweepRow,
    TopKSet,
    degree_ranking,
    jaccard,
    sweep,
    top_k,
)

__all__ = [
    "AttributedGraph",
    "BivariateDistribution",
    "CentralityRanking",
    "ConvergenceError",
    "EnumerationBudgetError",
    "GraphError",
    "GraphStats",
    "MinInnerProduct",
    "NegativeInjection",
    "ParseError",
    "PathTable",
    "PreprocessReport",
    "PreprocessResult",
    "SignMin",
    "SignProduct",
    "SolveError",
    "SweepRow",
    "TiltModel",
    "TopKSet",
    "TwistResult",
    "TwistrankError",
    "WalkConfig",
    "achievable_range",
    "bivariate",
    "centrality",
    "degree_ranking",
    "enumerate_paths",
    "influence_closed_form",
    "jaccard",
    "load_graph",
    "marginal",
    "measure_atoms",
    "measure_for",
    "path_count",
    "path_table",
    "preprocess",
    "resolve_theta",
    "solve_theta_closed",
    "solve_theta_numeric",
    "stats",
    "sweep",
    "top_k",
    "twist",
]
