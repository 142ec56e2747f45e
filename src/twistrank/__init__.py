"""Centrality rankings in signed and attributed networks via twisted path sampling.

The pipeline: load or preprocess a graph, pick a path measure (sign product
for influence, sign minimum for trust, minimum inner product for
advertisement targeting), tilt the short-walk distribution by a temperature
theta (or solve theta from a target mean measure), and read centralities off
the endpoint-pair marginals.
"""

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
    WalkPath,
    base_walk_prob,
    enumerate_paths,
    path_count,
)
from .twisting import (
    MinInnerProduct,
    SignMin,
    SignProduct,
    TwistConfig,
    TwistResult,
    achievable_range,
    free_energy_gradient,
    kl_divergence,
    measure_atoms,
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

__version__ = "0.1.0"

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
    "PreprocessReport",
    "PreprocessResult",
    "SignMin",
    "SignProduct",
    "SolveError",
    "SweepRow",
    "TiltModel",
    "TopKSet",
    "TwistConfig",
    "TwistResult",
    "TwistrankError",
    "WalkConfig",
    "WalkPath",
    "achievable_range",
    "base_walk_prob",
    "bivariate",
    "centrality",
    "degree_ranking",
    "enumerate_paths",
    "free_energy_gradient",
    "influence_closed_form",
    "jaccard",
    "kl_divergence",
    "load_graph",
    "marginal",
    "measure_atoms",
    "measure_for",
    "path_count",
    "preprocess",
    "resolve_theta",
    "solve_theta_closed",
    "solve_theta_numeric",
    "stats",
    "sweep",
    "top_k",
    "twist",
]
