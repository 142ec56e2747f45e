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
    path_count,
)
from .twisting import (
    MinInnerProduct,
    SignMin,
    SignProduct,
)
from .centrality import (
    CentralityRanking,
    TiltModel,
    centrality,
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
    "TwistrankError",
    "WalkConfig",
    "centrality",
    "degree_ranking",
    "jaccard",
    "load_graph",
    "measure_for",
    "path_count",
    "preprocess",
    "resolve_theta",
    "stats",
    "sweep",
    "top_k",
]
