"""Self-verification: oracle cross-checks runnable on any desk-scale graph.

Each check recomputes a quantity along two independent routes (structural
summation vs path enumeration, analytic gradient vs finite differences,
closed form vs pipeline) and reports the largest observed deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TwistrankError
from .graph import AttributedGraph
from .sampling import WalkConfig
from .twisting import (
    MinInnerProduct,
    SignMin,
    SignProduct,
    achievable_range,
    path_table,
    solve_theta_numeric,
    twist,
)
from .centrality import TiltModel, bivariate, influence_closed_form, marginal

WALK_MIXES = (WalkConfig(1.0, 0.0), WalkConfig(0.7, 0.3), WalkConfig(0.0, 1.0))
THETAS = (-2.0, 0.0, 1.5)
FD_STEP = 1e-5

# Check name -> bound on its max error, in report order.
BOUNDS = {
    "base_walk_normalization": 1e-12,
    "twisted_normalization": 1e-12,
    "twisted_reversibility": 1e-12,
    "pair_distribution_vs_enumeration": 1e-12,
    "marginal_symmetry": 1e-12,
    "closed_form_marginal": 1e-12,
    "free_energy_gradient_vs_finite_difference": 1e-6,
    "gamma_round_trip": 1e-10,
    "ranking_vs_pair_marginal": 1e-12,
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {status} max error {self.max_error:.3e}{suffix}"


def run_checks(g: AttributedGraph, ad_vector=None) -> list[CheckResult]:
    """Run every applicable property check against the given graph.

    The checks loop over (measure, walk) pairs.  Each pair's path table is
    enumerated once, serves every check at every theta, and is released
    before the next pair's is built.
    """
    measures = [SignProduct(), SignMin()]
    if g.attr_dim > 0:
        measures.append(
            MinInnerProduct(ad_vector if ad_vector is not None else np.ones(g.attr_dim))
        )
    worst: dict[str, float] = {}
    details: dict[str, str] = {}
    for measure in measures:
        for walk in WALK_MIXES:
            for name, error, detail in _pair_errors(g, measure, walk, measure is measures[0]):
                # A NaN error sticks, so the check fails instead of skipping it.
                if name not in worst or math.isnan(error) or error > worst[name]:
                    worst[name] = error
                if detail:
                    details.setdefault(name, detail)
    return [
        CheckResult(name, worst[name] <= bound, worst[name], details.get(name, ""))
        if name in worst
        else CheckResult(name, True, 0.0, "skipped: no steerable measure on this graph")
        for name, bound in BOUNDS.items()
    ]


# The normalization checks sum with math.fsum: a plain sum of ~3e5 masses
# drifts past their 1e-12 bound from rounding alone.
def _mass_error(masses) -> float:
    """Distance from 1 of the exactly rounded sum of ``masses``."""
    return abs(math.fsum(masses) - 1.0)


def _pair_errors(g, measure, walk, base):
    """Yield ``(check, error, detail)`` for every check on one (measure, walk) pair."""
    table = path_table(g, measure, walk)
    model = TiltModel(g, measure, walk)
    if base:
        yield "base_walk_normalization", _mass_error(p.base_prob for p in table.paths), ""
    for theta in THETAS:
        result, probs = twist(table, theta)
        yield "twisted_normalization", _mass_error(probs), ""
        yield "twisted_reversibility", _reversal_error(table, probs), ""
        b = bivariate(model, theta)
        oracle = endpoint_grouped(table, theta)
        yield "pair_distribution_vs_enumeration", pair_mass_deviation(b.to_dict(), oracle), ""
        yield "marginal_symmetry", float(np.max(np.abs(b.start_marginal() - b.end_marginal()))), ""
        piped = marginal(b).scores
        if isinstance(measure, SignProduct) and walk == WalkConfig(1.0, 0.0):
            closed = influence_closed_form(model.stats, theta).scores
            yield "closed_form_marginal", float(np.max(np.abs(closed - piped))), ""
        fast = model.ranking(theta).scores
        yield "ranking_vs_pair_marginal", float(np.max(np.abs(fast - piped))), ""
        grad = result.mean_measure
        f_hi, _ = twist(table, theta + FD_STEP)
        f_lo, _ = twist(table, theta - FD_STEP)
        fd = (f_hi.free_energy - f_lo.free_energy) / (2 * FD_STEP)
        yield "free_energy_gradient_vs_finite_difference", abs(grad - fd) / max(1.0, abs(grad)), ""

    # A constant measure cannot be steered, so its round trip is skipped; a
    # solve that fails on a target inside the range fails the check.
    fmin, fmax = achievable_range(table)
    if fmax - fmin <= 0:
        return
    for frac in (0.25, 0.5, 0.8):
        gamma = fmin + frac * (fmax - fmin)
        try:
            theta = solve_theta_numeric(table, gamma)
        except TwistrankError as exc:
            where = f"{type(measure).__name__} at beta=({walk.beta1}, {walk.beta2})"
            yield "gamma_round_trip", math.inf, f"solve failed: {where}, gamma={gamma!r}: {exc}"
            continue
        yield "gamma_round_trip", abs(twist(table, theta)[0].mean_measure - gamma), ""


def _reversal_error(table, probs) -> float:
    """Largest difference between the tilted masses of a walk and its reverse."""
    by_nodes = dict(zip((p.nodes for p in table.paths), probs.tolist()))
    return max(
        (abs(prob - by_nodes[nodes[::-1]]) for nodes, prob in by_nodes.items()), default=0.0
    )


def endpoint_grouped(table, theta: float) -> dict[tuple[int, int], float]:
    """Brute-force pair masses: a table's twisted path masses grouped by endpoints."""
    _, probs = twist(table, theta)
    grouped: dict[tuple[int, int], float] = {}
    for path, prob in zip(table.paths, probs.tolist()):
        key = (path.nodes[0], path.nodes[-1])
        grouped[key] = grouped.get(key, 0.0) + prob
    return grouped


def pair_mass_deviation(a: dict, b: dict) -> float:
    """Largest absolute difference between two sparse pair-mass maps."""
    worst = 0.0
    for key in set(a) | set(b):
        worst = max(worst, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    return worst
