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
from .graph import AttributedGraph, stats
from .sampling import DEFAULT_PATH_BUDGET, WalkConfig, enumerate_paths
from .twisting import (
    MinInnerProduct,
    SignMin,
    SignProduct,
    TwistConfig,
    achievable_range,
    free_energy_gradient,
    solve_theta_numeric,
    twist,
)
from .centrality import bivariate, influence_closed_form, marginal

WALK_MIXES = (WalkConfig(1.0, 0.0), WalkConfig(0.7, 0.3), WalkConfig(0.0, 1.0))
THETAS = (-2.0, 0.0, 1.5)


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


def run_checks(
    g: AttributedGraph,
    ad_vector=None,
    max_paths: int = DEFAULT_PATH_BUDGET,
) -> list[CheckResult]:
    """Run every applicable property check against the given graph."""
    measures = [SignProduct(), SignMin()]
    if g.attr_dim > 0:
        measures.append(
            MinInnerProduct(ad_vector if ad_vector is not None else np.ones(g.attr_dim))
        )
    results = [
        _check_base_normalization(g, max_paths),
        _check_twisted_normalization(g, measures, max_paths),
        _check_reversibility(g, measures, max_paths),
        _check_bivariate_vs_enumeration(g, measures, max_paths),
        _check_marginal_symmetry(g, measures, max_paths),
        _check_closed_form_marginal(g, max_paths),
        _check_gradient_finite_difference(g, measures, max_paths),
        _check_gamma_round_trip(g, measures, max_paths),
    ]
    return results


# The normalization checks sum with math.fsum: a plain sum of ~3e5 masses
# drifts past their 1e-12 bound from rounding alone.
def _check_base_normalization(g, max_paths) -> CheckResult:
    worst = 0.0
    for walk in WALK_MIXES:
        total = math.fsum(p.base_prob for p in enumerate_paths(g, walk, max_paths))
        worst = max(worst, abs(total - 1.0))
    return CheckResult("base_walk_normalization", worst <= 1e-12, worst)


def _check_twisted_normalization(g, measures, max_paths) -> CheckResult:
    worst = 0.0
    for measure, walk, theta in _configs(measures):
        _, dist = twist(g, TwistConfig(measure, theta, walk), max_paths)
        worst = max(worst, abs(math.fsum(p for _, p in dist) - 1.0))
    return CheckResult("twisted_normalization", worst <= 1e-12, worst)


def _check_reversibility(g, measures, max_paths) -> CheckResult:
    worst = 0.0
    for measure, walk, theta in _configs(measures):
        _, dist = twist(g, TwistConfig(measure, theta, walk), max_paths)
        by_nodes = {path.nodes: prob for path, prob in dist}
        for nodes, prob in by_nodes.items():
            worst = max(worst, abs(prob - by_nodes[nodes[::-1]]))
    return CheckResult("twisted_reversibility", worst <= 1e-12, worst)


def _check_bivariate_vs_enumeration(g, measures, max_paths) -> CheckResult:
    worst = 0.0
    for measure, walk, theta in _configs(measures):
        b = bivariate(g, TwistConfig(measure, theta, walk), max_paths)
        oracle = endpoint_grouped(g, TwistConfig(measure, theta, walk), max_paths)
        worst = max(worst, pair_mass_deviation(b.to_dict(), oracle))
    return CheckResult("pair_distribution_vs_enumeration", worst <= 1e-12, worst)


def _check_marginal_symmetry(g, measures, max_paths) -> CheckResult:
    worst = 0.0
    for measure, walk, theta in _configs(measures):
        b = bivariate(g, TwistConfig(measure, theta, walk), max_paths)
        worst = max(worst, float(np.max(np.abs(b.start_marginal() - b.end_marginal()))))
    return CheckResult("marginal_symmetry", worst <= 1e-12, worst)


def _check_closed_form_marginal(g, max_paths) -> CheckResult:
    graph_stats = stats(g)
    walk = WalkConfig(1.0, 0.0)
    worst = 0.0
    for theta in THETAS:
        closed = influence_closed_form(graph_stats, theta)
        piped = marginal(bivariate(g, TwistConfig(SignProduct(), theta, walk), max_paths))
        worst = max(worst, float(np.max(np.abs(closed.scores - piped.scores))))
    return CheckResult("closed_form_marginal", worst <= 1e-12, worst)


def _check_gradient_finite_difference(g, measures, max_paths) -> CheckResult:
    step = 1e-5
    worst = 0.0
    for measure, walk, theta in _configs(measures):
        cfg = TwistConfig(measure, theta, walk)
        grad = free_energy_gradient(g, cfg, max_paths)
        f_hi, _ = twist(g, TwistConfig(measure, theta + step, walk), max_paths)
        f_lo, _ = twist(g, TwistConfig(measure, theta - step, walk), max_paths)
        fd = (f_hi.free_energy - f_lo.free_energy) / (2 * step)
        worst = max(worst, abs(grad - fd) / max(1.0, abs(grad)))
    return CheckResult("free_energy_gradient_vs_finite_difference", worst <= 1e-6, worst)


def _check_gamma_round_trip(g, measures, max_paths) -> CheckResult:
    worst = 0.0
    solved_any = False
    for measure in measures:
        for walk in WALK_MIXES:
            try:
                fmin, fmax = achievable_range(g, measure, walk, max_paths)
                if fmax - fmin <= 0:
                    continue
                for frac in (0.25, 0.5, 0.8):
                    gamma = fmin + frac * (fmax - fmin)
                    theta = solve_theta_numeric(g, measure, walk, gamma, max_paths=max_paths)
                    back = free_energy_gradient(g, TwistConfig(measure, theta, walk), max_paths)
                    worst = max(worst, abs(back - gamma))
                    solved_any = True
            except TwistrankError:
                continue
    if not solved_any:
        return CheckResult(
            "gamma_round_trip", True, 0.0, "skipped: no steerable measure on this graph"
        )
    return CheckResult("gamma_round_trip", worst <= 1e-10, worst)


def endpoint_grouped(g, cfg, max_paths=DEFAULT_PATH_BUDGET) -> dict[tuple[int, int], float]:
    """Brute-force pair masses: twisted path masses grouped by endpoints."""
    _, dist = twist(g, cfg, max_paths)
    grouped: dict[tuple[int, int], float] = {}
    for path, prob in dist:
        key = (path.nodes[0], path.nodes[-1])
        grouped[key] = grouped.get(key, 0.0) + prob
    return grouped


def pair_mass_deviation(a: dict, b: dict) -> float:
    """Largest absolute difference between two sparse pair-mass maps."""
    worst = 0.0
    for key in set(a) | set(b):
        worst = max(worst, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    return worst


def _configs(measures):
    for measure in measures:
        for walk in WALK_MIXES:
            for theta in THETAS:
                yield measure, walk, theta
