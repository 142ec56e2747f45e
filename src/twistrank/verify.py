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
from .graph import AttributedGraph, _contains, _index_dtype
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
from .centrality import (BivariateDistribution, TiltModel, bivariate, influence_closed_form,
                         marginal)

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
        ad = MinInnerProduct(ad_vector if ad_vector is not None else np.ones(g.attr_dim))
        TiltModel(g, ad).capped_rows  # a score that is not finite fails before the oracle
        measures.append(ad)
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
    # Neither depends on theta, so both are built once per table.
    reverse, (codes, pair) = _reverse_index(table), _endpoint_pairs(table)
    if base:
        yield "base_walk_normalization", _mass_error(table.p0), ""
    for theta in THETAS:
        result, probs = twist(table, theta)
        yield "twisted_normalization", _mass_error(probs), ""
        reversal = float(np.max(np.abs(probs - probs[reverse]), initial=0.0))
        yield "twisted_reversibility", reversal, ""
        b = bivariate(model, theta)
        oracle = BivariateDistribution(table.n, codes, np.bincount(pair, weights=probs))
        yield "pair_distribution_vs_enumeration", pair_mass_deviation(b, oracle), ""
        yield "marginal_symmetry", float(np.max(np.abs(b.start_marginal() - b.end_marginal()))), ""
        piped = marginal(b).scores
        del b, oracle  # before the next theta's pair assembly, which sets the peak memory
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


def _reverse_index(table) -> np.ndarray:
    """Row of each walk's reverse among the rows of ``table.walks``, length-1
    block first, in the narrowest index type that holds them."""
    one, two = table.walks
    # The length-1 walks are the CSR entries, whose codes u * n + w ascend;
    # the reverse of (u, w) is the mirror entry (w, u).
    u, w = one.astype(np.int64).T
    mirror = np.searchsorted(u * table.n + w, w * table.n + u)
    # The walks through a middle node of degree k are a block of k * k rows,
    # where (u, v, w) is row a * k + b and its reverse (w, v, u) row b * k + a.
    _, start, size = np.unique(two[:, 1], return_index=True, return_counts=True)
    start, k = np.repeat(start, size), np.repeat(np.sqrt(size).astype(np.int64), size)
    a, b = np.divmod(np.arange(len(two)) - start, k)
    return np.concatenate([mirror, len(one) + start + b * k + a],
                          dtype=_index_dtype(len(one) + len(two)))


def endpoint_grouped(table, theta: float) -> BivariateDistribution:
    """Brute-force pair masses: a table's twisted walk masses grouped by endpoints.

    Each pair's mass adds its walks' masses in walk order.
    """
    codes, pair = _endpoint_pairs(table)
    return BivariateDistribution(table.n, codes, np.bincount(pair, weights=twist(table, theta)[1]))


def _endpoint_pairs(table) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct endpoint codes ``u * n + w`` of a table's walks,
    and the position of each walk's code among them."""
    codes = np.concatenate([w[:, 0].astype(np.int64) * table.n + w[:, -1] for w in table.walks])
    codes, pair = np.unique(codes, return_inverse=True)
    return codes, pair.astype(_index_dtype(codes.size))


def pair_mass_deviation(a: BivariateDistribution, b: BivariateDistribution) -> float:
    """Largest absolute difference between the pair masses of two distributions."""
    shared = _contains(a.codes, b.codes)
    gap = a.masses.copy()
    gap[np.searchsorted(a.codes, b.codes[shared])] -= b.masses[shared]
    return float(np.max(np.abs(np.concatenate((gap, b.masses[~shared]))), initial=0.0))
