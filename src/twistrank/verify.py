"""Self-verification: the enumeration oracle and the cross-checks against it.

The oracle computes each quantity from every walk or endpoint pair; ``rank``,
``sweep`` and ``preprocess`` never import it.  It alone counts and enumerates
the walks, within a budget, and evaluates the path measures on them
(:func:`walk_values`).  Each check recomputes a
quantity along two independent routes (structural summation vs path
enumeration, analytic gradient vs finite differences, closed form vs
pipeline) and reports the largest observed deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError, GraphError, SolveError, TwistrankError
from .graph import AttributedGraph, GraphStats, _contains, _index_dtype
from .sampling import WalkConfig
from .twisting import (MinInnerProduct, SignMin, SignProduct, _frame, _solve_scalar, _tilt,
                       _two_atom_theta, theta_value)
from .centrality import CentralityRanking, TiltModel

DEFAULT_PATH_BUDGET = 20_000_000

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
    if g.attr_dim > 0 or ad_vector is not None:
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
        piped = b.start_marginal()
        yield "marginal_symmetry", float(np.max(np.abs(piped - b.end_marginal()))), ""
        del b, oracle  # before the next theta's pair assembly, which sets the peak memory
        if isinstance(measure, SignProduct) and walk == WalkConfig(1.0, 0.0):
            closed = influence_closed_form(model.stats, theta).scores
            yield "closed_form_marginal", float(np.max(np.abs(closed - piped))), ""
        fast = model.scores(theta)
        yield "ranking_vs_pair_marginal", float(np.max(np.abs(fast - piped))), ""
        grad = result.mean_measure
        f_hi, _ = twist(table, theta + FD_STEP)
        f_lo, _ = twist(table, theta - FD_STEP)
        fd = (f_hi.free_energy - f_lo.free_energy) / (2 * FD_STEP)
        yield "free_energy_gradient_vs_finite_difference", abs(grad - fd) / max(1.0, abs(grad)), ""

    # A constant measure cannot be steered, so its round trip is skipped, as
    # is a range with no float strictly inside.  A target that rounds onto an
    # end moves one ulp inside; a solve that fails on a target fails the check.
    fmin, fmax = achievable_range(table)
    inner = math.nextafter(fmin, math.inf), math.nextafter(fmax, -math.inf)
    if inner[0] >= fmax:
        return
    for frac in (0.25, 0.5, 0.8):
        gamma = min(max(fmin + frac * (fmax - fmin), inner[0]), inner[1])
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


def path_count(g: AttributedGraph, cfg: WalkConfig) -> int:
    """Number of walks :func:`enumerate_paths` would yield."""
    count = 0
    if cfg.beta1 > 0:
        count += 2 * g.m
    if cfg.beta2 > 0:
        degree = np.bincount(np.concatenate(g.pairs()[:2]), minlength=g.n)
        count += int(degree @ degree)
    return count


def _check_budget(g: AttributedGraph, cfg: WalkConfig) -> None:
    """Raise if ``g`` has more walks than ``DEFAULT_PATH_BUDGET`` (read at call time)."""
    required = path_count(g, cfg)
    if required > DEFAULT_PATH_BUDGET:
        raise EnumerationBudgetError(required, DEFAULT_PATH_BUDGET)


def enumerate_paths(g: AttributedGraph, cfg: WalkConfig) -> tuple:
    """Every ordered walk of positive base mass once, as ``((one, p1), (two, p2))``.

    ``one`` is a ``(2 m, 2)`` int block of the length-1 walks ``(u, w)`` in
    ``g.csr()`` order; ``two`` a ``(sum k_v^2, 3)`` block of the length-2 walks
    ``(u, v, w)``, backtracking included, by ascending middle ``v``, then ``u``,
    then ``w`` over ``v``'s row.  ``p1`` and ``p2`` are each row's base mass and
    sum to 1 together.  A walk whose mass underflows to 0 (as at beta1 =
    5e-324) is left out, and with it its reverse, which has the same middle node
    and mass.  Raises before allocating any walk if there are more than
    ``DEFAULT_PATH_BUDGET``.
    """
    if g.m == 0:
        raise GraphError("cannot enumerate paths of an edgeless graph")
    _check_budget(g, cfg)
    indptr, indices, _ = g.csr()
    nodes = np.arange(g.n, dtype=indices.dtype)
    k = np.diff(indptr)
    two_m = 2 * g.m

    p1 = cfg.beta1 / two_m
    starts = np.repeat(nodes, k if p1 > 0 else 0)
    one = np.column_stack([starts, indices[: starts.size]])

    # The base mass of a two-step walk through v is beta2 / (2 m k_v).
    p2 = np.zeros(g.n)
    np.divide(cfg.beta2, two_m * k, out=p2, where=k > 0)
    size = np.where(p2 > 0, k * k, 0)
    middle = np.repeat(nodes, size)
    # Row j of v's block pairs the (j // k_v)-th and (j % k_v)-th entries of v's row.
    j = np.arange(middle.size) - np.repeat(np.cumsum(size) - size, size)
    first, second = np.divmod(j, k[middle])
    row = indptr[middle]
    two = np.column_stack([indices[row + first], middle, indices[row + second]])
    return (one, np.full(len(one), p1)), (two, p2[middle])


@dataclass(frozen=True)
class TwistResult:
    """Normalization and summary statistics of one tilt.

    ``free_energy`` is log(1/C); ``mean_measure`` is the average path
    measure under the tilted distribution, which equals the derivative of
    the free energy in theta.
    """

    free_energy: float
    mean_measure: float


@dataclass(frozen=True, eq=False)
class PathTable:
    """The enumerated walk support of one graph, measure and walk mix.

    ``walks`` holds the two blocks of :func:`enumerate_paths`: the length-1
    walks as ``(u, w)`` rows and the length-2 walks as ``(u, v, w)`` rows.
    ``f``, ``p0`` and ``logp0`` give the measure, base mass and log base mass
    of every row, the length-1 block first.  ``n`` is the graph's node count.
    None of it depends on theta, so one table serves :func:`twist`,
    :func:`achievable_range` and :func:`solve_theta_numeric` at every
    temperature.
    """

    n: int
    walks: tuple[np.ndarray, np.ndarray]
    f: np.ndarray       # shape (N,)
    p0: np.ndarray      # shape (N,)
    logp0: np.ndarray   # shape (N,)


def path_table(g: AttributedGraph, measure, walk: WalkConfig) -> PathTable:
    """Enumerate every walk of ``walk`` on ``g`` and evaluate ``measure`` on it.

    This is the oracle the vectorised routes are checked against: it holds
    every walk's nodes, so it fails fast with
    :class:`~twistrank.errors.EnumerationBudgetError` when the walk count
    exceeds the default budget of :func:`enumerate_paths`.
    """
    (one, p1), (two, p2) = enumerate_paths(g, walk)
    f = np.concatenate([walk_values(g, measure, one), walk_values(g, measure, two)])
    p0 = np.concatenate([p1, p2])
    # math.log rather than np.log, which can differ from it in the last bit.
    # The masses come in runs, one for the length-1 walks and one per middle
    # node, so each run is logged once.
    start = np.flatnonzero(np.diff(p0, prepend=-1.0))
    logs = [math.log(p) for p in p0[start].tolist()]
    logp0 = np.repeat(logs, np.diff(start, append=p0.size))
    return PathTable(n=g.n, walks=(one, two), f=f, p0=p0, logp0=logp0)


def walk_values(g: AttributedGraph, measure, walks) -> np.ndarray:
    """The measure of each walk of an ``(N, L)`` block of node ids, one walk per row.

    Each step ``u -> w`` is looked up among the CSR entry codes ``row * n +
    col``, which ascend because the rows do and so does each row; a step
    that is not an edge between graph nodes raises :class:`GraphError`, so
    a misindexed enumeration fails here.  The sign measures take the product
    or the minimum of the steps' edge signs.  The advertisement measure
    takes one BLAS dot product per node, not ``node_scores``' multiply-and-sum,
    so that the oracle shares no kernel with production.
    """
    if isinstance(measure, MinInnerProduct):
        measure._check_dim(g)
    walks = np.asarray(walks, dtype=np.int64)
    n = g.n
    indptr, indices, signs = g.csr()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # The int64 maximum follows every code, so each step lands on an entry.
    codes = np.append(rows * n + indices, np.iinfo(np.int64).max)
    u, w = walks[:, :-1], walks[:, 1:]
    steps = u * n + w
    at = np.searchsorted(codes, steps)
    # A node outside 0..n-1 would read another row: (0, n + w) is coded as (1, w).
    missing = (codes[at] != steps) | (np.minimum(u, w) < 0) | (np.maximum(u, w) >= n)
    if missing.any():
        raise GraphError(f"no edge between nodes {u[missing][0]} and {w[missing][0]}")
    if isinstance(measure, SignProduct):
        return signs[at].prod(axis=1).astype(float)
    if isinstance(measure, SignMin):
        return signs[at].min(axis=1).astype(float)
    z = np.array([row @ measure.scores for row in g.node_attrs])
    return z[walks].min(axis=1)


def twist(table: PathTable, theta: float) -> tuple[TwistResult, np.ndarray]:
    """Tilt a path table's base distribution by exp(theta * f).

    Returns the normalization summary and the tilted mass of each walk,
    aligned with the rows of ``table.walks`` (length-1 block first) and
    summing to 1.  All accumulation happens in the log domain, so large
    |theta * f| values do not overflow.  The walk values are shifted as
    ``twisting._frame`` shifts the atoms of a solve, and theta times the
    shift is added back to the free energy.
    """
    theta = theta_value(theta)
    f = table.f
    shift, _ = _frame(float(f.min()), float(f.max()))
    log_z, probs = _tilt(f - shift, table.logp0, theta)
    return TwistResult(free_energy=log_z + theta * shift, mean_measure=float(probs @ f)), probs


def achievable_range(table: PathTable) -> tuple[float, float]:
    """(min, max) of the measure over a path table's support.

    Any target mean strictly between the two is achievable by some finite
    temperature; values on or outside them are not.
    """
    return float(table.f.min()), float(table.f.max())


def solve_theta_closed(graph_stats: GraphStats, gamma: float) -> float:
    """Closed-form temperature for the single-step sign-product regime.

    With only length-1 walks, the mean sign under the tilt is
    (m+ e^theta - m- e^-theta) / (m+ e^theta + m- e^-theta); inverting it
    gives theta = ln sqrt(m- (1 + gamma) / (m+ (1 - gamma))).  Requires both
    positive and negative edges, otherwise the mean sign is constant and no
    finite temperature exists.
    """
    if not -1.0 < gamma < 1.0:
        raise SolveError(f"target mean sign must lie strictly in (-1, 1), got {gamma}")
    if graph_stats.m_pos == 0 or graph_stats.m_neg == 0:
        raise SolveError(
            "closed-form temperature needs both positive and negative edges "
            f"(m+ = {graph_stats.m_pos}, m- = {graph_stats.m_neg})"
        )
    return _two_atom_theta(-1.0, 1.0, graph_stats.m_neg, graph_stats.m_pos, gamma)


def solve_theta_numeric(table: PathTable, gamma: float) -> float:
    """Solve F'(theta) = gamma on a path table's walks, by
    ``twisting._solve_scalar``, the solve of ``TiltModel.theta``.

    The second derivative of the free energy is the variance of the measure
    under the tilt, so the mean is monotone in theta and admits a bisection
    fallback.  The target must lie strictly inside the achievable range
    (see :func:`achievable_range`).  Convergence is declared when the mean
    matches gamma within ``twisting.NEWTON_TOL``, followed by one polishing
    step.
    """
    return _solve_scalar(table.f, table.p0, table.logp0, gamma, {})


@dataclass(frozen=True, eq=False)
class BivariateDistribution:
    """Sparse probability mass over ordered node pairs.

    Only pairs connected by a walk of length 1 or 2 carry mass.  Pairs are
    stored as sorted ``u * n + w`` codes with aligned masses.
    """

    n: int
    codes: np.ndarray
    masses: np.ndarray

    def pair_mass(self, u: int, w: int) -> float:
        code = int(u) * self.n + int(w)  # node ids may come as int32
        i = int(np.searchsorted(self.codes, code))
        if i < self.codes.size and self.codes[i] == code:
            return float(self.masses[i])
        return 0.0

    def start_marginal(self) -> np.ndarray:
        return np.bincount(self.codes // self.n, weights=self.masses, minlength=self.n)

    def end_marginal(self) -> np.ndarray:
        return np.bincount(self.codes % self.n, weights=self.masses, minlength=self.n)


def bivariate(model: TiltModel, theta: float) -> BivariateDistribution:
    """Tilted mass of every ordered node pair, assembled structurally.

    For each pair the mass is C * [exp(theta * f(u, w)) * beta1 / (2 m) when
    the edge exists, plus the sum over middle nodes v of
    exp(theta * f(u, v, w)) * beta2 / (2 m * deg(v))].  Exponents are shifted
    by their maximum before exponentiation, so the normalization survives
    large |theta|.  The pair count grows like the walk count, so a walk mix
    with more than ``DEFAULT_PATH_BUDGET`` walks is rejected.
    """
    g = model.graph
    if g.m == 0:
        raise GraphError("cannot build a pair distribution on an edgeless graph")
    _check_budget(g, model.walk)
    theta = theta_value(theta)

    indptr, indices, signs = g.csr()
    if model.is_sign:
        edge_f = signs.astype(float)
        combine = np.minimum if model.is_min else np.multiply
    else:
        z = model.measure.node_scores(g)
        edge_f = np.minimum(z[np.repeat(np.arange(g.n), np.diff(indptr))], z[indices])
        combine = np.minimum
    codes, exps, wts = _pair_terms(g, model.walk, theta, edge_f, combine)

    shift = exps.max()
    unnorm = np.exp(exps - shift) * wts
    total = unnorm.sum()
    uniq, inverse = np.unique(codes, return_inverse=True)
    masses = np.bincount(inverse, weights=unnorm, minlength=uniq.size) / total
    return BivariateDistribution(n=g.n, codes=uniq, masses=masses)


def _pair_terms(g, walk, theta, edge_f, combine):
    """Pair codes, exponents and base weights of every walk of positive mass.

    ``edge_f`` is the measure of each CSR entry's edge, and ``combine`` joins
    the two edges' values into a two-step walk's measure.  Length-1 terms
    follow the CSR entries; length-2 terms follow the middle nodes' rows, each
    row's ordered entry pairs with the first entry outer.
    """
    indptr, indices, _ = g.csr()
    degree = np.diff(indptr)
    rows = np.repeat(np.arange(g.n), degree)
    inv_2m = 1.0 / (2 * g.m)
    codes, exps, wts = [], [], []
    if walk.beta1 > 0:
        codes.append(rows * g.n + indices)
        exps.append(theta * edge_f)
        wts.append(np.full(indices.size, walk.beta1 * inv_2m))
    if walk.beta2 > 0:
        k = degree[rows]
        first = np.repeat(np.arange(indices.size), k)
        # Entry ``first`` is paired with every entry of its own row in turn.
        second = np.arange(first.size) - np.repeat(np.cumsum(k) - k - indptr[rows], k)
        # int64 codes: the neighbour ids may be int32, and n * n need not fit.
        codes.append(indices[first].astype(np.int64) * g.n + indices[second])
        exps.append(theta * combine(edge_f[first], edge_f[second]))
        wts.append(walk.beta2 * inv_2m / k[first])
    return np.concatenate(codes), np.concatenate(exps), np.concatenate(wts)


def marginal(b: BivariateDistribution) -> CentralityRanking:
    """Start marginal of a pair distribution, as a ranking.

    For the symmetric built-in measures it equals the end marginal.
    """
    return CentralityRanking.from_scores(b.start_marginal())


def influence_closed_form(graph_stats: GraphStats, theta: float) -> CentralityRanking:
    """Single-step influence scores without any enumeration.

    When only length-1 walks are sampled, the sign-product tilt has the
    closed form score(u) = (k_u+ e^theta + k_u- e^-theta) /
    (2 (m+ e^theta + m- e^-theta)).  At theta = 0 this collapses to
    degree / (2 m).
    """
    if graph_stats.m == 0:
        raise GraphError("closed-form scores are undefined on an edgeless graph")
    theta = float(theta)
    # e^theta and e^-theta, both scaled by e^-|theta| so that neither
    # overflows; with edges of one sign, that sign weighs 1 and the other 0.
    ep, en = float(graph_stats.m_pos > 0), float(graph_stats.m_neg > 0)
    if ep and en:
        ep, en = math.exp(theta - abs(theta)), math.exp(-theta - abs(theta))
    scores = graph_stats.pos_degree * ep + graph_stats.neg_degree * en
    return CentralityRanking.from_scores(scores / scores.sum())


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
