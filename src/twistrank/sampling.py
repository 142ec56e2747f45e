"""The base (untwisted) short-walk distribution.

The short random walk picks a start node proportionally to degree and then
walks one step with probability beta1 or two steps with probability beta2.
It is the distribution every centrality tilts; exhaustive enumeration of
its support is the oracle substrate for every twisted quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError, GraphError
from .graph import AttributedGraph

DEFAULT_PATH_BUDGET = 20_000_000


@dataclass(frozen=True)
class WalkConfig:
    """Mixing weights of the short random walk.

    ``beta1`` is the probability of walking one step, ``beta2`` of walking
    two; they must be finite, nonnegative and sum to 1.
    """

    beta1: float = 1.0
    beta2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta1) and math.isfinite(self.beta2)):
            raise ValueError(f"beta1 and beta2 must be finite, got {self.beta1} and {self.beta2}")
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("beta1 and beta2 must be nonnegative")
        if abs(self.beta1 + self.beta2 - 1.0) > 1e-12:
            raise ValueError(
                f"beta1 + beta2 must equal 1, got {self.beta1} + {self.beta2}"
            )


def path_count(g: AttributedGraph, cfg: WalkConfig) -> int:
    """Number of paths :func:`enumerate_paths` would yield."""
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
