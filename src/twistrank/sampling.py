"""The base (untwisted) short-walk distribution.

The short random walk picks a start node proportionally to degree and then
walks one step with probability beta1 or two steps with probability beta2.
It is the distribution every centrality tilts; exhaustive enumeration of
its support is the oracle substrate for every twisted quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EnumerationBudgetError, GraphError
from .graph import AttributedGraph

DEFAULT_PATH_BUDGET = 20_000_000


@dataclass(frozen=True)
class WalkPath:
    """A concrete walk of length 1 or 2 with its base probability mass."""

    nodes: tuple[int, ...]
    base_prob: float


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


def base_walk_prob(g: AttributedGraph, cfg: WalkConfig, r: WalkPath | Sequence[int]) -> float:
    """Mass of a length-1 or length-2 path under the short random walk.

    Length 1: beta1 / (2 m) if the edge exists.  Length 2: beta2 / (2 m)
    divided by the degree of the middle node, if both edges exist.  The
    formula is symmetric under path reversal.
    """
    nodes = _nodes_of(r)
    if len(nodes) == 2:
        u1, u2 = nodes
        if g.m == 0 or u1 == u2 or not g.has_edge(u1, u2):
            return 0.0
        return cfg.beta1 / (2 * g.m)
    if len(nodes) == 3:
        u1, u2, u3 = nodes
        if g.m == 0 or u1 == u2 or u2 == u3:
            return 0.0
        if not (g.has_edge(u1, u2) and g.has_edge(u2, u3)):
            return 0.0
        return cfg.beta2 / (2 * g.m * g.degree(u2))
    raise ValueError(f"walk paths have 2 or 3 nodes, got {len(nodes)}")


def path_count(g: AttributedGraph, cfg: WalkConfig) -> int:
    """Number of paths :func:`enumerate_paths` would yield."""
    count = 0
    if cfg.beta1 > 0:
        count += 2 * g.m
    if cfg.beta2 > 0:
        degree = np.diff(g.csr()[0])
        count += int(degree @ degree)
    return count


def enumerate_paths(
    g: AttributedGraph,
    cfg: WalkConfig,
    max_paths: int = DEFAULT_PATH_BUDGET,
) -> Iterator[WalkPath]:
    """Yield every ordered walk of positive mass exactly once.

    Length-1 paths are the ``2 m`` directed edges (emitted when
    ``beta1 > 0``); length-2 paths run over every ordered neighbor pair of
    every middle node, backtracking included (emitted when ``beta2 > 0``).
    The emitted masses sum to 1.  Raises before yielding anything if the
    enumeration would exceed ``max_paths``.
    """
    if g.m == 0:
        raise GraphError("cannot enumerate paths of an edgeless graph")
    required = path_count(g, cfg)
    if required > max_paths:
        raise EnumerationBudgetError(required, max_paths)
    return _iter_paths(g, cfg)


def _iter_paths(g: AttributedGraph, cfg: WalkConfig) -> Iterator[WalkPath]:
    two_m = 2 * g.m
    if cfg.beta1 > 0:
        p1 = cfg.beta1 / two_m
        for u in range(g.n):
            for w in g.neighbors(u):
                yield WalkPath((u, int(w)), p1)
    if cfg.beta2 > 0:
        for v in range(g.n):
            nb = g.neighbors(v)
            if nb.size == 0:
                continue
            p2 = cfg.beta2 / (two_m * nb.size)
            for u in nb:
                for w in nb:
                    yield WalkPath((int(u), v, int(w)), p2)


def _nodes_of(r: WalkPath | Sequence[int] | Iterable[int]) -> tuple[int, ...]:
    if isinstance(r, WalkPath):
        return r.nodes
    return tuple(int(x) for x in r)
