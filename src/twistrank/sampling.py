"""The base (untwisted) short-walk distribution.

The short random walk picks a start node proportionally to degree and then
walks one step with probability beta1 or two steps with probability beta2.
It is the distribution every centrality tilts; exhaustive enumeration of
its support is the oracle substrate for every twisted quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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


def enumerate_paths(g: AttributedGraph, cfg: WalkConfig) -> Iterator[WalkPath]:
    """Yield every ordered walk of positive mass exactly once.

    Length-1 paths are the ``2 m`` directed edges (emitted when
    ``beta1 > 0``); length-2 paths run over every ordered neighbor pair of
    every middle node, backtracking included (emitted when ``beta2 > 0``).
    The emitted masses sum to 1.  Raises before yielding anything if the
    enumeration would exceed ``DEFAULT_PATH_BUDGET`` walks.
    """
    if g.m == 0:
        raise GraphError("cannot enumerate paths of an edgeless graph")
    _check_budget(g, cfg)
    return _iter_paths(g, cfg)


def _iter_paths(g: AttributedGraph, cfg: WalkConfig) -> Iterator[WalkPath]:
    indptr, indices, _ = g.csr()
    indptr, indices = indptr.tolist(), indices.tolist()
    rows = [indices[start:stop] for start, stop in zip(indptr, indptr[1:])]
    two_m = 2 * g.m
    if cfg.beta1 > 0:
        p1 = cfg.beta1 / two_m
        for u, nb in enumerate(rows):
            for w in nb:
                yield WalkPath((u, w), p1)
    if cfg.beta2 > 0:
        for v, nb in enumerate(rows):
            if not nb:
                continue
            p2 = cfg.beta2 / (two_m * len(nb))
            for u in nb:
                for w in nb:
                    yield WalkPath((u, v, w), p2)
