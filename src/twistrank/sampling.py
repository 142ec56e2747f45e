"""The base (untwisted) short-walk distribution.

The short random walk picks a start node proportionally to degree and then
walks one step with probability beta1 or two steps with probability beta2.
It is the distribution every centrality tilts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError
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
    """Number of walks :func:`twistrank.verify.enumerate_paths` would yield."""
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


# perfbench/spans.py still looks oracle functions up in sampling, twisting and
# centrality.  Their forwards to twistrank.verify, where the oracle lives, go
# once ROADMAP item 1 names that module in SPANS.
def __getattr__(name):
    if name == "enumerate_paths":
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
