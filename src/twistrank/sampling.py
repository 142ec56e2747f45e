"""The base (untwisted) short-walk distribution.

The short random walk picks a start node proportionally to degree and then
walks one step with probability beta1 or two steps with probability beta2.
It is the distribution every centrality tilts.  Its walks are enumerated,
counted and budgeted by the oracle in :mod:`twistrank.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


# perfbench/spans.py and perfbench/child.py still look these oracle functions
# up in sampling, twisting and centrality.  Their forwards to twistrank.verify,
# where the oracle lives, go once ROADMAP item 1 names that module in SPANS.
# DEFAULT_PATH_BUDGET is not forwarded: setting it here would change nothing.
def __getattr__(name):
    if name in ("enumerate_paths", "path_count"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
