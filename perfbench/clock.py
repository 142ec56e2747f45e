"""Timing that corrects for how fast the machine runs at the moment.

On a shared VM the same code runs up to 1.7x slower from one second to the
next, and the level drifts over minutes.  Each timed interval is therefore
bracketed by a fixed reference loop, and reported in seconds at a nominal
speed: ``elapsed * REF_NOMINAL_S / mean(reference before, after)``.  The
reference allocates no containers, so the garbage collector and the size of
the heap do not change its time.
"""

from __future__ import annotations

import time

REF_NOMINAL_S = 0.05    # reference loop time that defines the nominal speed


def reference_s() -> float:
    """Seconds taken by the fixed reference loop, right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(600_000):
        x += (i * 7) % 13
    return time.perf_counter() - t0


def timed(fn, *args, **kwargs):
    """Call ``fn``; return its result, wall seconds and nominal seconds."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    after = reference_s()
    return result, wall, wall * REF_NOMINAL_S / (0.5 * (before + after))
