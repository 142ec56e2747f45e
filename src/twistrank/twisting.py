"""Exponential change of measure over short walks.

Given the base short-walk distribution p0 and a scalar path measure f, the
tilted distribution p(r) = C * exp(theta * f(r)) * p0(r) is the closest
distribution to p0 in Kullback-Leibler divergence among those whose mean
path measure hits a prescribed target.  This module defines the path
measures, computes the tilt in the log domain, and solves for the scalar
temperature theta at which the mean measure, the derivative of the free
energy F = log(1/C), hits a target: on a table of atoms (values and
masses), in closed form for two atoms, by Newton iteration otherwise.  One
function, :func:`_solve_scalar`, solves every target of production and of
the enumeration oracle in :mod:`twistrank.verify`: it checks the target,
frames the atoms (:func:`_frame`) and picks the closed form or Newton.
Production never evaluates a measure on a walk; the oracle does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, GraphError, SolveError
from .graph import AttributedGraph

# Newton iteration: tolerance on the mean measure, and step limit.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 200


class SignProduct:
    """Product of the edge signs along a path; always +1 or -1.

    A length-2 path through two negative edges evaluates to +1, which is the
    friend-of-friend / enemy-of-enemy propagation rule behind influence
    scoring.
    """


class SignMin:
    """Minimum edge sign along a path: -1 unless every traversed edge is positive.

    A path counts as fully trusted only when it is a chain of positive
    edges, so one negative edge poisons the whole walk.
    """


class MinInnerProduct:
    """Minimum, over the path's nodes, of the inner product with a score vector.

    The score vector plays the role of an advertisement profile over topics;
    a walk is only as receptive as its least receptive node.
    """

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)
        if self.scores.ndim != 1 or self.scores.size == 0:
            raise ValueError("score vector must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("score vector must be finite")

    def node_scores(self, graph: AttributedGraph) -> np.ndarray:
        """Inner product of every node's attribute vector with the score vector.

        It is a numpy multiply-and-sum, not a BLAS product, so neither the BLAS
        kernel nor its thread count decides a bit of it.  Finite attributes
        can still overflow it: such a score is +-inf or NaN, without a
        warning.  ``TiltModel.capped_rows`` rejects them.
        """
        self._check_dim(graph)
        with np.errstate(over="ignore", invalid="ignore"):
            return (graph.node_attrs * self.scores).sum(axis=1)

    def _check_dim(self, graph: AttributedGraph) -> None:
        if graph.attr_dim != self.scores.size:
            raise GraphError(
                f"score vector has dimension {self.scores.size} but node "
                f"attributes have dimension {graph.attr_dim}"
            )


def theta_value(theta) -> float:
    """``theta`` as a float; arrays and non-finite values are rejected."""
    if np.ndim(theta) != 0:
        raise ValueError(f"theta must be a scalar, got dimension {np.ndim(theta)}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return theta


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) of a nonempty array of finite values.

    The shifted form of Blanchard, Higham & Higham, "Accurately computing
    the log-sum-exp and softmax functions" (IMA J. Numer. Anal. 41(4),
    2021): the entries tied at the maximum leave the sum as a count, and
    the rest enter through log1p.
    """
    top = x.max()
    at_top = x == top
    count = np.count_nonzero(at_top)
    rest = np.exp(np.where(at_top, -np.inf, x) - top).sum()
    return float(np.log1p(rest / count) + np.log(count) + top)


def _tilt(f: np.ndarray, logp0: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    logw = theta * f + logp0
    log_z = _logsumexp(logw)
    return log_z, np.exp(logw - log_z)


def _two_atom_theta(lo: float, hi: float, mass_lo: float, mass_hi: float, gamma: float) -> float:
    # With Z = mass_lo e^(theta lo) + mass_hi e^(theta hi), the mean hits gamma
    # where mass_lo e^(theta lo) (gamma - lo) = mass_hi e^(theta hi) (hi - gamma).
    return math.log(mass_lo * (gamma - lo) / (mass_hi * (hi - gamma))) / (hi - lo)


class AtomSolver:
    """The positive-mass atoms of a ``TiltModel.atoms`` table, ready for any target.

    The atoms are filtered and their masses logged once, and the tilted
    ``(mean, variance)`` is kept at every theta a solve visits (framed, as in
    :func:`_frame`).  The targets of a sweep then share the bracket points 0,
    +-1, +-2, ... rather than recomputing them.  A memo entry is the value a
    fresh evaluation would give, so each target's Newton path and theta are
    those of its own solve.
    """

    def __init__(self, values: np.ndarray, masses: np.ndarray):
        keep = masses > 0
        self.f, self.p = values[keep], masses[keep]
        self.logp = np.log(self.p)
        self.moments: dict[float, tuple[float, float]] = {}

    def theta(self, gamma: float) -> float:
        """Solve mean(theta) = gamma by :func:`_solve_scalar`: the one solver
        of ``TiltModel.theta``, for every measure and walk mix."""
        return _solve_scalar(self.f, self.p, self.logp, gamma, self.moments)


def _check_target(fmin: float, fmax: float, gamma: float) -> None:
    # sweep.json records these messages per failing target.
    if fmin == fmax:
        raise SolveError(
            f"measure is constant ({fmin}) on the support; "
            "the mean cannot be steered and the Hessian is singular"
        )
    if not fmin < gamma < fmax:
        raise SolveError(
            f"target mean {gamma} is outside the achievable range "
            f"({fmin}, {fmax}) (open interval)"
        )


def _scalar_grad_var(f: np.ndarray, logp0: np.ndarray, theta: float) -> tuple[float, float]:
    # numpy sums, not BLAS dot products, so that theta's bits do not depend
    # on the BLAS kernel or thread count.
    _, p = _tilt(f, logp0, theta)
    grad = float((p * f).sum())
    var = float((p * (f - grad) ** 2).sum())
    return grad, var


def _frame(lo: float, hi: float) -> tuple[float, int]:
    """``(shift, k)``: atoms in ``[lo, hi]`` are solved and tilted as
    ``(f - shift) * 2^-k``, and the root times 2^-k is theta.

    ``k`` puts the width ``hi - lo`` in [0.5, 1), or is 0 while the width lies
    in [2^-10, 2^10), which keeps theta's bits at ordinary scales.  A power of
    two scales exactly, so ``NEWTON_TOL``, the bracket limits and the closed
    form's ``hi - lo`` (which could overflow) hold at any scale of the atoms.
    Finite atoms are below 2^1024 in size, so a width that overflows is below
    2^1025.  ``shift`` is the end nearest 0 when the atoms lie more than one
    width from 0, else 0: unshifted, theta times an atom would round at the
    offset's scale, and the mean could not settle within ``NEWTON_TOL``, nor a
    tilt tell the atoms apart.  Every atom and target then lies within a
    factor of 2 of the shift, so by Sterbenz's lemma each difference from it
    is exact: gamma - lo, hi - gamma and hi - lo are the same floats shifted
    or not.
    """
    width = hi - lo
    shift = lo if lo > width else hi if hi < -width else 0.0
    k = math.frexp(width)[1] if math.isfinite(width) else 1025
    return shift, 0 if -9 <= k <= 10 else k


def _solve_scalar(f: np.ndarray, p: np.ndarray, logp: np.ndarray, gamma: float,
                  moments: dict) -> float:
    """Root of mean(theta) = gamma on the atoms ``f`` with masses ``p`` and log
    masses ``logp``: the one temperature solve, of production and the oracle.

    The target must lie strictly inside the atoms' range (the messages of
    :func:`_check_target`).  The solve runs on the atoms and gamma framed by
    :func:`_frame`, and its root times 2^-k is theta.  Two atoms are solved in
    closed form; more by Newton iteration inside a bracket, with a bisection
    fallback.  The bracket runs from 0 to the first of +-1, +-2, +-4, ... on
    the root's side where the mean passes gamma; a root beyond 10^6 on the
    framed atoms fails to bracket, with a ``ConvergenceError``.  ``moments``
    keeps the tilted ``(mean, variance)`` at every framed root visited.  A
    failure reports its residual in the atoms' own scale.
    """
    gamma = float(gamma)
    lo, hi = float(f.min()), float(f.max())
    _check_target(lo, hi, gamma)
    shift, k = _frame(lo, hi)
    if shift:
        f, gamma = f - shift, gamma - shift
    f, gamma = np.ldexp(f, -k), math.ldexp(gamma, -k)
    if f.size == 2:
        (lo, hi), (mass_lo, mass_hi) = f.tolist(), p.tolist()
        return math.ldexp(_two_atom_theta(lo, hi, mass_lo, mass_hi, gamma), -k)

    def residual(t: float) -> tuple[float, float]:
        # -0.0 and 0.0 share a key; both give logw = theta * f + logp bit for bit.
        if t not in moments:
            moments[t] = _scalar_grad_var(f, logp, t)
        grad, var = moments[t]
        return grad - gamma, var

    theta = 0.0
    r, var = residual(theta)
    if abs(r) <= NEWTON_TOL:
        return math.ldexp(_polish_scalar(residual, theta, r, var), -k)

    # Bracket the root on its side of 0: the gradient is nondecreasing in
    # theta, so double a step of -1 (r > 0) or +1 until r changes sign.
    step = -1.0 if r > 0.0 else 1.0
    far = step
    r_far, _ = residual(far)
    while r_far * step < 0.0:
        far *= 2.0
        if abs(far) > 1e6:
            side = "below" if step < 0.0 else "above"
            raise ConvergenceError(f"failed to bracket the temperature from {side}",
                                   math.ldexp(r_far, k))
        r_far, _ = residual(far)
    lo, hi = sorted((far, theta))

    for _ in range(NEWTON_MAX_ITER):
        candidate = theta - r / var if var > 0.0 else None
        if candidate is None or not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        theta = candidate
        r, var = residual(theta)
        if abs(r) <= NEWTON_TOL:
            return math.ldexp(_polish_scalar(residual, theta, r, var), -k)
        if r > 0.0:
            hi = theta
        else:
            lo = theta
        if hi - lo <= 1e-16 * max(1.0, abs(theta)):
            break
    raise ConvergenceError("temperature solve did not converge", math.ldexp(abs(r), k))


def _polish_scalar(residual, theta, r, var) -> float:
    # One extra Newton step tightens the residual to machine precision,
    # which keeps theta accurate even where the gradient saturates.
    if var > 0.0 and r != 0.0:
        candidate = theta - r / var
        r2, _ = residual(candidate)
        if abs(r2) < abs(r):
            return candidate
    return theta


# Forwarded to the oracle for perfbench/spans.py, as in sampling.py.
def __getattr__(name):
    if name in ("solve_theta_closed", "solve_theta_numeric"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
