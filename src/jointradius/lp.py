"""Convex-hull membership by nonnegative least squares.

Decides whether a target vector is a convex combination of finitely many
points and returns the weights.  With A = [P^T; 1^T] and b = [target; 1],
the target lies in the hull exactly when min ||A t - b|| over t >= 0 is
zero; that problem is solved by the Lawson-Hanson active-set method
(Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23) after each
row is scaled by its max-abs entry.  At an infeasible instance the
residual b - A t, divided by the row scales, separates: its point part h
and its last entry c satisfy <h, v_j> + c <= 0 < <h, target> + c (up to
the active-set tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDescriptor

LP_TOL = 1e-9  # bound on the scaled L1 residual and on the re-substitution error
ACTIVE_TOL = 1e-12  # gradient and coefficient threshold of the active set


@dataclass(frozen=True)
class HullProblem:
    points: tuple  # m real vectors of dimension k
    target: tuple  # real vector of dimension k

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        tgt = np.asarray(self.target, dtype=float).reshape(-1)
        if pts.shape[0] < 1:
            raise DimensionMismatch("need at least one point")
        if pts.shape[1] != tgt.shape[0]:
            raise DimensionMismatch("points and target dimensions differ")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tgt))):
            raise InvalidDescriptor("hull points and target must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "target", tgt)


@dataclass(frozen=True)
class HullResult:
    feasible: bool
    weights: np.ndarray | None


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set solution of min ||A t - b|| over t >= 0."""
    m = A.shape[1]
    t = np.zeros(m)
    free = np.zeros(m, dtype=bool)
    for _ in range(3 * m):
        grad = np.where(free, -np.inf, A.T @ (b - A @ t))
        j = int(np.argmax(grad))
        if grad[j] <= ACTIVE_TOL:
            break
        free[j] = True
        while True:
            s = np.zeros(m)
            s[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
            back = free & (s <= 0)
            if not back.any():
                break
            # step from t toward s until the first coefficient reaches 0;
            # the floor turns the 0/0 of a freed column with s = 0 into 0
            ratios = t[back] / np.maximum(t[back] - s[back], np.finfo(float).tiny)
            k = np.argmin(ratios)
            t += ratios[k] * (s - t)
            t[np.flatnonzero(back)[k]] = 0.0
            free &= t > ACTIVE_TOL
        t = s
    return t


def hull_membership(prob: HullProblem) -> HullResult:
    pts = prob.points
    tgt = prob.target
    # rows: k equality constraints plus the convexity row, each divided by
    # its max-abs entry
    A = np.vstack([pts.T, np.ones(len(pts))])
    b = np.append(tgt, 1.0)
    scale = np.maximum(np.max(np.abs(A), axis=1), np.abs(b))
    scale[scale == 0] = 1.0
    A /= scale[:, None]
    b /= scale

    weights = _nnls(A, b)
    # the L1 residual of the scaled rows is the phase-I objective of the LP
    # form; at t = 0 the convexity row alone leaves a residual of 1
    if np.sum(np.abs(A @ weights - b)) > LP_TOL:
        return HullResult(feasible=False, weights=None)
    weights /= weights.sum()
    # re-substitution check against the original, unscaled data
    if np.max(np.abs(pts.T @ weights - tgt)) > LP_TOL * max(1.0, float(np.max(np.abs(pts)))):
        return HullResult(feasible=False, weights=None)
    return HullResult(feasible=True, weights=weights)
