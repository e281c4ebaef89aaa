"""Birkhoff-James orthogonality certificates via hull-membership LPs.

T is orthogonal to the scaling family of S (or to a tuple subspace V) exactly
when zero is a convex combination of the per-orbit rows: each orbit's
generator on the direction stack of `_admit` (S's slot tuples
(0, ..., S_i, ..., 0), or V's basis), by `subdiff.evaluate` before its power-of-two
scale-back, which cannot change the verdict.  At one orbit (a
smooth T) this is James's rule (Trans. AMS 61, 1947): orthogonal iff the
unique support functional f vanishes on every direction, decided without the
LP.  Feasible weights form the certificate; on non-exhaustive attaining sets
the verdict is approximate because missed orbits can flip an infeasible LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DependentDirection, EmptyBasis, InvalidCertificate
from .lp import LP_TOL, HullProblem, hull_membership
from .optuples import OperatorTuple
from .radius import RadiusResult
from .spaces import SpaceDescriptor
from .subdiff import _ldexp, _rows, _table

DEPENDENT_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class OrthCertificate:
    weights: tuple  # (orbit_index, t) with t > 0
    residual: float


@dataclass(frozen=True)
class OrthResult:
    orthogonal: bool
    approximate: bool
    certificate: OrthCertificate | None


@dataclass(frozen=True)
class TupleSubspace:
    basis: tuple  # OperatorTuple directions sharing (d, n, field, p)

    def __post_init__(self):
        if len(self.basis) < 1:
            raise EmptyBasis("subspace needs at least one basis tuple")
        first = self.basis[0]
        for S in self.basis[1:]:
            first._check_compatible(S)


def _admit(T: OperatorTuple, direction) -> np.ndarray:
    """The (m, d, n, n) direction stack (S's scaling family or V's basis); refuses one unfit for T before any solve."""
    if isinstance(direction, TupleSubspace):
        T._check_compatible(direction.basis[0])
        B, what = np.stack([S.matrices for S in direction.basis]), "the subspace basis"
    else:
        T._check_compatible(direction)
        B, what = np.eye(direction.d)[:, :, None, None] * direction.matrices, "the against tuple's scaling family"
    t, A = T.matrices.ravel(), B.reshape(len(B), -1).T
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    if np.linalg.norm(t - A @ coef) < DEPENDENT_TOL * max(np.linalg.norm(t), 1e-300):
        raise DependentDirection(f"T lies in the span of {what}")
    return B


def _points(T: OperatorTuple, B: np.ndarray, rr: RadiusResult):
    """(P, k): row j of P 2^k is f_j on the direction stack B of `_admit`, split into [Re | Im]
    on complex data.  The verdict does not change when B is scaled, so it is decided on P."""
    rows, k = _rows(_table(T, rr), B)  # complex exactly on complex-field data
    return (np.hstack([rows.real, rows.imag]) if np.iscomplexobj(rows) else rows), k


def _certificate(points: np.ndarray, w: np.ndarray, k: int) -> OrthCertificate:
    """The certificate of the weight vector w; its residual is max |points^T w| 2^k."""
    weights = tuple((j, float(t)) for j, t in enumerate(w) if t > 0)
    return OrthCertificate(weights=weights, residual=float(_ldexp(np.abs(points.T @ w), k).max()))


def _decide(points: np.ndarray, k: int, rr: RadiusResult, ref: float) -> OrthResult:
    """The verdict on the rows points 2^k; ref is max|B|."""
    scale = float(np.max(np.abs(points)))
    if scale <= LP_TOL * math.ldexp(ref, -k):
        # every constraint vanishes at the data's natural scale: orthogonal, weight 1 on row 0
        w = np.eye(1, len(points))[0]
    elif len(points) == 1 and np.isfinite(scale):
        # one orbit, f(S) != 0: James's rule says not orthogonal (the NNLS residual would be >= 1)
        w = None
    else:
        w = hull_membership(HullProblem(points=points / scale, target=np.zeros(points.shape[1]))).weights
    cert = None if w is None else _certificate(points, w, k)
    return OrthResult(orthogonal=cert is not None, approximate=not rr.exhaustive, certificate=cert)


def _orth(T: OperatorTuple, direction, rr: RadiusResult) -> OrthResult:
    B = _admit(T, direction)
    return _decide(*_points(T, B, rr), rr, float(np.max(np.abs(B))))


def orth_scalar(T: OperatorTuple, S: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult) -> OrthResult:
    """Orthogonality of T to the family (lam_1 S_1, ..., lam_d S_d); one constraint per slot tuple."""
    return _orth(T, S, rr)


def orth_subspace(T: OperatorTuple, V: TupleSubspace, space: SpaceDescriptor, rr: RadiusResult) -> OrthResult:
    """Orthogonality of T to span(basis); one constraint per basis tuple."""
    return _orth(T, V, rr)


def verify_certificate(
    cert: OrthCertificate, T: OperatorTuple, direction, space: SpaceDescriptor, rr: RadiusResult
) -> float:
    """Rebuild the LP points and the weight vector of cert from scratch; return
    the residual max |points^T w| of that vector, as the certificate reports it.

    direction is the OperatorTuple S of orth_scalar or the TupleSubspace of
    orth_subspace, compatible with T.  Orbit indices must be integers in range (bools are not).
    """
    total = sum(t for _, t in cert.weights)
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # a NaN weight fails here
        raise InvalidCertificate(f"certificate weights sum to {total}, expected 1")
    if any(t <= 0 for _, t in cert.weights):
        raise InvalidCertificate("certificate weights must be strictly positive")
    points, k = _points(T, _admit(T, direction), rr)
    w = np.zeros(len(points))
    for j, t in cert.weights:
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j < len(w):
            raise InvalidCertificate(f"stale orbit index {j!r}")
        w[j] += t
    return _certificate(points, w, k).residual
