"""Birkhoff-James orthogonality certificates via hull-membership LPs.

T is orthogonal to the scaling family of S (or to a tuple subspace V) exactly
when zero is a convex combination of the per-orbit constraint vectors, each
orbit's generator applied to the directions.  At one orbit (a smooth T) this
is James's rule (Trans. AMS 61, 1947): orthogonal iff the unique support
functional f vanishes on every direction, decided without the LP.  Feasible
weights form the certificate; on non-exhaustive attaining sets the verdict is
approximate because missed orbits can flip an infeasible LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentDirection, EmptyBasis, InvalidCertificate
from .lp import LP_TOL, HullProblem, hull_membership
from .optuples import OperatorTuple, pair_images
from .radius import RadiusResult
from .spaces import SpaceDescriptor
from .subdiff import _table, evaluate

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


def _check_independent(T: OperatorTuple, B: np.ndarray) -> None:
    t = T.matrices.ravel()
    coef, *_ = np.linalg.lstsq(B, t, rcond=None)
    if np.linalg.norm(t - B @ coef) < DEPENDENT_TOL * max(np.linalg.norm(t), 1e-300):
        raise DependentDirection("T lies in the span of the subspace basis")


def _points(T: OperatorTuple, direction, rr: RadiusResult) -> np.ndarray:
    """Row k is f_k on the directions (S's scaling family or V), split into [Re | Im] on complex data;
    f_k(0, ..., S_i, ..., 0) = alpha_ki x_k*(S_i x_k), in C order as `evaluate` lays it out."""
    table = _table(T, rr)
    if isinstance(direction, TupleSubspace):
        rows = evaluate(table, direction.basis)  # complex exactly on complex-field data
    else:
        rows = np.ascontiguousarray(table[2] * pair_images(direction, *table[:2]))
    return np.hstack([rows.real, rows.imag]) if np.iscomplexobj(rows) else rows


def _certificate(points: np.ndarray, w: np.ndarray) -> OrthCertificate:
    """The certificate of the weight vector w; its residual is max |points^T w|."""
    weights = tuple((j, float(t)) for j, t in enumerate(w) if t > 0)
    return OrthCertificate(weights=weights, residual=float(np.max(np.abs(points.T @ w))))


def _decide(points: np.ndarray, rr: RadiusResult, ref: float) -> OrthResult:
    scale = float(np.max(np.abs(points)))
    if scale <= LP_TOL * ref:
        # every constraint vanishes at the data's natural scale: orthogonal, weight 1 on row 0
        w = np.eye(1, len(points))[0]
    elif len(points) == 1 and np.isfinite(scale):
        # one orbit, f(S) != 0: James's rule says not orthogonal (the NNLS residual would be >= 1)
        w = None
    else:
        w = hull_membership(HullProblem(points=points / scale, target=np.zeros(points.shape[1]))).weights
    cert = None if w is None else _certificate(points, w)
    return OrthResult(orthogonal=cert is not None, approximate=not rr.exhaustive, certificate=cert)


def orth_scalar(
    T: OperatorTuple, S: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult
) -> OrthResult:
    """Orthogonality of T to the family (lam_1 S_1, ..., lam_d S_d)."""
    T._check_compatible(S)
    _check_independent(T, (np.eye(S.d)[:, :, None, None] * S.matrices).reshape(S.d, -1).T)
    return _decide(_points(T, S, rr), rr, S.max_entry())


def orth_subspace(
    T: OperatorTuple, V: TupleSubspace, space: SpaceDescriptor, rr: RadiusResult
) -> OrthResult:
    """Orthogonality of T to span(basis); one constraint per basis tuple."""
    T._check_compatible(V.basis[0])
    _check_independent(T, np.column_stack([S.matrices.ravel() for S in V.basis]))
    ref = max(S.max_entry() for S in V.basis)
    return _decide(_points(T, V, rr), rr, ref)


def verify_certificate(
    cert: OrthCertificate,
    T: OperatorTuple,
    direction,
    space: SpaceDescriptor,
    rr: RadiusResult,
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
    T._check_compatible(direction.basis[0] if isinstance(direction, TupleSubspace) else direction)
    points = _points(T, direction, rr)
    w = np.zeros(len(points))
    for j, t in cert.weights:
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j < len(w):
            raise InvalidCertificate(f"stale orbit index {j!r}")
        w[j] += t
    return _certificate(points, w).residual
