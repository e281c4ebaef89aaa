"""Birkhoff-James orthogonality certificates via hull-membership LPs.

T is orthogonal to the scaling family of S (or to a tuple subspace V)
exactly when the zero vector is a convex combination of the per-orbit
constraint vectors built from attaining pairs.  Feasible weights form the
certificate; on non-exhaustive attaining sets the verdict is approximate
because missed orbits can flip an infeasible LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentDirection, EmptyBasis, InvalidCertificate
from .lp import HullProblem, hull_membership
from .optuples import OperatorTuple, power_weights
from .radius import RadiusResult, _require_positive
from .spaces import COMPLEX, NormingPair, SpaceDescriptor

LP_TOL = 1e-9
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


def _vectorize(T: OperatorTuple) -> np.ndarray:
    return np.concatenate([M.ravel() for M in T.matrices])


def _check_scalar_independent(T: OperatorTuple, S: OperatorTuple) -> None:
    """Reject T in the component-wise scaling family of S."""
    resid = 0.0
    scale = max(_l2(T), 1e-300)
    for A, B in zip(T.matrices, S.matrices):
        denom = np.vdot(B, B)
        lam = np.vdot(B, A) / denom if abs(denom) > 0 else 0.0
        resid += float(np.linalg.norm(A - lam * B) ** 2)
    if np.sqrt(resid) < DEPENDENT_TOL * scale:
        raise DependentDirection("T lies in the scaling family of S")


def _check_subspace_independent(T: OperatorTuple, V: TupleSubspace) -> None:
    B = np.column_stack([_vectorize(S) for S in V.basis])
    t = _vectorize(T)
    coef, *_ = np.linalg.lstsq(B, t, rcond=None)
    if np.linalg.norm(t - B @ coef) < DEPENDENT_TOL * max(np.linalg.norm(t), 1e-300):
        raise DependentDirection("T lies in the span of the subspace basis")


def _l2(T: OperatorTuple) -> float:
    return float(np.sqrt(sum(np.linalg.norm(M) ** 2 for M in T.matrices)))


def _orbit_pairs(rr: RadiusResult):
    return [orb.representative for orb in rr.attaining.orbits]


def _constraint_row_subspace(T: OperatorTuple, V: TupleSubspace, pair: NormingPair) -> np.ndarray:
    return np.array([np.sum(power_weights(T, S, pair)) for S in V.basis])


def _realify(rows: list[np.ndarray], field: str) -> np.ndarray:
    M = np.array(rows)
    if field == COMPLEX or np.iscomplexobj(M):
        return np.hstack([np.real(M), np.imag(M)])
    return np.real(M)


def _decide(rows: list[np.ndarray], field: str, rr: RadiusResult, ref: float) -> OrthResult:
    points = _realify(rows, field)
    scale = float(np.max(np.abs(points)))
    approximate = not rr.exhaustive
    if scale <= LP_TOL * ref:
        # every constraint vanishes (up to the natural scale of the data):
        # trivially orthogonal, weight 1 anywhere
        cert = OrthCertificate(weights=((0, 1.0),), residual=scale)
        return OrthResult(orthogonal=True, approximate=approximate, certificate=cert)
    prob = HullProblem(
        points=points / scale, target=np.zeros(points.shape[1]), tolerance=LP_TOL
    )
    res = hull_membership(prob)
    if not res.feasible:
        return OrthResult(orthogonal=False, approximate=approximate, certificate=None)
    residual = float(np.max(np.abs(points.T @ res.weights)))
    weights = tuple((j, float(t)) for j, t in enumerate(res.weights) if t > 0)
    return OrthResult(
        orthogonal=True,
        approximate=approximate,
        certificate=OrthCertificate(weights=weights, residual=residual),
    )


def orth_scalar(
    T: OperatorTuple, S: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult
) -> OrthResult:
    """Orthogonality of T to the family (lam_1 S_1, ..., lam_d S_d)."""
    _require_positive(rr)
    T._check_compatible(S)
    _check_scalar_independent(T, S)
    rows = [power_weights(T, S, pr) for pr in _orbit_pairs(rr)]
    ref = rr.value ** (T.p - 1.0) * S.max_entry()
    return _decide(rows, space.field, rr, ref)


def orth_subspace(
    T: OperatorTuple, V: TupleSubspace, space: SpaceDescriptor, rr: RadiusResult
) -> OrthResult:
    """Orthogonality of T to span(basis); one constraint per basis tuple."""
    _require_positive(rr)
    T._check_compatible(V.basis[0])
    _check_subspace_independent(T, V)
    rows = [_constraint_row_subspace(T, V, pr) for pr in _orbit_pairs(rr)]
    ref = rr.value ** (T.p - 1.0) * max(S.max_entry() for S in V.basis)
    return _decide(rows, space.field, rr, ref)


def verify_certificate(
    cert: OrthCertificate,
    T: OperatorTuple,
    direction,
    space: SpaceDescriptor,
    rr: RadiusResult,
) -> float:
    """Recompute the constraint sums from scratch; return the max violation."""
    total = sum(t for _, t in cert.weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidCertificate(f"certificate weights sum to {total}, expected 1")
    if any(t <= 0 for _, t in cert.weights):
        raise InvalidCertificate("certificate weights must be strictly positive")
    pairs = _orbit_pairs(rr)
    acc = None
    for j, t in cert.weights:
        if not (0 <= j < len(pairs)):
            raise InvalidCertificate(f"stale orbit index {j}")
        if isinstance(direction, TupleSubspace):
            row = _constraint_row_subspace(T, direction, pairs[j])
        else:
            row = power_weights(T, direction, pairs[j])
        acc = t * row if acc is None else acc + t * row
    return float(np.max(np.abs(acc)))
