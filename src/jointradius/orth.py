"""Birkhoff-James orthogonality certificates via hull-membership LPs.

T is orthogonal to the scaling family of S (or to a tuple subspace V)
exactly when the zero vector is a convex combination of the per-orbit
constraint vectors: each orbit's subdifferential generator applied to the
directions.  Feasible weights form the certificate; on non-exhaustive
attaining sets the verdict is approximate because missed orbits can flip
an infeasible LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentDirection, EmptyBasis, InvalidCertificate
from .lp import HullProblem, hull_membership
from .optuples import OperatorTuple
from .radius import RadiusResult
from .spaces import COMPLEX, SpaceDescriptor
from .subdiff import apply, generators

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


def _scaling_family(S: OperatorTuple) -> TupleSubspace:
    """The family (lam_1 S_1, ..., lam_d S_d): the span of the d tuples (0, ..., S_i, ..., 0)."""
    parts = np.eye(S.d)[:, :, None, None] * S.matrices
    return TupleSubspace(tuple(OperatorTuple(M, p=S.p, field=S.field) for M in parts))


def _check_subspace_independent(T: OperatorTuple, V: TupleSubspace) -> None:
    B = np.column_stack([S.matrices.ravel() for S in V.basis])
    t = T.matrices.ravel()
    coef, *_ = np.linalg.lstsq(B, t, rcond=None)
    if np.linalg.norm(t - B @ coef) < DEPENDENT_TOL * max(np.linalg.norm(t), 1e-300):
        raise DependentDirection("T lies in the span of the subspace basis")


def _rows(T: OperatorTuple, V: TupleSubspace, space: SpaceDescriptor, rr: RadiusResult):
    """One constraint row per attaining orbit: its generator applied to each basis tuple."""
    return np.array([[apply(g, S) for S in V.basis] for g in generators(T, space, rr)])


def _realify(rows: np.ndarray, field: str) -> np.ndarray:
    if field == COMPLEX or np.iscomplexobj(rows):
        return np.hstack([np.real(rows), np.imag(rows)])
    return np.real(rows)


def _decide(rows: np.ndarray, field: str, rr: RadiusResult, ref: float) -> OrthResult:
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
    return orth_subspace(T, _scaling_family(S), space, rr)


def orth_subspace(
    T: OperatorTuple, V: TupleSubspace, space: SpaceDescriptor, rr: RadiusResult
) -> OrthResult:
    """Orthogonality of T to span(basis); one constraint per basis tuple."""
    T._check_compatible(V.basis[0])
    _check_subspace_independent(T, V)
    ref = max(S.max_entry() for S in V.basis)
    return _decide(_rows(T, V, space, rr), space.field, rr, ref)


def verify_certificate(
    cert: OrthCertificate,
    T: OperatorTuple,
    direction,
    space: SpaceDescriptor,
    rr: RadiusResult,
) -> float:
    """Recompute the constraint sums from scratch; return the max violation.

    direction is the OperatorTuple S of orth_scalar or the TupleSubspace of
    orth_subspace.
    """
    total = sum(t for _, t in cert.weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidCertificate(f"certificate weights sum to {total}, expected 1")
    if any(t <= 0 for _, t in cert.weights):
        raise InvalidCertificate("certificate weights must be strictly positive")
    V = direction if isinstance(direction, TupleSubspace) else _scaling_family(direction)
    rows = _rows(T, V, space, rr)
    acc = 0.0
    for j, t in cert.weights:
        if not (0 <= j < len(rows)):
            raise InvalidCertificate(f"stale orbit index {j}")
        acc = acc + t * rows[j]
    return float(np.max(np.abs(acc)))
