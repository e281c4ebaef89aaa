"""Joint numerical radius: exact enumeration and multi-start ascent.

On spaces with finite extreme-point lists the supremum over norming pairs
is attained on the admissible extreme pairs, so enumeration is exact.  On
smooth l_r spaces the functional is the unique duality image of x, making
the objective a function of x alone; it is maximized by seeded projected
gradient ascent on the unit sphere with backtracking line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Unsupported, ZeroRadius
from .optuples import OperatorTuple, aggregate
from .spaces import (
    COMPLEX,
    NormingPair,
    SpaceDescriptor,
    _gaussian,
    _signed_power,
    admissible_pairs,
    lp_norm,
    norm_eval,
    random_unit_vector,
    smooth_duality_vector,
)

EXACT_ENUMERATION = "ExactEnumeration"
MULTI_START = "MultiStart"

ATTAIN_TOL_EXACT = 1e-12
ATTAIN_TOL_SMOOTH = 1e-8
ORBIT_TOL = 1e-6

DEFAULT_STARTS = 64
MAX_ITER = 500
MIN_STEP = 1e-12


@dataclass(frozen=True)
class Orbit:
    representative: NormingPair
    value: float


@dataclass(frozen=True)
class AttainingSet:
    orbits: tuple
    exhaustive: bool


@dataclass(frozen=True)
class RadiusResult:
    value: float
    method: str
    attaining: AttainingSet
    degenerate: bool = False

    @property
    def exhaustive(self) -> bool:
        return self.attaining.exhaustive


def _require_positive(rr: RadiusResult) -> None:
    if rr.value <= 0 or rr.degenerate:
        raise ZeroRadius("operation requires a positive joint radius")


def orbit_dedup(pairs, field: str, tol: float = ORBIT_TOL):
    """Greedy clustering of norming pairs into unimodular orbits.

    A candidate joins an orbit when a phase mu (sign for the real field)
    aligned on the representative's largest coordinate maps the
    representative onto it within tol in both components.  Founders keep
    their input order, so the output is deterministic.
    """
    reps: list[NormingPair] = []
    for cand in pairs:
        if not any(_same_orbit(rep, cand, field, tol) for rep in reps):
            reps.append(cand)
    return reps


def _same_orbit(rep: NormingPair, cand: NormingPair, field: str, tol: float) -> bool:
    k = int(np.argmax(np.abs(rep.x)))
    a, b = rep.x[k], cand.x[k]
    if abs(b) < 1e-300:
        return False
    if field == COMPLEX:
        mu = b * np.conj(a)
        mod = abs(mu)
        if mod < 1e-300:
            return False
        mu = mu / mod
    else:
        mu = 1.0 if float(a) * float(b) >= 0 else -1.0
    # stored functionals are applied with a conjugation, so the mate of
    # (x, x*) under phase mu is (mu x, mu x*) in stored coordinates
    return (
        np.linalg.norm(mu * rep.x - cand.x) <= tol
        and np.linalg.norm(mu * rep.x_star - cand.x_star) <= tol
    )


def _degenerate(value: float, T: OperatorTuple) -> bool:
    surrogate = T.max_entry()
    return surrogate > 0 and value <= 1e-12 * surrogate


def _build_attaining(scored, field: str, exhaustive: bool, rel_tol: float):
    """scored: list of (value, pair), already ordered deterministically."""
    best = max(v for v, _ in scored)
    cut = best - rel_tol * max(best, 0.0)
    near = [(v, pr) for v, pr in scored if v >= cut]
    reps = orbit_dedup([pr for _, pr in near], field, ORBIT_TOL)
    by_id = {id(pr): v for v, pr in near}
    orbits = tuple(Orbit(rep, by_id[id(rep)]) for rep in reps)
    return best, AttainingSet(orbits=orbits, exhaustive=exhaustive)


def radius_exact(
    T: OperatorTuple,
    space: SpaceDescriptor,
    attain_tol: float = ATTAIN_TOL_EXACT,
) -> RadiusResult:
    """Exact radius by enumeration of admissible extreme pairs."""
    pairs = admissible_pairs(space)
    scored = [(aggregate(T, pr), pr) for pr in pairs]
    value, attaining = _build_attaining(scored, space.field, True, attain_tol)
    return RadiusResult(
        value=value,
        method=EXACT_ENUMERATION,
        attaining=attaining,
        degenerate=_degenerate(value, T),
    )


# ---------------------------------------------------------------------------
# multi-start ascent on smooth l_r spaces


def _objective(T: OperatorTuple, r: float, x: np.ndarray) -> float:
    return aggregate(T, NormingPair(x, smooth_duality_vector(x, r)))


def _gradient(T: OperatorTuple, r: float, x: np.ndarray):
    """Riemannian-style gradient of the objective at a unit vector x.

    Returns (value, tangent gradient).  Complex coordinates are treated as
    pairs of real ones; the returned vector is the steepest-ascent
    direction under the real inner product Re<., .>.
    """
    p = T.p
    a = np.abs(x)
    nz = a > 1e-300
    s = _signed_power(x, r - 2.0)  # functional coefficients
    pw2 = np.zeros_like(x)  # |x_k|^(r-2), zero convention
    pw2[nz] = a[nz] ** (r - 2.0)
    # conj(x_k)^2 |x_k|^(r-4), written so that no factor over- or underflows
    c2 = np.zeros_like(x)
    c2[nz] = (np.conj(x[nz]) / a[nz]) ** 2 * pw2[nz]

    Y = T.matrices @ x  # d x n, row i is T_i x
    z = Y @ s  # z_i = sum_j s_j (T_i x)_j
    val = lp_norm(z, p)
    if val == 0.0:
        return 0.0, np.zeros_like(x)

    zp = _signed_power(z / val, p - 2.0)  # conj(z_i)|z_i|^(p-2) / val^(p-1)
    A = (r / 2.0) * pw2[None, :] * Y
    B = ((r - 2.0) / 2.0) * c2[None, :] * Y + s @ T.matrices  # row i is T_i^T s
    G = zp @ A + np.conj(zp @ B)

    # project onto the tangent of the l_r sphere at x
    nu = np.conj(s)  # gradient direction of the norm, x_k|x_k|^(r-2)
    denom = float(np.real(np.vdot(nu, nu)))
    if denom > 0:
        G = G - (float(np.real(np.vdot(nu, G))) / denom) * nu
    return val, G


def _normalize(space: SpaceDescriptor, y: np.ndarray) -> np.ndarray:
    x = y / norm_eval(space, y)
    return x / norm_eval(space, x)


def _ascend(T: OperatorTuple, space: SpaceDescriptor, x0: np.ndarray, rng):
    r = space.norm.r
    x = _normalize(space, x0)
    step = 1.0
    restarts = 0
    for _ in range(MAX_ITER):
        fval, G = _gradient(T, r, x)
        gn2 = float(np.real(np.vdot(G, G)))
        if gn2 <= (1e-14 * (1.0 + fval)) ** 2:
            break
        s = min(4.0 * step, 1.0 / (1.0 + math.sqrt(gn2)))
        accepted = False
        while s >= MIN_STEP:
            cand = _normalize(space, x + s * G)
            fc = _objective(T, r, cand)
            # c = 0.3 keeps the accepted step below 1.4/curvature, so the
            # local contraction factor stays bounded away from 1
            if fc >= fval + 0.3 * s * gn2:
                x, fval, step, accepted = cand, fc, s, True
                break
            s *= 0.5
        if not accepted:
            # possible stall at a kink (some z_i = 0 with p < 2): restart
            # this seed from a small perturbation, at most twice
            if restarts < 2:
                restarts += 1
                x = _normalize(space, x + 1e-3 * _gaussian(space, rng))
                fval = _objective(T, r, x)
                step = 1.0
                continue
            break
    return fval, x


def radius_smooth(
    T: OperatorTuple,
    space: SpaceDescriptor,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    attain_tol: float = ATTAIN_TOL_SMOOTH,
) -> RadiusResult:
    """Multi-start projected gradient ascent on a smooth l_r space."""
    if not space.is_smooth_lp:
        raise Unsupported("radius_smooth requires an l_r space with 1 < r < inf")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    # the ascent's step cap and stop test are not scale-free, so it runs on
    # T / max|T_ij| (a division: 1/m overflows for subnormal m)
    m = T.max_entry() or 1.0
    unit = OperatorTuple(T.matrices / m, p=T.p, field=T.field)
    scored = []
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        fval, x = _ascend(unit, space, random_unit_vector(space, rng), rng)
        scored.append((m * fval, NormingPair(x, smooth_duality_vector(x, space.norm.r))))
    value, attaining = _build_attaining(scored, space.field, False, attain_tol)
    return RadiusResult(
        value=value,
        method=MULTI_START,
        attaining=attaining,
        degenerate=_degenerate(value, T),
    )


def radius(
    T: OperatorTuple,
    space: SpaceDescriptor,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    attain_tol: float | None = None,
) -> RadiusResult:
    """Dispatch to the exact or multi-start method based on the space.

    attain_tol=None keeps each method's own default attaining tolerance.
    """
    tol = {} if attain_tol is None else {"attain_tol": attain_tol}
    if space.is_smooth_lp:
        return radius_smooth(T, space, starts=starts, seed=seed, **tol)
    return radius_exact(T, space, **tol)
