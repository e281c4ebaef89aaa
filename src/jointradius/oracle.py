"""Independent brute-force verifiers: sampled radius, finite differences,
lambda sweeps, and an invariant audit harness.

These deliberately avoid the solver code paths (beyond norm evaluation
and the radii of the audit's trial tuples) so that agreement with the main
results is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Unsupported
from .optuples import OperatorTuple, tuple_combine
from .radius import DEFAULT_STARTS, RadiusResult, radius
from .spaces import COMPLEX, REAL, LpNorm, Polyhedral, SpaceDescriptor

PLUS = "plus"
MINUS = "minus"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    measured: float
    bound: float


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple
    sampled_radius: float  # the lower bound the domination check compared against

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def random_tuple(
    d: int, n: int, field: str, p: float, rng: np.random.Generator
) -> OperatorTuple:
    mats = []
    for _ in range(d):
        M = rng.standard_normal((n, n))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((n, n))
        mats.append(M)
    return OperatorTuple(tuple(mats), p=p, field=field)


def _batch_unit_vectors(space: SpaceDescriptor, m: int, rng, U) -> np.ndarray:
    if (
        isinstance(space.norm, LpNorm)
        and space.norm.r == 1.0
        and space.field == REAL
    ):
        # corner-biased simplex sampling: normalized Gaussians almost never
        # land near the vertices, where the l_1 objective peaks
        mags = rng.dirichlet(0.3 * np.ones(space.dim), size=m)
        signs = rng.choice([-1.0, 1.0], size=(m, space.dim))
        return mags * signs
    X = rng.standard_normal((m, space.dim))
    if space.field == COMPLEX:
        X = X + 1j * rng.standard_normal((m, space.dim))
    if isinstance(space.norm, Polyhedral):
        norms = np.max(np.abs(X @ U.T), axis=1)
    else:
        # each row divided by its max |X_i| first, so |X_i|^r stays in range
        X = X / np.max(np.abs(X), axis=1, keepdims=True)
        norms = np.linalg.norm(X, ord=space.norm.r, axis=1)
    keep = norms > 1e-12
    return X[keep] / norms[keep, None]


def _batch_functionals(space: SpaceDescriptor, X: np.ndarray, U) -> np.ndarray:
    """One norming functional per row of X (rows are unit vectors); U holds a polyhedral space's dual extremes."""
    if isinstance(space.norm, Polyhedral):
        idx = np.argmax(X @ U.T, axis=1)  # extremes closed under negation
        return U[idx]
    r = space.norm.r
    if 1 < r < math.inf:
        a = np.abs(X)
        out = np.zeros_like(X)
        nz = a > 0
        out[nz] = X[nz] * a[nz] ** (r - 2.0)
        return out
    if space.field != REAL:
        raise Unsupported("no sampling functionals for complex l_1/l_inf")
    if r == 1:
        s = np.sign(X)
        s[s == 0] = 1.0
        return s
    # l_inf: sign of the largest coordinate times that unit vector
    idx = np.argmax(np.abs(X), axis=1)
    out = np.zeros_like(X)
    rows = np.arange(X.shape[0])
    out[rows, idx] = np.sign(X[rows, idx])
    return out


def sampled_radius(
    T: OperatorTuple, space: SpaceDescriptor, samples: int = 10_000, seed: int = 0
) -> float:
    """Max of the radius objective over seeded random norming pairs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if T.n != space.dim:  # checked here, not through the solver, to keep the oracle independent
        raise DimensionMismatch(f"space dimension {space.dim} does not match operator dimension {T.n}")
    rng = np.random.default_rng(seed)
    # a polyhedral space's dual extremes, read off the descriptor rather than the solver's pair table
    U = np.array(space.norm.dual_extremes) if isinstance(space.norm, Polyhedral) else None
    best = 0.0
    chunk = 50_000
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        X = _batch_unit_vectors(space, m, rng, U)
        if X.shape[0] == 0:
            continue
        Xs = _batch_functionals(space, X, U)
        Z = np.empty((X.shape[0], T.d), dtype=complex)
        for i, M in enumerate(T.matrices):
            Z[:, i] = np.einsum("mj,mj->m", np.conj(Xs), X @ M.T)
        # each row as m * ||Z/m||_p with m = max|Z_i|, so |Z_i|^p stays in range
        A = np.abs(Z)
        m = A.max(axis=1, keepdims=True)
        m[m == 0] = 1.0
        vals = m[:, 0] * np.linalg.norm(A / m, ord=T.p, axis=1)
        best = max(best, float(np.max(vals)))
    return best


def fd_gateaux(
    T: OperatorTuple,
    S: OperatorTuple,
    space: SpaceDescriptor,
    t: float = 1e-4,
    side: str = PLUS,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> float:
    """One-sided finite-difference quotient of the radius at T toward S."""
    if not (0 < t <= 1e-2) or side not in (PLUS, MINUS):
        raise ValueError(f"need a step 0 < t <= 1e-2 and side {PLUS!r} or {MINUS!r}, got t={t!r}, side={side!r}")
    signed = t if side == PLUS else -t
    w0 = radius(T, space, starts=starts, seed=seed).value
    w1 = radius(T + S.scaled(signed), space, starts=starts, seed=seed).value
    return (w1 - w0) / signed


@dataclass(frozen=True)
class SweepResult:
    min_value: float
    argmin: np.ndarray
    value_at_zero: float


def _sweep_directions(d: int, field: str, count: int, rng) -> list[np.ndarray]:
    if d == 1:
        if field == COMPLEX:
            phases = np.exp(2j * np.pi * np.arange(count) / count)
            return [np.array([ph]) for ph in phases]
        return [np.array([1.0]), np.array([-1.0])]
    out = []
    for _ in range(count):
        g = rng.standard_normal(d)
        if field == COMPLEX:
            g = g + 1j * rng.standard_normal(d)
        out.append(g / np.linalg.norm(g))
    return out


def lambda_sweep(
    T: OperatorTuple,
    S: OperatorTuple,
    space: SpaceDescriptor,
    directions: int = 20,
    radii=None,
    seed: int = 0,
    starts: int = DEFAULT_STARTS,
) -> SweepResult:
    """Min of w_p(T + lambda.S) over a log-radial grid of scalings.

    lambda = 0 is always on the grid, so min_value <= w_p(T) holds exactly.
    """
    if radii is None:
        radii = np.logspace(-3, 1, 20)
    rng = np.random.default_rng(seed)
    dirs = _sweep_directions(T.d, space.field, directions, rng)
    zero = np.zeros(T.d)
    w0 = radius(T, space, starts=starts, seed=seed).value
    best_val = w0
    best_lam = zero
    for direction in dirs:
        for rad in radii:
            lam = rad * direction
            val = radius(tuple_combine(T, S, lam), space, starts=starts, seed=seed).value
            if val < best_val:
                best_val = val
                best_lam = lam
    return SweepResult(min_value=best_val, argmin=best_lam, value_at_zero=w0)


def _generator_values(gens, mats: np.ndarray) -> np.ndarray:
    """sum_i alpha_i x*(S_i x) for every generator (rows) and every tuple of
    the (t, d, n, n) stack mats (columns), written here rather than taken
    from the subdiff module."""
    alpha = np.array([g.alpha for g in gens])
    X = np.array([g.pair.x for g in gens])
    XS = np.array([g.pair.x_star for g in gens])
    return np.einsum("tdab,kb,ka,kd->kt", mats, X, np.conj(XS), alpha)


def audit(
    T: OperatorTuple,
    space: SpaceDescriptor,
    rr: RadiusResult,
    gens,
    seed: int = 0,
    trials: int = 20,
    starts: int = DEFAULT_STARTS,
    samples: int = 10_000,
) -> VerifyReport:
    """Run the invariant battery and report per-check results.

    Every bound is relative to the values its check compares, and the trial
    tuples S are drawn at the scale of T, so no verdict depends on the scale
    of T.  Each S is solved once and checked against every generator; a
    trial-based check reports the trial with the least slack.  The generator
    values come from `_generator_values`, not from `subdiff.evaluate`, so a
    fault in the solver's stacked formula cannot pass its own audit.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, measured, bound, ok=None):
        ok = measured <= bound if ok is None else ok
        checks.append(
            CheckResult(name=name, status="pass" if ok else "fail", measured=float(measured), bound=float(bound))
        )

    def record_least_slack(name, measured, bound):  # one row per generator, one column per trial
        measured, bound = np.broadcast_arrays(measured, bound)
        k = np.unravel_index(np.argmax(measured - bound), measured.shape)
        record(name, measured[k], bound[k])

    w, scale = rr.value, T.max_entry()
    sr = sampled_radius(T, space, samples=samples, seed=seed)
    record("sampled_radius_dominated", sr - w, 1e-12 * w)
    record("norm_positivity", w, 0.0, scale == 0 or (w > 0 and not rr.degenerate))
    if gens:
        draws = [random_tuple(T.d, T.n, T.field, T.p, rng).scaled(scale) for _ in range(trials)]
        wS = np.array([radius(S, space, starts=starts, seed=seed).value for S in draws])
        f_T = _generator_values(gens, T.matrices[None]).real
        S_mats = np.stack([S.matrices for S in draws])
        record("generator_attains", np.max(np.abs(f_T - w)), 1e-9 * w)
        record_least_slack("generator_norm_one", np.abs(_generator_values(gens, S_mats)) - wS, 1e-8 * wS)
        record_least_slack(
            "supporting_inequality",
            _generator_values(gens, S_mats - T.matrices).real - (wS - w),
            1e-8 * np.maximum(w, wS),
        )
    return VerifyReport(checks=tuple(checks), sampled_radius=sr)
