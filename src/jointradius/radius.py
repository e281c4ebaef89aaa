"""Joint numerical radius: exact enumeration and multi-start ascent.

On spaces with finite extreme-point lists the supremum over norming pairs
is attained on the admissible extreme pairs, so enumeration is exact.  One
array pass scores each sign-mate orbit (v, u), (-v, -u) on its lower pair; only
the pairs that can attain become NormingPair objects, and `aggregate`
re-scores them, so the reported value and orbits are its floats.  On
smooth l_r spaces the functional is the unique duality image of x, making
the objective a function of x alone; it is maximized by seeded projected
gradient ascent on the unit sphere with backtracking line search.  Each
point the ascent visits is evaluated once: the gradient at an accepted
candidate reuses that candidate's evaluation.  A start ends at a zero
gradient, after three consecutive accepted steps that each gain at most
1e-15 relative (rounding, or a null step that leaves x unchanged), when its
line search fails after two restarts, or after MAX_ITER iterations.

The starts run in lockstep as the rows of one array, each with its own
step, counters and random stream, and each stops by its own rule.  The
backtracking is speculative: one pass evaluates a row at s, s/2, s/4 and
s/8 and takes the first that passes, the point a halving loop accepts, so
each start reaches the floats it would reach alone.  When every row passes
in that pass, as in most rounds, one gather (none if every row takes s) of
the passing candidates is the new state; only other rounds scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, Unsupported, ZeroRadius
from .optuples import OperatorTuple, aggregate, pair_images
from .spaces import (
    COMPLEX,
    ENTRY_BUDGET,
    ORBIT_TOL,
    AdmissiblePairs,
    NormingPair,
    SpaceDescriptor,
    _check_counts,
    _conj,
    _gaussian,
    _off_tiny,
    _signed_power,
    admissible_pairs,
    lp_norm_rows,
    random_unit_vector,
    smooth_duality_vector,
)

EXACT_ENUMERATION = "ExactEnumeration"
MULTI_START = "MultiStart"

ATTAIN_TOL_EXACT = 1e-12
ATTAIN_TOL_SMOOTH = 1e-8

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
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # for subdiff._table

    @property
    def exhaustive(self) -> bool:
        return self.attaining.exhaustive


def _require_positive(rr: RadiusResult) -> None:
    if rr.value <= 0 or rr.degenerate:
        raise ZeroRadius("operation requires a positive joint radius")


def _mates(X, XS, K, f, c) -> np.ndarray:
    """Whether each pair c is within ORBIT_TOL of a unimodular multiple of founder f.

    The phase mu = b conj(a) / |b conj(a)| aligns the founder's largest
    coordinate a with the candidate's b; on real data it is the sign of ab.
    """
    a, b = X[f, K[f]], X[c, K[f]]
    mu = b * np.conj(a)
    mod = np.abs(mu)
    ok = (np.abs(b) >= 1e-300) & (mod >= 1e-300)
    # stored functionals are applied with a conjugation, so the mate of
    # (x, x*) under phase mu is (mu x, mu x*) in stored coordinates
    mu = (mu / np.where(ok, mod, 1.0))[:, None]
    ok &= np.linalg.norm(mu * X[f] - X[c], axis=1) <= ORBIT_TOL
    ok &= np.linalg.norm(mu * XS[f] - XS[c], axis=1) <= ORBIT_TOL
    return ok


def orbit_dedup(pairs):
    """The founders of the unimodular orbits of the pairs, in input order.

    On `AdmissiblePairs` (real extreme pairs) the only mate of (v, u) is (-v, -u), and each pair
    carries its orbit id, the lower table index of the two.  Any other sequence, such as
    ascent points, is grouped one founder at a time: the first remaining pair founds an orbit,
    and one `_mates` test removes from the rest each pair that the phase mu aligned on the
    founder's largest coordinate (a sign on real data) maps onto it within ORBIT_TOL in both
    components.  A pair is thus a founder exactly when no earlier founder mates it.
    """
    if not pairs:
        return []
    if isinstance(pairs, AdmissiblePairs):
        return [pairs[k] for k in np.sort(np.unique(pairs.orbit, return_index=True)[1]).tolist()]
    X = np.array([pr.x for pr in pairs])
    XS = np.array([pr.x_star for pr in pairs])
    K = np.argmax(np.abs(X), axis=1)
    founders, rest = [], np.arange(len(pairs))
    while rest.size:
        f, rest = rest[0], rest[1:]
        founders.append(pairs[f])
        rest = rest[~_mates(X, XS, K, f, rest)]
    return founders


def _check_attain_tol(rel_tol: float) -> None:
    """Reject an attaining tolerance (relative to the best value) outside [0, 1).

    A NaN fails the test too.  Both methods call this before any solve.
    """
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError(f"attaining tolerance must satisfy 0 <= tol < 1, got {rel_tol}")


def _check_tuple(T: OperatorTuple, space: SpaceDescriptor) -> None:
    """Reject a tuple that does not act on the space: another dimension, or complex on a real space.

    Both methods and `cli.parse` call this before any solve.
    """
    if T.n != space.dim:
        raise DimensionMismatch(f"space dimension {space.dim} does not match operator dimension {T.n}")
    if T.field == COMPLEX and space.field != COMPLEX:
        raise Unsupported("a real space requires a real tuple")


def _result(values, pairs, method: str, T: OperatorTuple, attain_tol: float) -> RadiusResult:
    """The result of the pairs and their values, in a fixed order: one `orbit_dedup` call groups the near-best pairs."""
    best = max(values)
    cut = best - attain_tol * max(best, 0.0)
    keep = [k for k, v in enumerate(values) if v >= cut]
    near = pairs.at(keep) if isinstance(pairs, AdmissiblePairs) else [pairs[k] for k in keep]
    by_id = {id(pr): values[k] for k, pr in zip(keep, near)}
    orbits = tuple(Orbit(rep, by_id[id(rep)]) for rep in orbit_dedup(near))
    attaining = AttainingSet(orbits=orbits, exhaustive=method == EXACT_ENUMERATION)
    surrogate = T.max_entry()  # a value within 1e-12 max|T_ij| of zero, for a nonzero T, is degenerate
    return RadiusResult(best, method, attaining, degenerate=surrogate > 0 and best <= 1e-12 * surrogate)


def radius_exact(
    T: OperatorTuple,
    space: SpaceDescriptor,
    attain_tol: float = ATTAIN_TOL_EXACT,
) -> RadiusResult:
    """Exact radius by enumeration of admissible extreme pairs."""
    _check_tuple(T, space)
    _check_attain_tol(attain_tol)
    pairs = admissible_pairs(space)
    P, D = pairs.primal, pairs.dual
    if T.d * len(D) * len(P) > ENTRY_BUDGET:  # W, refused before it is formed; its gather is no larger
        raise Unsupported(f"the {T.d} x {len(D)} x {len(P)} scores exceed the entry budget {ENTRY_BUDGET}")
    stand, scored_primal, at = pairs.scoring  # each orbit's lower pair is scored for the orbit
    W = D @ T.matrices @ scored_primal.T  # W[i, j, k] = d_j(T_i p_k), real: one BLAS product, not pair_images
    vals = lp_norm_rows(np.take(W.reshape(T.d, -1), at, axis=1).T, T.p)  # np.take: ~4x a fancy index
    # Both this pass and aggregate form z_i = x*(T_i x) from two length-n dot
    # products, in different orders, so each is within 2 n eps S of the exact
    # z_i (sqrt(2) more for complex T), with S = n^2 max|T| max|P| max|D|.
    # Their l_p norms of d entries then differ by delta <= 6 n d eps S +
    # 2 (d + 4) eps best, the last term from rounding the two norms.  A mate
    # (-v + e, -u + f), |e| <= g_P and |f| <= g_D (the gap), has z' - z =
    # (-u + f)(T e) - f(T v), -u + f a listed row, so its l_p norm is within G =
    # d n^2 max|T| (g_P max|D| + g_D max|P|) of its lower pair's: a kept pair's
    # lower pair scores at least best (1 - tol) - 2 delta - G here.  The slack covers
    # 2 delta, both cuts' rounding, (tiny term) underflow, whose rounding is absolute,
    # and 2 G, G and its own rounding.  G is 0 when the gaps are, even on overflow.
    n, d, m = T.n, T.d, T.max_entry()
    pm, dm = np.abs(P).max(), np.abs(D).max()
    S = n * n * m * pm * dm
    G = (pairs.gap[0] * dm + pairs.gap[1] * pm) * d * n * n * m
    best = vals.max()
    slack = 16 * np.finfo(float).eps * (n * d * S + (d + 2) * best) + n * d * np.finfo(float).tiny + 2 * G
    pairs = pairs.at(np.flatnonzero(vals[stand] >= best - attain_tol * best - slack))
    return _result([aggregate(T, pr) for pr in pairs], pairs, EXACT_ENUMERATION, T, attain_tol)


# ---------------------------------------------------------------------------
# multi-start ascent on smooth l_r spaces


class _Evaluation(NamedTuple):
    """The objective at unit vectors x, one per row, and the pieces their gradients reuse."""

    value: np.ndarray  # (k,)
    x: np.ndarray  # (k, n)
    a: np.ndarray  # |x_k|
    pw2: np.ndarray  # |x_k|^(r-2), zero convention
    s: np.ndarray  # functional coefficients conj(x_k)|x_k|^(r-2)
    Y: np.ndarray  # (k, d, n); Y[j, i] is T_i x of row j
    z: np.ndarray  # (k, d) pair images, z_i = sum_l s_l (T_i x)_l

    def take(self, idx) -> "_Evaluation":
        return _Evaluation(*(f[idx] for f in self))

    def put(self, idx, other: "_Evaluation") -> None:
        for mine, theirs in zip(self, other):
            mine[idx] = theirs


def _real_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Re np.vdot(u, v) for each pair of rows."""
    return (_conj(U)[:, None, :] @ V[:, :, None])[:, 0, 0].real


def _objective(T: OperatorTuple, r: float, X: np.ndarray) -> _Evaluation:
    """Evaluate ||(x*(T_i x))_i||_p, x* the duality image of the unit vector x, for each row x of X."""
    a = np.abs(X)
    pw2 = _off_tiny(a, lambda a: a ** (r - 2.0), a)
    s = _conj(X) * pw2  # the floats of _signed_power(x, r - 2)
    Y, z = pair_images(T.matrices, X, s)
    return _Evaluation(lp_norm_rows(z, T.p), X, a, pw2, s, Y, z)


def _gradient(T: OperatorTuple, r: float, ev: _Evaluation) -> np.ndarray:
    """Riemannian-style gradient of the objective at each evaluated point, one per row.

    Complex coordinates are treated as pairs of real ones; each row is the
    steepest-ascent direction under the real inner product Re<., .>.
    """
    x, a, pw2, s, Y = ev.x, ev.a, ev.pw2, ev.s, ev.Y
    # conj(x_k)^2 |x_k|^(r-4), written so that no factor over- or underflows; pw2 on real x: (x_k/|x_k|)^2 = 1
    c2 = pw2 if x.dtype.kind != "c" else _off_tiny(a, lambda x, a, w: (np.conj(x) / a) ** 2 * w, x, a, pw2)

    # a zero objective has z = 0, so zp = 0 and the gradient is 0
    val = np.where(ev.value == 0.0, 1.0, ev.value)[:, None]
    zp = _signed_power(ev.z / val, T.p - 2.0)[:, None, :]  # conj(z_i)|z_i|^(p-2) / val^(p-1)
    A = ((r / 2.0) * pw2)[:, None, :] * Y
    sT = (s[:, None, None, :] @ T.matrices)[:, :, 0, :]  # row i is T_i^T s
    B = (((r - 2.0) / 2.0) * c2)[:, None, :] * Y + sT
    G = (zp @ A)[:, 0, :] + _conj((zp @ B)[:, 0, :])

    # project onto the tangent of the l_r sphere at x; |nu| > 0 on a unit vector
    nu = _conj(s)  # gradient direction of the norm, x_k|x_k|^(r-2)
    sv = s[:, None, :]  # conj(nu), so Re<nu, v> is Re(sv @ v)
    G -= ((sv @ G[:, :, None]).real / (sv @ nu[:, :, None]).real)[:, 0] * nu
    return G


def _normalize(Y: np.ndarray, r: float) -> np.ndarray:
    X = Y / lp_norm_rows(Y, r)[:, None]
    return X / lp_norm_rows(X, r)[:, None]


_HALVINGS = 0.5 ** np.arange(4.0)[:, None]  # the steps s, s/2, s/4, s/8 one backtracking pass tries


def _ascend_all(T: OperatorTuple, space: SpaceDescriptor, X0: np.ndarray, rngs):
    """Ascend from every row of X0 in lockstep; returns (values, X, iters).

    Row j is the start x0 = X0[j]; its restarts draw from rngs[j].  Each row
    keeps its own step, stall count and restart count, and ends by its own
    stop rule, so it reaches the floats it would reach alone:
    - Each round takes one iteration of every live row: one gradient, a
      backtracking search, and a restart where the search fails.
    - A backtracking pass evaluates its m pending rows at s, s/2, s/4 and
      s/8 at once (candidate h m + q is row q at s/2^h), and each row takes
      its first that passes the Armijo test: the point a halving loop
      accepts.  A round ends in one of two ways: if every live row passes
      in the first pass, one take of the passing candidates (views of
      candidates 0..m-1 when each takes s) is the new state; otherwise the
      passing rows are scattered into the state, and the rest search again
      from s/16 or, once the step falls below MIN_STEP, restart.
    - iters[j] counts the gradients of row j, one per round it is live.
    """
    r = space.norm.r
    ev = _objective(T, r, _normalize(X0, r))
    k = len(X0)
    values, X, iters = np.empty(k), np.empty(ev.x.shape, ev.x.dtype), np.zeros(k, dtype=int)
    # the rows of ev, step, stalls and restarts belong to the live starts
    # ids; a start leaves them in the round it stops
    ids, step, rounds = np.arange(k), np.ones(k), 0
    stalls, restarts = np.zeros((2, k), dtype=int)
    while ids.size:
        rounds += 1
        G = _gradient(T, r, ev)
        gn2 = _real_dots(G, G)
        stop = gn2 == 0.0
        failed = np.zeros(ids.size, dtype=bool)
        whole = not stop.any()  # every live row searches, so none is gathered
        todo = np.arange(ids.size) if whole else (~stop).nonzero()[0]  # rows still searching
        f, g2, s = (ev.value, gn2, step) if whole else (ev.value[todo], gn2[todo], step[todo])
        s = np.minimum(4.0 * s, 1.0 / (1.0 + np.sqrt(g2)))
        while todo.size:
            m = todo.size
            steps = _HALVINGS * s
            x, g = (ev.x, G) if whole else (ev.x[todo], G[todo])
            cand = _objective(T, r, _normalize((x + steps[:, :, None] * g).reshape(4 * m, -1), r))
            # c = 0.3 keeps the accepted step below 1.4/curvature, so the
            # local contraction factor stays bounded away from 1
            ok = cand.value.reshape(4, m) >= f + 0.3 * steps * g2
            ok &= steps >= MIN_STEP
            # a gain below 1e-15 f (f >= 0) is rounding; a null step (cand == x) gains 0
            if whole and ((first := ok[0].all()) or ok.any(axis=0).all()):  # no scatter, nothing to restart
                c = slice(m) if first else ok.argmax(axis=0) * m + todo  # all at s: the first m, as views
                ev, step = cand.take(c), steps.ravel()[c]  # _HALVINGS[0] is 1.0, so at s the step is s
                stalls = np.where(ev.value - f <= 1e-15 * f, stalls + 1, 0)
                break
            whole, hit = False, ok.any(axis=0)
            q = hit.nonzero()[0]
            j, c = todo[q], ok[:, q].argmax(axis=0) * m + q  # each hit row's first passing candidate
            stalls[j] = np.where(cand.value[c] - f[q] <= 1e-15 * f[q], stalls[j] + 1, 0)
            step[j] = steps.ravel()[c]
            ev.put(j, cand.take(c))  # f may be ev.value, but its rows j are not read again
            more = ~hit & (s * 0.0625 >= MIN_STEP)
            failed[todo[~hit & ~more]] = True
            todo, f, g2, s = todo[more], f[more], g2[more], s[more] * 0.0625
        # a failed search may be a stall at a kink (some z_i = 0 with p < 2):
        # restart the row from a small perturbation, at most twice
        if not whole:  # when whole, every row passed in the first pass and no search failed
            again = (failed & (restarts < 2)).nonzero()[0]
            stop |= failed & (restarts == 2)
            if again.size:
                Y = np.array([ev.x[j] + 1e-3 * _gaussian(space, rngs[ids[j]]) for j in again])
                ev.put(again, _objective(T, r, _normalize(Y, r)))
                restarts[again] += 1
                stalls[again] = 0
                step[again] = 1.0
        stop |= (stalls == 3) | (rounds == MAX_ITER)
        if stop.any():
            values[ids[stop]], X[ids[stop]], iters[ids[stop]] = ev.value[stop], ev.x[stop], rounds
            keep = ~stop
            ids, ev, step, stalls, restarts = ids[keep], ev.take(keep), step[keep], stalls[keep], restarts[keep]
    return values, X, iters


def _ascend(T: OperatorTuple, space: SpaceDescriptor, x0: np.ndarray, rng):
    """One start: the one-row case of `_ascend_all`; returns (value, x)."""
    values, X, _ = _ascend_all(T, space, x0[None], [rng])
    return float(values[0]), X[0]


def radius_smooth(
    T: OperatorTuple,
    space: SpaceDescriptor,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    attain_tol: float = ATTAIN_TOL_SMOOTH,
) -> RadiusResult:
    """Multi-start projected gradient ascent on a smooth l_r space.

    Start k draws its initial point and its restarts from
    default_rng([seed, k]).  The starts run in lockstep, in blocks of at
    most DEFAULT_STARTS rows, so memory does not grow with `starts`.
    """
    _check_tuple(T, space)
    if not space.is_smooth_lp:
        raise Unsupported("radius_smooth requires an l_r space with 1 < r < inf")
    _check_counts(seed, starts=starts)
    _check_attain_tol(attain_tol)
    # the ascent's step cap and stop test are not scale-free, so it runs on
    # T / max|T_ij| (a division: 1/m overflows for subnormal m)
    m = T.max_entry() or 1.0
    unit = OperatorTuple(T.matrices / m, p=T.p, field=T.field)
    values, pairs = [], []
    for lo in range(0, starts, DEFAULT_STARTS):
        rngs = [np.random.default_rng([seed, k]) for k in range(lo, min(lo + DEFAULT_STARTS, starts))]
        vals, X, _ = _ascend_all(unit, space, np.array([random_unit_vector(space, g) for g in rngs]), rngs)
        values += [m * v for v in vals.tolist()]
        pairs += [NormingPair(x, xs) for x, xs in zip(X, smooth_duality_vector(X, space.norm.r))]
    return _result(values, pairs, MULTI_START, T, attain_tol)


def radius(
    T: OperatorTuple,
    space: SpaceDescriptor,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    attain_tol: float | None = None,
) -> RadiusResult:
    """Dispatch to the exact or multi-start method based on the space.

    attain_tol=None keeps each method's own default attaining tolerance.
    starts and seed are checked on both methods.
    """
    _check_counts(seed, starts=starts)
    tol = {} if attain_tol is None else {"attain_tol": attain_tol}
    if space.is_smooth_lp:
        return radius_smooth(T, space, starts=starts, seed=seed, **tol)
    return radius_exact(T, space, **tol)
