"""Subdifferential generators, one-sided Gateaux derivatives, smoothness.

Every norm-one functional supporting the joint radius at T is a convex
combination of rank-one generators f_k(S) = sum_i alpha_ki x_k*(S_i x_k),
one per attaining unimodular orbit (orbit-mates induce the same
functional).  `_table` stacks them as (X, XS, alpha): the orbit
representatives and their coefficient rows, built once per radius result
and tuple object and kept, read-only, on the result.  `evaluate` reads it in
one array pass per direction, for the derivative range and the orthogonality
rows; only `generators` wraps its rows as `SubdiffGenerator` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optuples import OperatorTuple, coefficient_rows, pair_images, warn_unless_attaining
from .radius import RadiusResult, _require_positive
from .spaces import NormingPair, SpaceDescriptor

SMOOTH = "Smooth"
NOT_SMOOTH = "NotSmooth"
INCONCLUSIVE = "Inconclusive"

VALUE_WINDOW = 1e-8  # relative window for competing orbit values


@dataclass(frozen=True)
class SubdiffGenerator:
    pair: NormingPair
    alpha: np.ndarray  # unit vector of l_q


@dataclass(frozen=True)
class GateauxReport:
    g_plus: float
    g_minus: float
    c_values: tuple
    exhaustive: bool


@dataclass(frozen=True)
class SmoothnessReport:
    verdict: str
    exhaustive: bool
    generator: SubdiffGenerator | None = None

    @property
    def smooth(self) -> bool:
        return self.verdict == SMOOTH


def _table(T: OperatorTuple, rr: RadiusResult):
    """Row k: orbit k's representative (X[k], XS[k]) and coefficients alpha[k].

    The read-only table is kept on rr for the T object it was built for (any
    other T builds its own); each call warns when a representative does not
    attain the radius within 1e-6 relative.
    """
    _require_positive(rr)
    memo = rr._memo.get("table")
    if memo is None or memo[0] is not T:
        reps = [orb.representative for orb in rr.attaining.orbits]
        X, XS = np.array([pr.x for pr in reps]), np.array([pr.x_star for pr in reps])
        alpha, attains = coefficient_rows(T, X, XS, rr.value)
        for a in (X, XS, alpha):
            a.setflags(write=False)
        memo = rr._memo["table"] = (T, (X, XS, alpha), attains)
    warn_unless_attaining(memo[2])
    return memo[1]


def generators(T: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult):
    """One subdifferential generator per attaining orbit representative: the rows of `_table`."""
    orbits, alpha = rr.attaining.orbits, _table(T, rr)[2]
    return [SubdiffGenerator(pair=orb.representative, alpha=a) for orb, a in zip(orbits, alpha)]


def evaluate(table, directions) -> np.ndarray:
    """Matrix of f_k(S) = sum_i alpha_i x*(S_i x), one row per generator f_k
    of the table (X, XS, alpha) and one column per direction S, each column
    in one array pass."""
    X, XS, alpha = table
    return np.column_stack([np.sum(alpha * pair_images(S, X, XS), axis=1) for S in directions])


def apply(gen: SubdiffGenerator, S: OperatorTuple):
    """Evaluate the generator functional: sum_i alpha_i x*(S_i x).

    The one-row case of `evaluate`: a float for real data, a complex for
    complex data.
    """
    row = [np.asarray(v)[None] for v in (gen.pair.x, gen.pair.x_star, gen.alpha)]
    return evaluate(row, [S])[0, 0].item()


def gateaux_one_sided(
    T: OperatorTuple, S: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult
) -> GateauxReport:
    """One-sided directional derivatives of the radius at T toward S.

    Exact when the attaining set is exhaustive; otherwise g_plus is a
    lower bound for the true right derivative and g_minus an upper bound
    for the left one (missed orbits can only widen the range).  The
    c-values are Re f(S) for the generator f of each attaining orbit.
    """
    table = _table(T, rr)
    T._check_compatible(S)
    cs = tuple(evaluate(table, [S])[:, 0].real.tolist())
    return GateauxReport(g_plus=max(cs), g_minus=min(cs), c_values=cs, exhaustive=rr.exhaustive)


def smoothness(T: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult) -> SmoothnessReport:
    """Verdict: smooth iff the attaining set is a single unimodular orbit.

    Exhaustive enumeration is definitive.  Multi-start results give
    Smooth/NotSmooth when the orbit evidence is clear and Inconclusive
    otherwise (two orbits whose values are not separated enough to trust).
    """
    _require_positive(rr)
    values = [o.value for o in rr.attaining.orbits]
    if len(values) == 1:
        verdict = SMOOTH
    elif rr.exhaustive or max(values) - min(values) <= VALUE_WINDOW * rr.value:
        verdict = NOT_SMOOTH
    else:
        verdict = INCONCLUSIVE
    gen = generators(T, space, rr)[0] if verdict == SMOOTH else None
    return SmoothnessReport(verdict=verdict, exhaustive=rr.exhaustive, generator=gen)


def gateaux_derivative(
    T: OperatorTuple, S: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult
) -> float:
    """Full Gateaux derivative; requires T to be a smooth point."""
    report = smoothness(T, space, rr)
    if not report.smooth:
        raise ValueError(f"radius is not Gateaux differentiable here (verdict {report.verdict})")
    return apply(report.generator, S).real
