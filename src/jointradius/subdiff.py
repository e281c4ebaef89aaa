"""Subdifferential generators, one-sided Gateaux derivatives, smoothness.

Every norm-one functional supporting the joint radius at T is a convex
combination of rank-one generators built from attaining extreme pairs;
this module emits one generator per unimodular orbit (orbit-mates induce
the same functional), evaluates them, and derives the one-sided
derivative range and the smoothness verdict from the orbit structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optuples import CoefficientVector, OperatorTuple, pair_image, subdiff_coefficients
from .radius import RadiusResult, _require_positive
from .spaces import NormingPair, SpaceDescriptor

SMOOTH = "Smooth"
NOT_SMOOTH = "NotSmooth"
INCONCLUSIVE = "Inconclusive"

VALUE_WINDOW = 1e-8  # relative window for competing orbit values


@dataclass(frozen=True)
class SubdiffGenerator:
    pair: NormingPair
    alpha: CoefficientVector


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


def generators(T: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult):
    """One subdifferential generator per attaining orbit representative."""
    _require_positive(rr)
    return [
        SubdiffGenerator(
            pair=orb.representative,
            alpha=subdiff_coefficients(T, orb.representative, rr.value),
        )
        for orb in rr.attaining.orbits
    ]


def apply(gen: SubdiffGenerator, S: OperatorTuple):
    """Evaluate the generator functional: sum_i alpha_i x*(S_i x).

    A float for real data, a complex for complex data.
    """
    return np.dot(gen.alpha.alpha, pair_image(S, gen.pair)).item()


def gateaux_one_sided(
    T: OperatorTuple, S: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult
) -> GateauxReport:
    """One-sided directional derivatives of the radius at T toward S.

    Exact when the attaining set is exhaustive; otherwise g_plus is a
    lower bound for the true right derivative and g_minus an upper bound
    for the left one (missed orbits can only widen the range).  The
    c-values are Re f(S) for the generator f of each attaining orbit.
    """
    gens = generators(T, space, rr)
    T._check_compatible(S)
    cs = tuple(apply(g, S).real for g in gens)
    return GateauxReport(g_plus=max(cs), g_minus=min(cs), c_values=cs, exhaustive=rr.exhaustive)


def smoothness(T: OperatorTuple, space: SpaceDescriptor, rr: RadiusResult) -> SmoothnessReport:
    """Verdict: smooth iff the attaining set is a single unimodular orbit.

    Exhaustive enumeration is definitive.  Multi-start results give
    Smooth/NotSmooth when the orbit evidence is clear and Inconclusive
    otherwise (two orbits whose values are not separated enough to trust).
    """
    _require_positive(rr)
    orbits = rr.attaining.orbits
    if rr.exhaustive:
        verdict = SMOOTH if len(orbits) == 1 else NOT_SMOOTH
    else:
        if len(orbits) == 1:
            verdict = SMOOTH
        else:
            spread = max(o.value for o in orbits) - min(o.value for o in orbits)
            verdict = NOT_SMOOTH if spread <= VALUE_WINDOW * max(rr.value, 1.0) else INCONCLUSIVE
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
