"""Finite-dimensional normed space models.

A space is either an l_r space (real or complex) or a real polyhedral
space given by the extreme points of its primal and dual unit balls.
Norming pairs (x, x*) carry a unit vector together with a unit dual
functional satisfying x*(x) = 1.

Complex pairing convention: a functional stored as the vector u acts as
u(z) = sum_i conj(u_i) z_i, so that on Hilbert space u = x reproduces
<z, x>.  This convention is used everywhere in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatch, InvalidDescriptor, Unsupported

REAL = "real"
COMPLEX = "complex"

DESCRIPTOR_TOL = 1e-12
PAIR_TOL = 1e-10
ACTIVE_TOL = 1e-10

# {+-1}^n enumeration cap: 2^20 is about 10^6 extreme points.
SIGN_ENUM_CAP = 20


def conjugate_exponent(r: float) -> float:
    """Holder conjugate r' with 1/r + 1/r' = 1 (handles 1 and inf)."""
    if r == 1:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def pairing(u: np.ndarray, z: np.ndarray) -> complex | float:
    """Apply the functional u to z under the fixed conjugation convention."""
    if np.iscomplexobj(u) or np.iscomplexobj(z):
        return complex(np.vdot(u, z))
    return float(np.dot(u, z))


@dataclass(frozen=True)
class LpNorm:
    r: float  # in [1, inf]

    def __post_init__(self):
        if not (self.r >= 1):
            raise InvalidDescriptor(f"l_r norm needs r >= 1, got {self.r}")


@dataclass(frozen=True)
class Polyhedral:
    primal_extremes: tuple  # tuple of real vectors
    dual_extremes: tuple


class _UnboundedType:
    """Sentinel: the extreme point set is the whole unit sphere."""

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _UnboundedType()


@dataclass(frozen=True)
class SpaceDescriptor:
    field: str
    dim: int
    norm: LpNorm | Polyhedral

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise InvalidDescriptor(f"unknown field {self.field!r}")
        if self.dim < 1:
            raise InvalidDescriptor("dim must be a positive integer")
        if isinstance(self.norm, Polyhedral):
            self._validate_polyhedral()

    def _validate_polyhedral(self):
        if self.field != REAL:
            raise InvalidDescriptor("polyhedral spaces are real-only")
        if len(self.norm.primal_extremes) == 0 or len(self.norm.dual_extremes) == 0:
            raise InvalidDescriptor("extreme lists must be nonempty")
        try:
            P, D = extreme_points(self)
        except ValueError as exc:
            raise InvalidDescriptor("extreme points must be numeric vectors of one length") from exc
        for E, name in ((P, "primal"), (D, "dual")):
            if E.ndim != 2 or E.shape[1] != self.dim:
                raise InvalidDescriptor(f"{name} extreme of wrong dimension")
            if not np.all(np.isfinite(E)):
                raise InvalidDescriptor(f"{name} extremes must be finite")
            # every row v has a row w with v + w = 0
            gaps = np.max(np.abs(E[:, None, :] + E[None, :, :]), axis=2)
            if not np.all(np.any(gaps <= DESCRIPTOR_TOL, axis=1)):
                raise InvalidDescriptor(f"{name} extremes not closed under negation")
        G = np.abs(D @ P.T)  # |<u, v>| for every (u, v)
        if np.max(np.abs(G.max(axis=0) - 1.0)) > DESCRIPTOR_TOL:
            raise InvalidDescriptor("primal extremes are not unit vectors of the polyhedral norm")
        if np.max(np.abs(G.max(axis=1) - 1.0)) > DESCRIPTOR_TOL:
            raise InvalidDescriptor("dual extremes are not unit vectors of the dual norm")
        # a degenerate (lower-dimensional) ball does not define a norm
        if np.linalg.matrix_rank(P, tol=1e-9) < self.dim or np.linalg.matrix_rank(D, tol=1e-9) < self.dim:
            raise InvalidDescriptor("extreme points do not span the space")

    @property
    def is_smooth_lp(self) -> bool:
        return isinstance(self.norm, LpNorm) and 1 < self.norm.r < math.inf

    def dtype(self):
        return complex if self.field == COMPLEX else float

    def as_vector(self, v) -> np.ndarray:
        out = np.asarray(v, dtype=self.dtype())
        if out.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got shape {out.shape}")
        return out


@dataclass(frozen=True)
class NormingPair:
    """Unit vector x and unit dual functional x_star with x_star(x) = 1."""

    x: np.ndarray
    x_star: np.ndarray

    def functional(self, z: np.ndarray) -> complex | float:
        return pairing(self.x_star, z)

    def validate(self, space: SpaceDescriptor, tol: float = PAIR_TOL) -> None:
        if abs(norm_eval(space, self.x) - 1.0) > tol:
            raise InvalidDescriptor("x is not a unit vector")
        if abs(dual_norm_eval(space, self.x_star) - 1.0) > tol:
            raise InvalidDescriptor("x_star is not a unit dual vector")
        if abs(self.functional(self.x) - 1.0) > tol:
            raise InvalidDescriptor("x_star(x) != 1")


def norm_eval(space: SpaceDescriptor, v) -> float:
    """Norm of v in the space."""
    vec = space.as_vector(v)
    if isinstance(space.norm, Polyhedral):
        return float(np.max(np.abs(extreme_points(space)[1] @ vec)))
    return lp_norm(vec, space.norm.r)


def dual_norm_eval(space: SpaceDescriptor, u) -> float:
    """Norm of the functional u in the dual space."""
    vec = space.as_vector(u)
    if isinstance(space.norm, Polyhedral):
        return float(np.max(np.abs(extreme_points(space)[0] @ vec)))
    return lp_norm(vec, conjugate_exponent(space.norm.r))


def lp_norm(z: np.ndarray, p: float) -> float:
    """l_p norm of the vector z, computed as m * ||z / m||_p with m = max |z_i|.

    Dividing by m first keeps |z_i|^p inside the floating-point range for
    any scale of z and any p >= 1.
    """
    a = np.abs(z)  # a fresh array, so it is scaled and raised in place
    m = a.max()
    if not 0.0 < m < math.inf:
        return float(m)
    a /= m
    a **= p
    return float(m * a.sum() ** (1.0 / p))


def _signed_power(z: np.ndarray, e: float) -> np.ndarray:
    """conj(z) |z|^e with the limit value 0 near z = 0 (needed for e < 0).

    Magnitudes at or below 1e-300 map to exactly 0 so that negative
    exponents never produce overflow artifacts.
    """
    z = np.asarray(z)
    a = np.abs(z)
    out = np.zeros_like(z)
    nz = a > 1e-300
    out[nz] = np.conj(z[nz]) * a[nz] ** e
    return out


def smooth_duality_vector(x: np.ndarray, r: float) -> np.ndarray:
    """Norming functional of a unit vector x in l_r, 1 < r < inf.

    Stored under the conjugation convention, so the entries are
    x_i |x_i|^(r-2); applying it gives sum conj(x_i)|x_i|^(r-2) z_i.
    """
    return np.conj(_signed_power(x, r - 2.0))


def extreme_points(space: SpaceDescriptor):
    """Extreme points of the primal and dual unit balls.

    Returns (primal, dual) 2-D float arrays, one point per row, for
    polyhedral spaces and real l_1/l_inf; returns UNBOUNDED for strictly
    convex l_r (the whole sphere).  On l_1/l_inf the unit vectors come in
    the order e_1, -e_1, e_2, -e_2, ... and the sign vectors in the order of
    itertools.product((1, -1), repeat=n).
    """
    if isinstance(space.norm, Polyhedral):
        return (
            np.array(space.norm.primal_extremes, dtype=float),
            np.array(space.norm.dual_extremes, dtype=float),
        )
    r = space.norm.r
    if 1 < r < math.inf:
        return UNBOUNDED
    if space.field != REAL:
        raise Unsupported("extreme structure of complex l_1/l_inf is not implemented")
    n = space.dim
    if n > SIGN_ENUM_CAP:
        raise Unsupported(f"sign-vector enumeration capped at dim {SIGN_ENUM_CAP}")
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    units = np.kron(np.eye(n), [[1.0], [-1.0]])
    return (units, signs) if r == 1 else (signs, units)


def duality_map(space: SpaceDescriptor, x) -> list[NormingPair]:
    """All extreme-point norming functionals of the unit vector x."""
    vec = space.as_vector(x)
    if abs(norm_eval(space, vec) - 1.0) > PAIR_TOL:
        raise InvalidDescriptor("duality_map requires a unit vector")
    if space.is_smooth_lp:
        return [NormingPair(vec, smooth_duality_vector(vec, space.norm.r))]
    _, dual = extreme_points(space)
    active = dual[np.abs(dual @ vec - 1.0) <= ACTIVE_TOL]
    if len(active) == 0:
        raise InvalidDescriptor("no active dual extreme: inconsistent descriptor")
    return [NormingPair(vec, u) for u in active]


def admissible_pairs(space: SpaceDescriptor) -> list[NormingPair]:
    """All extreme pairs (x, x*) with x*(x) = 1; exact basis for the radius.

    Pairs come primal-major: all functionals of the first primal extreme,
    then those of the second, and so on.
    """
    ext = extreme_points(space)
    if ext is UNBOUNDED:
        raise Unsupported("admissible pairs need finite extreme-point lists")
    primal, dual = ext
    rows, cols = np.nonzero(np.abs(primal @ dual.T - 1.0) <= DESCRIPTOR_TOL)
    if len(rows) == 0:
        raise InvalidDescriptor("no admissible pairs: inconsistent descriptor")
    # one view per extreme point, shared by all of its pairs
    primal, dual = list(primal), list(dual)
    return [NormingPair(primal[i], dual[j]) for i, j in zip(rows.tolist(), cols.tolist())]


def _gaussian(space: SpaceDescriptor, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian vector of the space's field (complex: independent parts)."""
    g = rng.standard_normal(space.dim)
    if space.field == COMPLEX:
        g = g + 1j * rng.standard_normal(space.dim)
    return g


def random_unit_vector(space: SpaceDescriptor, rng: np.random.Generator) -> np.ndarray:
    while True:
        g = _gaussian(space, rng)
        nrm = norm_eval(space, g)
        if nrm > 1e-8:
            x = g / nrm
            # renormalize once more to kill rounding in the division
            return x / norm_eval(space, x)


def sample_pairs(space: SpaceDescriptor, count: int, seed: int) -> list[NormingPair]:
    """Seeded random norming pairs; x* chosen uniformly among the duality map."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = random_unit_vector(space, rng)
        candidates = duality_map(space, x)
        out.append(candidates[int(rng.integers(len(candidates)))])
    return out


# ---------------------------------------------------------------------------
# JSON schema


def space_to_json(space: SpaceDescriptor) -> dict:
    if isinstance(space.norm, Polyhedral):
        norm = {
            "kind": "polyhedral",
            "primal_extremes": [list(map(float, v)) for v in space.norm.primal_extremes],
            "dual_extremes": [list(map(float, u)) for u in space.norm.dual_extremes],
        }
    else:
        r = space.norm.r
        norm = {"kind": "lp", "r": "inf" if math.isinf(r) else r}
    return {"field": space.field, "dim": space.dim, "norm": norm}


def space_from_json(obj: dict) -> SpaceDescriptor:
    try:
        fld = obj["field"]
        dim = int(obj["dim"])
        norm_obj = obj["norm"]
        kind = norm_obj["kind"]
    except (KeyError, TypeError) as exc:
        raise InvalidDescriptor(f"malformed space object: missing {exc}") from exc
    if kind == "lp":
        r = norm_obj["r"]
        r = math.inf if r in ("inf", "Infinity") else float(r)
        norm = LpNorm(r)
    elif kind == "polyhedral":
        norm = Polyhedral(
            tuple(tuple(map(float, v)) for v in norm_obj["primal_extremes"]),
            tuple(tuple(map(float, u)) for u in norm_obj["dual_extremes"]),
        )
    else:
        raise InvalidDescriptor(f"unknown norm kind {kind!r}")
    return SpaceDescriptor(field=fld, dim=dim, norm=norm)
