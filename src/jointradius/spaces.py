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
        prim = [np.asarray(v, dtype=float) for v in self.norm.primal_extremes]
        dual = [np.asarray(u, dtype=float) for u in self.norm.dual_extremes]
        if not prim or not dual:
            raise InvalidDescriptor("extreme lists must be nonempty")
        for vecs, name in ((prim, "primal"), (dual, "dual")):
            for v in vecs:
                if v.shape != (self.dim,):
                    raise InvalidDescriptor(f"{name} extreme of wrong dimension")
                if not any(np.max(np.abs(v + w)) <= DESCRIPTOR_TOL for w in vecs):
                    raise InvalidDescriptor(f"{name} extremes not closed under negation")
        P = np.array(prim)
        D = np.array(dual)
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


def _dual_matrix(space: SpaceDescriptor) -> np.ndarray:
    return np.array([np.asarray(u, dtype=float) for u in space.norm.dual_extremes])


def _primal_matrix(space: SpaceDescriptor) -> np.ndarray:
    return np.array([np.asarray(v, dtype=float) for v in space.norm.primal_extremes])


def norm_eval(space: SpaceDescriptor, v) -> float:
    """Norm of v in the space."""
    vec = space.as_vector(v)
    if isinstance(space.norm, Polyhedral):
        return float(np.max(np.abs(_dual_matrix(space) @ vec)))
    return float(np.linalg.norm(vec, ord=space.norm.r))


def dual_norm_eval(space: SpaceDescriptor, u) -> float:
    """Norm of the functional u in the dual space."""
    vec = space.as_vector(u)
    if isinstance(space.norm, Polyhedral):
        return float(np.max(np.abs(_primal_matrix(space) @ vec)))
    return float(np.linalg.norm(vec, ord=conjugate_exponent(space.norm.r)))


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


def _finite_extreme_space(space: SpaceDescriptor) -> bool:
    if isinstance(space.norm, Polyhedral):
        return True
    r = space.norm.r
    return (r == 1 or math.isinf(r)) and space.field == REAL


def _sign_vectors(n: int) -> list[np.ndarray]:
    if n > SIGN_ENUM_CAP:
        raise Unsupported(f"sign-vector enumeration capped at dim {SIGN_ENUM_CAP}")
    return [np.array(s, dtype=float) for s in itertools.product((1.0, -1.0), repeat=n)]


def _unit_vectors(n: int) -> list[np.ndarray]:
    out = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        out.append(e)
        out.append(-e)
    return out


def extreme_points(space: SpaceDescriptor):
    """Extreme points of the primal and dual unit balls.

    Returns (primal, dual) lists for polyhedral spaces and real l_1/l_inf;
    returns UNBOUNDED for strictly convex l_r (the whole sphere).
    """
    if isinstance(space.norm, Polyhedral):
        return (
            [np.asarray(v, dtype=float) for v in space.norm.primal_extremes],
            [np.asarray(u, dtype=float) for u in space.norm.dual_extremes],
        )
    r = space.norm.r
    if 1 < r < math.inf:
        return UNBOUNDED
    if space.field != REAL:
        raise Unsupported("extreme structure of complex l_1/l_inf is not implemented")
    n = space.dim
    if r == 1:
        return _unit_vectors(n), _sign_vectors(n)
    return _sign_vectors(n), _unit_vectors(n)


def duality_map(space: SpaceDescriptor, x) -> list[NormingPair]:
    """All extreme-point norming functionals of the unit vector x."""
    vec = space.as_vector(x)
    if abs(norm_eval(space, vec) - 1.0) > PAIR_TOL:
        raise InvalidDescriptor("duality_map requires a unit vector")
    if space.is_smooth_lp:
        return [NormingPair(vec, smooth_duality_vector(vec, space.norm.r))]
    ext = extreme_points(space)
    if ext is UNBOUNDED:  # pragma: no cover - excluded by the branch above
        raise Unsupported("no finite duality map for this space")
    _, dual = ext
    active = [u for u in dual if abs(pairing(u, vec) - 1.0) <= ACTIVE_TOL]
    if not active:
        raise InvalidDescriptor("no active dual extreme: inconsistent descriptor")
    return [NormingPair(vec, u.astype(space.dtype())) for u in active]


def admissible_pairs(space: SpaceDescriptor) -> list[NormingPair]:
    """All extreme pairs (x, x*) with x*(x) = 1; exact basis for the radius."""
    ext = extreme_points(space)
    if ext is UNBOUNDED:
        raise Unsupported("admissible pairs need finite extreme-point lists")
    primal, dual = ext
    pairs = []
    for v in primal:
        for u in dual:
            if abs(pairing(u, v) - 1.0) <= DESCRIPTOR_TOL:
                pairs.append(NormingPair(v, u))
    if not pairs:
        raise InvalidDescriptor("no admissible pairs: inconsistent descriptor")
    return pairs


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
