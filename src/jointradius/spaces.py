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
import numbers
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatch, InvalidDescriptor, Unsupported

REAL = "real"
COMPLEX = "complex"

DESCRIPTOR_TOL = 1e-12
PAIR_TOL = 1e-10
ACTIVE_TOL = 1e-10
ORBIT_TOL = 1e-6  # distance below which two pairs can be orbit mates

# entries in one array built from the extreme points: 2^24 float64 are 128 MiB
ENTRY_BUDGET = 1 << 24


def conjugate_exponent(r: float) -> float:
    """Holder conjugate r' with 1/r + 1/r' = 1 (handles 1 and inf)."""
    if r == 1:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


@dataclass(frozen=True)
class LpNorm:
    r: float  # in [1, inf]

    def __post_init__(self):
        if not (_number(self.r, "r") >= 1):
            raise InvalidDescriptor(f"l_r norm needs r >= 1, got {self.r}")


@dataclass(frozen=True)
class Polyhedral:
    primal_extremes: tuple  # tuple of float tuples, from any nested sequence of reals (as JSON input is read)
    dual_extremes: tuple

    def __post_init__(self):
        for key in ("primal_extremes", "dual_extremes"):
            try:
                extremes = tuple(tuple(_number(c, f"{key} entry") for c in v) for v in getattr(self, key))
            except TypeError as exc:  # the list, or one of its extremes, is not a sequence
                raise InvalidDescriptor(f"{key} must be a list of numeric vectors") from exc
            object.__setattr__(self, key, extremes)


@dataclass(frozen=True)
class SpaceDescriptor:
    field: str
    dim: int
    norm: LpNorm | Polyhedral

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise InvalidDescriptor(f"unknown field {self.field!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise InvalidDescriptor(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))  # a numpy integer would not serialize to JSON
        if not isinstance(self.norm, (LpNorm, Polyhedral)):
            raise InvalidDescriptor(f"norm must be an LpNorm or a Polyhedral, got {self.norm!r}")
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
        if max(len(P), len(D)) ** 2 * self.dim > ENTRY_BUDGET:  # the list rules' arrays, N x N x dim for N rows
            raise Unsupported(f"{len(P)} x {len(D)} extremes in dim {self.dim} exceed the entry budget {ENTRY_BUDGET}")
        for E, name in ((P, "primal"), (D, "dual")):
            if E.ndim != 2 or E.shape[1] != self.dim:
                raise InvalidDescriptor(f"{name} extreme of wrong dimension")
            if not np.all(np.isfinite(E)):
                raise InvalidDescriptor(f"{name} extremes must be finite")
        admissible_pairs(self)  # raises, keeping nothing, where a list rule of `_negations` fails

    @property
    def is_smooth_lp(self) -> bool:
        return isinstance(self.norm, LpNorm) and 1 < self.norm.r < math.inf

    def as_vector(self, v) -> np.ndarray:
        """v as a vector of the space; InvalidDescriptor unless it is finite, and real on a real space."""
        out = np.asarray(v)
        if out.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got shape {out.shape}")
        if self.field == REAL and out.dtype.kind == "c":
            if np.any(out.imag != 0):
                raise InvalidDescriptor("complex entries in a real-field vector")
            out = out.real
        out = out.astype(complex if self.field == COMPLEX else float, copy=False)
        if not np.isfinite(out).all():
            raise InvalidDescriptor("vector entries must be finite")
        return out


@dataclass(frozen=True)
class NormingPair:
    """Unit vector x and unit dual functional x_star with x_star(x) = 1."""

    x: np.ndarray
    x_star: np.ndarray

    def functional(self, z: np.ndarray) -> complex | float:
        """x*(z) under the conjugation convention."""
        return np.vdot(self.x_star, z).item()

    def validate(self, space: SpaceDescriptor) -> None:
        if abs(norm_eval(space, self.x) - 1.0) > PAIR_TOL:
            raise InvalidDescriptor("x is not a unit vector")
        if abs(dual_norm_eval(space, self.x_star) - 1.0) > PAIR_TOL:
            raise InvalidDescriptor("x_star is not a unit dual vector")
        if abs(self.functional(self.x) - 1.0) > PAIR_TOL:
            raise InvalidDescriptor("x_star(x) != 1")


def norm_eval(space: SpaceDescriptor, v) -> float:
    """Norm of v in the space."""
    vec = space.as_vector(v)
    if isinstance(space.norm, Polyhedral):
        return float(np.max(np.abs(admissible_pairs(space).dual @ vec)))
    return lp_norm(vec, space.norm.r)


def dual_norm_eval(space: SpaceDescriptor, u) -> float:
    """Norm of the functional u in the dual space."""
    vec = space.as_vector(u)
    if isinstance(space.norm, Polyhedral):
        return float(np.max(np.abs(admissible_pairs(space).primal @ vec)))
    return lp_norm(vec, conjugate_exponent(space.norm.r))


def lp_norm(z: np.ndarray, p: float) -> float:
    """l_p norm of the vector z: the one-row case of `lp_norm_rows`, with the same floats.

    Below 8 entries numpy's per-call cost exceeds the arithmetic, so the
    same steps run here with the reductions and the root in Python floats:
    numpy sums so few entries left to right as well, and Python's
    float ** float calls the C library's pow, as `lp_norm_rows` does.
    """
    a = np.abs(z)  # a fresh array, so it is scaled and raised in place
    short = a.size < 8
    m = max(a.tolist()) if short else a.max()
    if a.size == 1:  # |z|, as in `lp_norm_rows`
        return float(m)
    if not 0.0 < m < math.inf:
        return float(a.max())  # 0, inf or NaN; numpy's max lets a NaN through
    if not short:
        return float(lp_norm_rows(a[None], p)[0])
    a /= m
    a **= p
    total = 0.0
    for v in a.tolist():  # not sum(): Python 3.12+ compensates it
        total += v
    return m * total ** (1.0 / p)


def lp_norm_rows(Z: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of each row of the finite 2-D array Z, with the floats `lp_norm` gives the row alone.

    Dividing each row by its scale m = max |z_i| first keeps |z_i|^p inside
    the floating-point range for any scale of z and any p >= 1; a zero row
    has the scale 5e-324 and the sum 0, so norm 0.  Rows shorter than 8 are
    summed on a column-major copy, which adds whole columns at once, left to
    right, as numpy sums so few entries; longer rows are summed in place, by
    numpy's pairwise sum of each row.  The root is taken with np.float_power,
    which calls the C library's pow as Python's float ** float does.  numpy's
    ** on a float array may use a vectorised pow instead, which rounds
    differently on about 5 % of inputs on AVX-512 hosts.  A one-column row's
    norm is |z|: the general path gives m * 1^(1/p) = |z| exactly, as
    (|z| / |z|)^p = 1.
    """
    if Z.shape[1] == 1:
        return np.abs(Z[:, 0])
    A = np.abs(Z)
    short = A.shape[1] < 8
    if short:
        A = np.ascontiguousarray(A.T)  # no copy when Z is a transposed C array
    m = A.max(axis=0 if short else 1)
    np.maximum(m, 5e-324, out=m)  # the least subnormal: only a zero row is raised
    A /= m if short else m[:, None]
    A **= p
    return m * np.float_power(A.sum(axis=0 if short else 1), 1.0 / p)


def _signed_power(z: np.ndarray, e: float) -> np.ndarray:
    """conj(z) |z|^e with the limit value 0 near z = 0 (needed for e < 0).

    Magnitudes at or below 1e-300 map to exactly 0 so that negative
    exponents never produce overflow artifacts.
    """
    z = np.asarray(z)
    a = np.abs(z)
    return _off_tiny(a, lambda z, a: _conj(z) * a**e, z, a)


def _conj(z: np.ndarray) -> np.ndarray:
    """conj(z), skipping the call on real arrays, where it is the identity."""
    return np.conj(z) if z.dtype.kind == "c" else z


def _off_tiny(a: np.ndarray, f, *args) -> np.ndarray:
    """Elementwise f(*args) where a > 1e-300 and 0 elsewhere; unmasked, for fewer calls, when no entry is that small."""
    if a.min(initial=math.inf) > 1e-300:
        return f(*args)
    nz = a > 1e-300
    out = np.zeros(a.shape, np.result_type(*args))
    out[nz] = f(*(u[nz] for u in args))
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
    polyhedral spaces and real l_1/l_inf; raises Unsupported on strictly
    convex l_r, where every unit vector is extreme.  On l_1/l_inf the unit
    vectors come in the order e_1, -e_1, e_2, -e_2, ... and the 2^n sign
    vectors in lexicographic order with +1 before -1: row k has -1 in
    coordinate j exactly when bit n-1-j of k is set.
    """
    if isinstance(space.norm, Polyhedral):
        return (
            np.array(space.norm.primal_extremes, dtype=float),
            np.array(space.norm.dual_extremes, dtype=float),
        )
    if space.is_smooth_lp:
        raise Unsupported("every unit vector of a strictly convex l_r is extreme")
    if space.field != REAL:
        raise Unsupported("extreme structure of complex l_1/l_inf is not implemented")
    n = space.dim
    # the (2^n, 2n) pair table, checked before any allocation; any n >= 64 is far over budget
    if (2 * n) << min(n, 64) > ENTRY_BUDGET:
        raise Unsupported(f"real l_1/l_inf of dim {n} has more extreme pairs than the entry budget")
    units, signs = _signed_units(n), _sign_vectors(n)
    return (units, signs) if space.norm.r == 1 else (signs, units)


def _signed_units(n: int) -> np.ndarray:
    """The 2n rows e_1, -e_1, e_2, -e_2, ... of `extreme_points` on real l_1/l_inf."""
    if 2 * n * n > ENTRY_BUDGET:
        raise Unsupported(f"real l_1/l_inf of dim {n} has more unit-vector entries than the entry budget")
    return np.kron(np.eye(n), [[1.0], [-1.0]]) + 0.0  # kron leaves -0.0 in the -e_k rows


def _sign_vectors(n: int) -> np.ndarray:
    """The 2^n sign rows of `extreme_points` on real l_1/l_inf, in its order."""
    if n << min(n, 64) > ENTRY_BUDGET:
        raise Unsupported(f"real l_1/l_inf of dim {n} has more sign vectors than the entry budget")
    return 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)


def duality_map(space: SpaceDescriptor, x) -> list[NormingPair]:
    """All extreme-point norming functionals of the unit vector x; only the dual extremes are built."""
    vec = space.as_vector(x)
    if abs(norm_eval(space, vec) - 1.0) > PAIR_TOL:
        raise InvalidDescriptor("duality_map requires a unit vector")
    if space.is_smooth_lp:
        return [NormingPair(vec, smooth_duality_vector(vec, space.norm.r))]
    if isinstance(space.norm, Polyhedral) or space.field != REAL:
        dual = admissible_pairs(space).dual
    else:
        dual = _sign_vectors(space.dim) if space.norm.r == 1 else _signed_units(space.dim)
    active = dual[np.abs(dual @ vec - 1.0) <= ACTIVE_TOL]
    if len(active) == 0:
        raise InvalidDescriptor("no active dual extreme: inconsistent descriptor")
    return [NormingPair(vec, u) for u in active]


class AdmissiblePairs(Sequence):
    """The admissible extreme pairs (primal[rows[k]], dual[cols[k]]) and their sign-mate orbit ids orbit[k]: the
    lower table index of the pair and its mate (-v, -u), or its own where the mate is not admissible.  gap holds,
    for the primal and the dual list, the largest |w + w'| over its rows w and listed negations w'.  `scoring` is
    the exact radius's plan, which scores each orbit's lower pair: stand[t], the scored pair standing for pair t;
    their m primal extremes; and each one's flat index j m + q (dual extreme j, q-th of those primal extremes).

    `at(idx)` is the subset of the indices idx.  Access goes through one list
    of NormingPairs, built on first access or shared with the set a subset is
    taken from, so repeated access returns the same objects.
    """

    def __init__(self, primal, dual, rows, cols, orbit, gap, *scoring):
        self.primal, self.dual, self.rows, self.cols, self.orbit, self.gap = primal, dual, rows, cols, orbit, gap
        self.scoring, self._pairs = scoring, None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if self._pairs is None:
            rows, cols = self.rows.tolist(), self.cols.tolist()
            # one view per extreme point, shared by all of its pairs
            primal, dual = {i: self.primal[i] for i in set(rows)}, {j: self.dual[j] for j in set(cols)}
            self._pairs = [NormingPair(primal[i], dual[j]) for i, j in zip(rows, cols)]
        return self._pairs[k]

    def __iter__(self):
        return iter(self[:])

    def at(self, idx) -> "AdmissiblePairs":
        rest = self.orbit[idx], self.gap, *self.scoring
        sub = AdmissiblePairs(self.primal, self.dual, self.rows[idx], self.cols[idx], *rest)
        if self._pairs is not None:
            sub._pairs = [self._pairs[k] for k in np.arange(len(self))[idx].tolist()]
        return sub


def _negations(space: SpaceDescriptor, primal: np.ndarray, dual: np.ndarray, G: np.ndarray, admissible: np.ndarray):
    """The index of -v for each row v of either list of `extreme_points`, and each list's gap, max |v + w| over rows v
    and negations w.  On a polyhedral space -v is the nearest row, once the list rules pass on G and the mask."""
    if not isinstance(space.norm, Polyhedral):
        units, signs = np.arange(2 * space.dim) ^ 1, np.arange(2**space.dim)[::-1]
        return ((units, signs) if space.norm.r == 1 else (signs, units)), np.zeros(2)
    negs, gap = [], []
    for E, name in ((primal, "primal"), (dual, "dual")):
        sums = np.linalg.norm(E[:, None, :] + E[None, :, :], axis=2)  # |v + w| for every two rows
        negs.append(neg := np.argmin(sums, axis=1))
        gap.append(np.abs(E + E[neg]).max())
        if gap[-1] > DESCRIPTOR_TOL:
            raise InvalidDescriptor(f"{name} extremes not closed under negation")
        # the list closed, more entries than rows mean two rows within ORBIT_TOL, whose pairs `orbit_dedup` would merge
        if np.count_nonzero(sums <= ORBIT_TOL) > len(E):
            raise InvalidDescriptor(f"two {name} extremes lie within {ORBIT_TOL} of each other")
    for axis, name, norm in ((1, "primal", "polyhedral norm"), (0, "dual", "dual norm")):
        if np.max(np.abs(np.abs(G).max(axis=axis) - 1.0)) > DESCRIPTOR_TOL:
            raise InvalidDescriptor(f"{name} extremes are not unit vectors of the {norm}")
    # a vertex lies on dim independent facets: its admissible partners span the space (so both lists do)
    sides = ((primal, dual, admissible, "primal"), (dual, primal, admissible.T, "dual"))
    for E, F, mask, name in sides:
        if np.any(low := np.linalg.matrix_rank(mask[:, :, None] * F, tol=1e-9) < space.dim):
            what = f"{name} extreme {E[np.argmax(low)].tolist()} is not a vertex"
            raise InvalidDescriptor(f"{what}: its admissible partners do not span the space")
    # So each row of E is a vertex of F's polar; E lists them all (and F all of E's polar) when each edge at a row
    # ends at another, as the vertex graph is connected.  A row and dim - 1 tight partners F[S] of rank dim - 1 whose
    # null line leaves all the row's tight partners on one side span an edge, and a second row must be tight on S.
    counts = [[math.comb(t, space.dim - 1) for t in mask.sum(axis=1).tolist()] for _, _, mask, _ in sides]
    (E, F, mask, name), counts = min(zip(sides, counts), key=lambda walk: sum(walk[1]))  # walk the cheaper side
    if sum(counts) * max(len(primal), len(dual)) > ENTRY_BUDGET:  # arrays of candidates x N (x dim - 1 bools)
        raise Unsupported(f"{sum(counts)} edge candidates in dim {space.dim} exceed the entry budget {ENTRY_BUDGET}")
    S = np.array([c for row in mask for c in itertools.combinations(np.flatnonzero(row), space.dim - 1)], np.intp)
    alone = np.count_nonzero(mask.T[S].all(axis=1), axis=1) < 2  # the row is the only one tight on S
    k, S = np.repeat(np.arange(len(E)), counts)[alone], S[alone]  # k: the candidate's row
    _, s, Vt = np.linalg.svd(F[S])  # Vt[:, -1] spans the null line where all dim - 1 values pass 1e-9
    e_v = np.where(mask[k], Vt[:, -1] @ F.T, 0.0)  # e(v) on the row's tight partners v
    if np.any(edge := (s > 1e-9).all(axis=1) & ((e_v <= 1e-9).all(axis=1) | (e_v >= -1e-9).all(axis=1))):
        what = f"{name} extreme {E[k[np.argmax(edge)]].tolist()} has an edge to no other listed extreme"
        raise InvalidDescriptor(f"{what}: an extreme of either list is missing")
    return tuple(negs), np.array(gap)


# space -> the read-only arrays of its `AdmissiblePairs`; an entry lives as long as its key space does
_PAIR_TABLES = weakref.WeakKeyDictionary()


def admissible_pairs(space: SpaceDescriptor) -> AdmissiblePairs:
    """All extreme pairs (x, x*) with x*(x) = 1; exact basis for the radius.

    Returns an `AdmissiblePairs` sequence, primal-major: all functionals of the first primal
    extreme, then those of the second, and so on, each in the order of the dual extremes.  A dense
    primal x dual index map gives each pair its orbit id.  The arrays are built once per space value (a
    polyhedral space's at construction), shared read-only by equal spaces, and wrapped afresh per call.
    """
    table = _PAIR_TABLES.get(space)
    if table is None:
        primal, dual = extreme_points(space)
        G = primal @ dual.T  # <v, u> for every (v, u)
        admissible = np.abs(G - 1.0) <= DESCRIPTOR_TOL
        (neg_p, neg_d), gap = _negations(space, primal, dual, G, admissible)
        rows, cols = np.nonzero(admissible)
        at = np.full((len(primal), len(dual)), len(rows))  # above every index: a pair with no mate is its own id
        at[rows, cols] = index = np.arange(len(rows))
        orbit = np.minimum(index, at[neg_p[rows], neg_d[cols]])
        lead = np.flatnonzero(scored := orbit == index)
        prim, pos = np.unique(rows[lead], return_inverse=True)
        scoring = (np.cumsum(scored) - 1)[orbit], primal[prim], cols[lead] * len(prim) + pos
        table = _PAIR_TABLES[space] = (primal, dual, rows, cols, orbit, gap, *scoring)
        for a in table:
            a.setflags(write=False)
    return AdmissiblePairs(*table)


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
    _check_counts(seed, count=count)
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


def _number(v, what: str) -> float:
    """The real number v as a float; InvalidDescriptor on anything else, bools and None included."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidDescriptor(f"{what} must be a number, got {v!r}")
    return float(v)


def _check_counts(seed, **counts) -> None:
    """Refuse a seed below 0, a count below 1, and either one not an integer (bools included), naming the argument."""
    for name, v, least in (("seed", seed, 0), *((name, v, 1) for name, v in counts.items())):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if v < least:
            raise ValueError(f"{name} must be >= {least}, got {v}")


def _json_int(v, what: str) -> int:
    """The number v as an int; InvalidDescriptor unless it is integral (2.0 is, 2.5 and true are not)."""
    if not _number(v, what).is_integer():
        raise InvalidDescriptor(f"{what} must be an integer, got {v!r}")
    return int(v)


def space_from_json(obj: dict) -> SpaceDescriptor:
    """The space of a `space` object; InvalidDescriptor on any malformed field."""
    try:
        fld, dim, norm_obj = obj["field"], _json_int(obj["dim"], "dim"), obj["norm"]
        kind = norm_obj["kind"]
        if kind == "lp":
            r = norm_obj["r"]
            norm = LpNorm(math.inf if r in ("inf", "Infinity") else _number(r, "r"))
        elif kind == "polyhedral":
            norm = Polyhedral(norm_obj["primal_extremes"], norm_obj["dual_extremes"])
        else:
            raise InvalidDescriptor(f"unknown norm kind {kind!r}")
    except KeyError as exc:
        raise InvalidDescriptor(f"malformed space object: missing {exc}") from exc
    except TypeError as exc:  # a section or a vector of the wrong JSON type
        raise InvalidDescriptor(f"malformed space object: {exc}") from exc
    return SpaceDescriptor(field=fld, dim=dim, norm=norm)
