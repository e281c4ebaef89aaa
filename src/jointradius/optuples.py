"""Operator tuples (T_1, ..., T_d) with an l_p aggregation exponent.

The exponent p lives on the tuple: every derived object (coefficients,
generators, derivatives) depends on it, so (T, p) is the unit the joint
radius acts on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDescriptor
from .spaces import COMPLEX, REAL, NormingPair, SpaceDescriptor, _json_int, _number, _signed_power
from .spaces import conjugate_exponent, lp_norm, lp_norm_rows

ATTAINING_TOL = 1e-6  # relative gap above which a pair does not attain


@dataclass(frozen=True)
class OperatorTuple:
    matrices: np.ndarray  # (d, n, n); built from any sequence of d n x n arrays
    p: float = 2.0
    field: str = REAL

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise InvalidDescriptor(f"unknown field {self.field!r}")
        if not (1.0 < _number(self.p, "aggregation exponent p") < math.inf):
            raise InvalidDescriptor(f"aggregation exponent must satisfy 1 < p < inf, got {self.p}")
        if len(self.matrices) < 1:
            raise InvalidDescriptor("tuple needs at least one operator")
        try:
            raw = np.asarray(self.matrices)
        except ValueError as exc:  # a ragged sequence
            raise DimensionMismatch("all operators must be square of the same dimension") from exc
        if raw.ndim != 3 or raw.shape[1] != raw.shape[2]:
            raise DimensionMismatch("all operators must be square of the same dimension")
        if self.field == REAL and np.iscomplexobj(raw) and np.any(raw.imag != 0):
            raise InvalidDescriptor("complex entries in a real-field tuple")
        mats = raw.astype(complex) if self.field == COMPLEX else raw.real.astype(float)
        if not np.all(np.isfinite(mats)):
            raise InvalidDescriptor("matrix entries must be finite")
        mats.setflags(write=False)  # a private copy: no in-place write can move a frozen tuple
        object.__setattr__(self, "matrices", mats)

    @property
    def d(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)

    def scaled(self, c) -> "OperatorTuple":
        fld = COMPLEX if (self.field == COMPLEX or isinstance(c, complex)) else REAL
        return OperatorTuple(c * self.matrices, p=self.p, field=fld)

    def __add__(self, other: "OperatorTuple") -> "OperatorTuple":
        self._check_compatible(other)
        return OperatorTuple(self.matrices + other.matrices, p=self.p, field=self.field)

    def __sub__(self, other: "OperatorTuple") -> "OperatorTuple":
        return self + other.scaled(-1.0)

    def _check_compatible(self, other: "OperatorTuple") -> None:
        if (self.d, self.n, self.field, self.p) != (other.d, other.n, other.field, other.p):
            raise DimensionMismatch("tuples do not share (d, n, field, p)")

    def max_entry(self) -> float:
        return float(np.max(np.abs(self.matrices)))


def pair_image(T: OperatorTuple, pair: NormingPair) -> np.ndarray:
    """Vector (x*(T_i x))_i of length d."""
    x, x_star = np.asarray(pair.x), np.asarray(pair.x_star)
    if x.shape != (T.n,) or x_star.shape != (T.n,):
        raise DimensionMismatch("pair dimension does not match the tuple")
    # not `pair_images`, whose broadcasting costs 0.85 us more on each of `aggregate`'s per-pair calls
    return (T.matrices @ x) @ x_star.conj()  # a real array is its own conj(), no copy


def pair_images(M: np.ndarray, X: np.ndarray, C: np.ndarray):
    """(Y, z), Y[..., i, :] = M_i x and z[..., i] = (M_i x) @ c = x*(M_i x), c = conj(x*); X's and C's leading axes
    broadcast against M's stack.  Each entry has the floats of `pair_image`'s (M @ x) @ c; M @ X.T and einsum differ."""
    Y = (M @ X[..., None, :, None])[..., 0]
    return Y, (Y @ C[..., :, None])[..., 0]


def aggregate(T: OperatorTuple, pair: NormingPair) -> float:
    """l_p norm of the pair image; the radius objective at one pair."""
    return lp_norm(pair_image(T, pair), T.p)


def coefficient_rows(T: OperatorTuple, X: np.ndarray, XS: np.ndarray, w: float):
    """(alpha, attains): row k of alpha is the coefficient vector of the pair
    (X[k], XS[k]), alpha_i = conj(z_i)|z_i|^(p-2) / w^(p-1) with z = (x*(T_i x))_i.

    attains is False when some pair's l_p value is more than ATTAINING_TOL * w
    from w, that is, when it does not attain the radius w; callers pass it to
    `warn_unless_attaining`.  The test runs on z / w, whose l_p norm is near 1
    at any scale of T.
    """
    if w <= 0:
        raise ValueError("subdifferential coefficients need w > 0")
    if X.shape[1:] != (T.n,) or XS.shape != X.shape:
        raise DimensionMismatch("pair dimension does not match the tuple")
    Zw = pair_images(T.matrices, X, np.conj(XS))[1] / w
    attains = not np.any(np.abs(lp_norm_rows(Zw, T.p) - 1.0) > ATTAINING_TOL)
    return _signed_power(Zw, T.p - 2.0), attains  # equals conj(z)|z|^(p-2) / w^(p-1)


def warn_unless_attaining(attains: bool) -> None:
    if not attains:
        warnings.warn("pair does not attain the radius; coefficients are diagnostic only")


def subdiff_coefficients(T: OperatorTuple, pair: NormingPair, w: float) -> np.ndarray:
    """Coefficient vector of one pair: the one-row case of `coefficient_rows`; warns unless it attains w."""
    alpha, attains = coefficient_rows(T, np.asarray(pair.x)[None], np.asarray(pair.x_star)[None], w)
    warn_unless_attaining(attains)
    return alpha[0]


def rank_one_tuple(space: SpaceDescriptor, pair: NormingPair, alpha, p: float = 2.0) -> OperatorTuple:
    """Tuple T_i = conj(a_i)|a_i|^(q-2) (x*(.) x); its joint radius is 1."""
    a = np.asarray(alpha)
    if np.all(a == 0):
        raise ValueError("alpha must be nonzero")
    # base operator z -> x*(z) x; under the conjugation convention this is
    # the outer product of x with conj(x_star)
    base = np.outer(pair.x, np.conj(pair.x_star))
    coeffs = _signed_power(a, conjugate_exponent(p) - 2.0)
    if space.field == REAL:
        coeffs = coeffs.real
        base = base.real
    return OperatorTuple(coeffs[:, None, None] * base, p=p, field=space.field)


def tuple_combine(T: OperatorTuple, S: OperatorTuple, lam) -> OperatorTuple:
    """Component-wise T_i + lam_i S_i."""
    T._check_compatible(S)
    lam = np.asarray(lam)
    if lam.shape != (T.d,):
        raise DimensionMismatch(f"lambda must have length d={T.d}")
    if T.field == REAL and np.iscomplexobj(lam) and np.any(lam.imag != 0):
        raise InvalidDescriptor("complex scalings on a real-field tuple")
    return OperatorTuple(T.matrices + lam[:, None, None] * S.matrices, p=T.p, field=T.field)


# ---------------------------------------------------------------------------
# JSON schema


def _entry_to_json(v, field: str):
    if field == COMPLEX:
        return [float(np.real(v)), float(np.imag(v))]
    return float(np.real(v))


def tuple_to_json(T: OperatorTuple) -> dict:
    return {
        "d": T.d,
        "p": T.p,
        "matrices": [
            [[_entry_to_json(v, T.field) for v in row] for row in M] for M in T.matrices
        ],
    }


def _entry_from_json(v, field: str):
    if isinstance(v, (list, tuple)):
        if field != COMPLEX:
            raise InvalidDescriptor("complex entry [re, im] in a real-field tuple")
        if len(v) != 2:
            raise InvalidDescriptor("complex entries must be [re, im] pairs")
        return complex(_number(v[0], "matrix entry"), _number(v[1], "matrix entry"))
    return _number(v, "matrix entry")


def tuple_from_json(obj: dict, field: str, default_p: float = 2.0) -> OperatorTuple:
    """The tuple of a `tuple` object; InvalidDescriptor on any malformed field."""
    if not isinstance(obj, dict) or "matrices" not in obj:
        raise InvalidDescriptor("tuple object must contain 'matrices'")
    p = _number(obj.get("p", default_p), "p")
    try:
        mats = [[[_entry_from_json(v, field) for v in row] for row in M] for M in obj["matrices"]]
    except TypeError as exc:  # a matrix or a row that is not a list
        raise InvalidDescriptor(f"malformed tuple object: {exc}") from exc
    T = OperatorTuple(mats, p=p, field=field)
    if "d" in obj and _json_int(obj["d"], "d") != T.d:
        raise InvalidDescriptor(f"declared d={obj['d']} but {T.d} matrices were given")
    return T
