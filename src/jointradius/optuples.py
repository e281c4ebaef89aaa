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
from .spaces import COMPLEX, REAL, NormingPair, SpaceDescriptor, _signed_power, lp_norm

ATTAINING_TOL = 1e-6  # relative gap at which subdiff_coefficients warns


@dataclass(frozen=True)
class OperatorTuple:
    matrices: np.ndarray  # (d, n, n); built from any sequence of d n x n arrays
    p: float = 2.0
    field: str = REAL

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
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
        object.__setattr__(self, "matrices", mats)

    @property
    def d(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

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


@dataclass(frozen=True)
class CoefficientVector:
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha))

    def q_norm(self, q: float) -> float:
        return lp_norm(self.alpha, q)


def pair_image(T: OperatorTuple, pair: NormingPair) -> np.ndarray:
    """Vector (x*(T_i x))_i of length d."""
    x = np.asarray(pair.x)
    if x.shape != (T.n,):
        raise DimensionMismatch("pair dimension does not match the tuple")
    return (T.matrices @ x) @ np.conj(pair.x_star)


def aggregate(T: OperatorTuple, pair: NormingPair) -> float:
    """l_p norm of the pair image; the radius objective at one pair."""
    return lp_norm(pair_image(T, pair), T.p)


def subdiff_coefficients(T: OperatorTuple, pair: NormingPair, w: float) -> CoefficientVector:
    """Coefficient vector alpha_i = conj(z_i)|z_i|^(p-2) / w^(p-1)."""
    if w <= 0:
        raise ValueError("subdifferential coefficients need w > 0")
    z = pair_image(T, pair)
    val = lp_norm(z, T.p)
    if abs(val - w) > ATTAINING_TOL * w:
        warnings.warn("pair does not attain the radius; coefficients are diagnostic only")
    alpha = _signed_power(z / w, T.p - 2.0)  # equals conj(z)|z|^(p-2) / w^(p-1)
    return CoefficientVector(alpha)


def rank_one_tuple(
    space: SpaceDescriptor, pair: NormingPair, alpha: CoefficientVector, p: float = 2.0
) -> OperatorTuple:
    """Tuple T_i = conj(a_i)|a_i|^(q-2) (x*(.) x); its joint radius is 1."""
    a = np.asarray(alpha.alpha)
    if np.all(a == 0):
        raise ValueError("alpha must be nonzero")
    q = p / (p - 1.0)
    # base operator z -> x*(z) x; under the conjugation convention this is
    # the outer product of x with conj(x_star)
    base = np.outer(pair.x, np.conj(pair.x_star))
    coeffs = _signed_power(a, q - 2.0)
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
        return complex(float(v[0]), float(v[1]))
    return float(v)


def tuple_from_json(obj: dict, field: str, default_p: float = 2.0) -> OperatorTuple:
    try:
        mats_obj = obj["matrices"]
    except (KeyError, TypeError) as exc:
        raise InvalidDescriptor("tuple object must contain 'matrices'") from exc
    p = float(obj.get("p", default_p))
    mats = [np.array([[_entry_from_json(v, field) for v in row] for row in M]) for M in mats_obj]
    T = OperatorTuple(mats, p=p, field=field)
    if "d" in obj and int(obj["d"]) != T.d:
        raise InvalidDescriptor(f"declared d={obj['d']} but {T.d} matrices were given")
    return T
