import numpy as np
import pytest
from scipy.spatial import ConvexHull

from jointradius import (
    COMPLEX,
    REAL,
    LpNorm,
    OperatorTuple,
    Polyhedral,
    SpaceDescriptor,
)


def linf(n: int) -> SpaceDescriptor:
    return SpaceDescriptor(field=REAL, dim=n, norm=LpNorm(float("inf")))


def l1(n: int) -> SpaceDescriptor:
    return SpaceDescriptor(field=REAL, dim=n, norm=LpNorm(1.0))


def lr(n: int, r: float, field: str = REAL) -> SpaceDescriptor:
    return SpaceDescriptor(field=field, dim=n, norm=LpNorm(r))


def hilbert(n: int, field: str = COMPLEX) -> SpaceDescriptor:
    return lr(n, 2.0, field)


def single(M, p: float = 2.0, field: str = REAL) -> OperatorTuple:
    return OperatorTuple((np.asarray(M),), p=p, field=field)


def random_polygon_space(rng: np.random.Generator, vertices: int = 4) -> SpaceDescriptor:
    """Random symmetric polygon in the plane with its exact dual polygon.

    Dual vertices are the facet functionals: for each edge (a, b) of the
    primal polygon, the unique u with <u, a> = <u, b> = 1.
    """
    while True:
        pts = rng.standard_normal((vertices, 2))
        pts = np.vstack([pts, -pts])
        hull = ConvexHull(pts)
        V = pts[hull.vertices]  # counterclockwise order
        k = len(V)
        edges_ok = True
        U = []
        for i in range(k):
            A = np.array([V[i], V[(i + 1) % k]])
            if abs(np.linalg.det(A)) < 1e-3:
                edges_ok = False
                break
            U.append(np.linalg.solve(A, np.ones(2)))
        if not edges_ok:
            continue
        return SpaceDescriptor(
            field=REAL,
            dim=2,
            norm=Polyhedral(
                tuple(tuple(v) for v in V),
                tuple(tuple(u) for u in U),
            ),
        )


def near_duplicate_polygon(eps: float = 1e-7):
    """(primal, dual) extremes of the hexagon +-(1, 1 - eps), +-(1 - eps, 1), +-(-1, 1).

    The first two vertices lie sqrt(2) eps apart; the dual extremes are the
    facet functionals u with <u, v_i> = <u, v_{i+1}> = 1.
    """
    V = [(1.0, 1.0 - eps), (1.0 - eps, 1.0), (-1.0, 1.0)]
    V = sorted(V + [(-a, -b) for a, b in V], key=lambda v: np.arctan2(v[1], v[0]))
    U = [np.linalg.solve(np.array([V[i], V[(i + 1) % 6]]), np.ones(2)) for i in range(6)]
    return tuple(V), tuple(tuple(u) for u in U)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
