import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from jointradius import (
    COMPLEX,
    REAL,
    InvalidDescriptor,
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


def random_polytope(rng: np.random.Generator, dim: int = 3) -> tuple:
    """(primal, dual) extremes of a random centrally symmetric polytope in R^dim with integer vertices.

    The dual extremes are the facet functionals: for each simplex of the
    hull's triangulated facets, the u with <u, v> = 1 on its dim vertices
    (simplices of one facet give one u).
    """
    while True:
        pts = rng.integers(-4, 5, (rng.integers(dim, dim + 4), dim)).astype(float)
        pts = np.vstack([pts, -pts])
        if np.linalg.matrix_rank(pts) == dim:
            break
    hull = ConvexHull(pts)
    U = []
    for simplex in hull.simplices:
        u = np.linalg.solve(pts[simplex], np.ones(dim))
        if not any(np.allclose(u, w, rtol=0, atol=1e-9) for w in U):
            U.append(u)
    return pts[hull.vertices], np.array(U)


def polar_vertices(P) -> np.ndarray:
    """The vertices of the polar {u : |u(v)| <= 1 for all v in P} of the symmetric point set P, by brute force.

    Written apart from the library's descriptor check: for every dim-subset
    of independent rows of P, the u with u(v) = 1 on the subset is kept when
    max |u(P)| <= 1 + 1e-9; the kept u are deduplicated.
    """
    P = np.asarray(P, dtype=float)
    dim = P.shape[1]
    A = P[np.array(list(itertools.combinations(range(len(P)), dim)))]
    A = A[np.linalg.matrix_rank(A) == dim]
    U = np.linalg.solve(A, np.ones((len(A), dim, 1)))[:, :, 0]
    U = U[np.abs(U @ P.T).max(axis=1) <= 1 + 1e-9]
    found = []
    while len(U):
        found.append(U[0])
        U = U[np.abs(U - U[0]).max(axis=1) > 1e-9]
    return np.array(found)


def same_rows(A, B) -> bool:
    """Whether A and B hold the same rows, in any order, within 1e-9."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return A.shape == B.shape and bool(np.all(np.abs(A[:, None, :] - B[None, :, :]).max(axis=2).min(axis=1) <= 1e-9))


def cuboctahedron() -> tuple:
    """(primal, dual) extremes of the cuboctahedron, whose vertices lie on 4 facets each."""
    units = np.vstack([np.eye(3), -np.eye(3)])
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=3)))
    vertices = np.array([v for v in itertools.product([1.0, -1.0, 0.0], repeat=3) if np.count_nonzero(v) == 2])
    return vertices, np.vstack([units, signs / 2])


def extreme_spaces(rng: np.random.Generator) -> list:
    """Spaces with finite extreme lists: real l_1 and l_inf for n = 1..8, three
    seeded polygons, three random 3-polytopes and the cuboctahedron."""
    spaces = [make(n) for n in range(1, 9) for make in (l1, linf)]
    spaces += [random_polygon_space(rng, vertices=5) for _ in range(3)]
    polytopes = [random_polytope(rng) for _ in range(3)] + [cuboctahedron()]
    return spaces + [SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(*pd)) for pd in polytopes]


def without_pair(E: np.ndarray, k: int) -> np.ndarray:
    """The rows of E other than +-E[k]."""
    return E[[not (np.allclose(e, E[k]) or np.allclose(e, -E[k])) for e in E]]


def off_negation_hexagon(rng: np.random.Generator) -> SpaceDescriptor:
    """The regular hexagon with the negated halves of both extreme lists moved by 2e-13 to 6e-13
    in each coordinate, so that each list closes under negation only within DESCRIPTOR_TOL."""
    s, t = np.sqrt(3.0) / 2, 1 / np.sqrt(3.0)
    V, U = np.array([(1.0, 0.0), (0.5, s), (-0.5, s)]), np.array([(1.0, t), (0.0, 2 * t), (-1.0, t)])
    while True:
        off = rng.uniform(2e-13, 6e-13, (2, 3, 2)) * rng.choice([-1.0, 1.0], (2, 3, 2))
        try:
            return SpaceDescriptor(REAL, 2, Polyhedral(np.vstack([V, off[0] - V]), np.vstack([U, off[1] - U])))
        except InvalidDescriptor:  # a moved pair left the unit tolerance; draw again
            continue


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
