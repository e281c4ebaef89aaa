import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from jointradius import DimensionMismatch, HullProblem, InvalidDescriptor, hull_membership

SQUARE = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]


def _solve(points, target):
    return hull_membership(HullProblem(points=points, target=target))


class TestWorkedExamples:
    def test_square_contains_origin(self):
        res = _solve(SQUARE, (0.0, 0.0))
        assert res.feasible
        np.testing.assert_allclose(np.array(SQUARE).T @ res.weights, [0.0, 0.0], atol=1e-9)

    def test_square_contains_interior_point(self):
        res = _solve(SQUARE, (0.3, -0.7))
        assert res.feasible

    def test_square_excludes_exterior_point(self):
        assert not _solve(SQUARE, (1.5, 0.0)).feasible

    def test_vertex_is_member(self):
        res = _solve(SQUARE, (1.0, 1.0))
        assert res.feasible
        assert res.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_point_hit(self):
        res = _solve([(2.0, 3.0)], (2.0, 3.0))
        assert res.feasible
        np.testing.assert_allclose(res.weights, [1.0])

    def test_single_point_miss(self):
        assert not _solve([(2.0, 3.0)], (2.0, 3.1)).feasible

    def test_segment_midpoint(self):
        res = _solve([(0.0, 0.0), (2.0, 2.0)], (1.0, 1.0))
        assert res.feasible
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-9)

    def test_one_dimensional(self):
        assert _solve([(-1.0,), (1.0,)], (0.25,)).feasible
        assert not _solve([(-1.0,), (1.0,)], (1.25,)).feasible


class TestInvariants:
    def test_weights_are_convex(self, rng):
        for _ in range(20):
            pts = rng.standard_normal((6, 3))
            w = rng.dirichlet(np.ones(6))
            res = _solve(pts, pts.T @ w)
            assert res.feasible
            assert res.weights.min() >= 0.0
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_accuracy(self, rng):
        for _ in range(20):
            pts = rng.standard_normal((5, 4))
            w = rng.dirichlet(np.ones(5))
            tgt = pts.T @ w
            res = _solve(pts, tgt)
            assert res.feasible
            assert np.max(np.abs(pts.T @ res.weights - tgt)) <= 1e-9

    def test_translation_invariance(self, rng):
        for _ in range(10):
            pts = rng.standard_normal((5, 2))
            tgt = rng.standard_normal(2)
            shift = rng.standard_normal(2)
            a = _solve(pts, tgt)
            b = _solve(pts + shift, tgt + shift)
            assert a.feasible == b.feasible

    def test_clearly_exterior_rejected(self, rng):
        for _ in range(20):
            pts = rng.standard_normal((6, 3))
            tgt = pts.max(axis=0) + 0.5 * (pts.max(axis=0) - pts.min(axis=0) + 1.0)
            assert not _solve(pts, tgt).feasible

    def test_duplicate_points(self):
        res = _solve([(1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)], (0.0, 0.0))
        assert res.feasible

    def test_agrees_with_rejection_sampling(self, rng):
        # positive side: random convex combos land inside; negative side:
        # no sampled combo comes near a rejected target
        for _ in range(10):
            pts = rng.standard_normal((5, 2))
            combos = rng.dirichlet(np.ones(5), size=2000) @ pts
            inside = combos[0]
            assert _solve(pts, inside).feasible
            outside = pts.max(axis=0) + 1.0
            assert not _solve(pts, outside).feasible
            gap = np.min(np.linalg.norm(combos - outside, axis=1))
            assert gap > 1e-3


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            HullProblem(points=[(1.0, 0.0)], target=(1.0, 0.0, 0.0))

    def test_no_points(self):
        with pytest.raises(DimensionMismatch, match="at least one point"):
            HullProblem(points=np.empty((0, 2)), target=(0.0, 0.0))

    @pytest.mark.parametrize(
        "points, target",
        [
            ([[np.nan, 0.0], [1.0, 1.0]], [0.0, 0.0]),
            ([[1.0, 0.0], [1.0, 1.0]], [np.nan, 0.0]),
            ([[np.inf, 0.0], [1.0, 1.0]], [0.0, 0.0]),
            ([[1.0, 0.0], [-np.inf, 1.0]], [0.0, 0.0]),
            ([[1.0, 0.0], [1.0, 1.0]], [0.0, np.inf]),
        ],
        ids=["nan-point", "nan-target", "inf-point", "minus-inf-point", "inf-target"],
    )
    def test_non_finite_refused_before_any_solve(self, capfd, points, target):
        # capfd, not capsys: LAPACK writes its errors to file descriptor 1
        with pytest.raises(InvalidDescriptor, match="must be finite"):
            hull_membership(HullProblem(points=points, target=target))
        assert capfd.readouterr() == ("", "")



class TestHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_random_membership_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        k = int(rng.integers(1, 4))
        pts = rng.standard_normal((m, k))
        w = rng.dirichlet(np.ones(m))
        tgt = pts.T @ w
        res = _solve(pts, tgt)
        assert res.feasible
        assert np.max(np.abs(pts.T @ res.weights - tgt)) <= 1e-9 * max(
            1.0, float(np.max(np.abs(pts)))
        )


def _linprog_feasible(pts, tgt) -> bool:
    """Reference verdict: is sum_j t_j v_j = target, sum_j t_j = 1, t >= 0 feasible?"""
    m = len(pts)
    res = linprog(
        np.zeros(m),
        A_eq=np.vstack([pts.T, np.ones(m)]),
        b_eq=np.append(tgt, 1.0),
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


def _instance(rng, kind):
    """Seeded hull instance of the given kind at a random scale."""
    m, k = int(rng.integers(1, 10)), int(rng.integers(1, 5))
    pts = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3)
    if kind == "feasible":
        return pts, pts.T @ rng.dirichlet(np.ones(m))
    if kind == "exterior":
        # beyond the support of the points in a random direction
        c = rng.standard_normal(k)
        c /= np.linalg.norm(c)
        support = pts @ c
        margin = rng.uniform(1e-3, 1.0) * max(np.ptp(support), 1e-3 * np.max(np.abs(pts)))
        return pts, c * (support.max() + margin)
    if kind == "antipodal":
        # 0 lies between v and -s v
        v = rng.standard_normal((int(rng.integers(1, 4)), k))
        pts = np.vstack([pts, v, -v * rng.uniform(0.1, 10.0, (len(v), 1))])
        return pts[rng.permutation(len(pts))], np.zeros(k)
    return pts, 0.5 * np.max(np.abs(pts)) * rng.standard_normal(k)


class TestAgainstLinprog:
    @pytest.mark.parametrize("kind", ["feasible", "exterior", "antipodal", "random"])
    def test_verdicts_agree(self, rng, kind):
        for _ in range(100):
            pts, tgt = _instance(rng, kind)
            want = _linprog_feasible(pts, tgt)
            if kind != "random":
                assert want == (kind != "exterior")
            res = _solve(pts, tgt)
            assert res.feasible == want
            if res.feasible:
                assert res.weights.min() >= 0.0
                assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.max(np.abs(pts.T @ res.weights - tgt)) <= 1e-9 * max(
                    1.0, float(np.max(np.abs(pts)))
                )

    def test_duplicate_points(self, rng):
        for kind in ("feasible", "exterior", "antipodal", "random"):
            for _ in range(10):
                pts, tgt = _instance(rng, kind)
                pts = np.repeat(pts, 3, axis=0)
                assert _solve(pts, tgt).feasible == _linprog_feasible(pts, tgt)

    def test_single_point(self, rng):
        for _ in range(10):
            v = rng.standard_normal(3)
            for tgt in (v, v + 1e-3, np.zeros(3)):
                assert _solve([v], tgt).feasible == _linprog_feasible(np.array([v]), tgt)

    def test_all_zero_points(self):
        pts = np.zeros((4, 3))
        res = _solve(pts, np.zeros(3))
        assert res.feasible
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        for tgt in ((1e-3, 0.0, 0.0), (0.0, -5.0, 2.0)):
            assert not _solve(pts, tgt).feasible
            assert not _linprog_feasible(pts, np.array(tgt))
