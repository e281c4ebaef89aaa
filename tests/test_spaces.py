import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointradius import (
    COMPLEX,
    REAL,
    UNBOUNDED,
    DimensionMismatch,
    InvalidDescriptor,
    LpNorm,
    NormingPair,
    Polyhedral,
    SpaceDescriptor,
    Unsupported,
    admissible_pairs,
    dual_norm_eval,
    duality_map,
    extreme_points,
    norm_eval,
    sample_pairs,
    space_from_json,
    space_to_json,
)
from conftest import hilbert, l1, linf, lr, random_polygon_space


class TestNormEval:
    def test_euclidean(self):
        assert norm_eval(lr(2, 2.0), [3.0, 4.0]) == 5.0

    def test_max_norm(self):
        assert norm_eval(linf(2), [1.0, -2.0]) == 2.0

    def test_polyhedral_matches_linf(self):
        sp = SpaceDescriptor(
            field=REAL,
            dim=2,
            norm=Polyhedral(
                ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)),
                ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
            ),
        )
        assert norm_eval(sp, [0.5, 0.25]) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            norm_eval(lr(2, 2.0), [1.0, 2.0, 3.0])


class TestDualNormEval:
    def test_l4_dual_is_l43(self):
        assert dual_norm_eval(lr(2, 4.0), [1.0, 1.0]) == pytest.approx(2 ** 0.75, abs=1e-12)

    def test_l1_dual_is_linf(self):
        assert dual_norm_eval(l1(3), [1.0, -2.0, 0.0]) == 2.0

    def test_l2_self_dual(self):
        assert dual_norm_eval(lr(2, 2.0), [0.6, 0.8]) == pytest.approx(1.0, abs=1e-15)


class TestDualityMap:
    def test_l2_self_duality(self):
        pairs = duality_map(lr(2, 2.0), [0.6, 0.8])
        assert len(pairs) == 1
        np.testing.assert_allclose(pairs[0].x_star, [0.6, 0.8], atol=1e-15)

    def test_l4_closed_form(self):
        x = np.array([2 ** -0.25, 2 ** -0.25])
        sp = lr(2, 4.0)
        (pair,) = duality_map(sp, x)
        np.testing.assert_allclose(pair.x_star, [2 ** -0.75, 2 ** -0.75], atol=1e-14)
        assert pair.functional(x) == pytest.approx(1.0, abs=1e-12)
        assert dual_norm_eval(sp, pair.x_star) == pytest.approx(1.0, abs=1e-12)

    def test_linf_corner_has_two_functionals(self):
        pairs = duality_map(linf(2), [1.0, 1.0])
        stars = sorted(tuple(p.x_star) for p in pairs)
        assert stars == [(0.0, 1.0), (1.0, 0.0)]

    def test_complex_hilbert_reproduces_inner_product(self):
        sp = hilbert(2)
        x = np.array([1j / math.sqrt(2), 1 / math.sqrt(2)])
        (pair,) = duality_map(sp, x)
        z = np.array([2.0 + 1j, -1.0])
        assert pair.functional(z) == pytest.approx(np.vdot(x, z))

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidDescriptor):
            duality_map(lr(2, 2.0), [1.0, 1.0])


class TestExtremePoints:
    def test_linf2(self):
        primal, dual = extreme_points(linf(2))
        assert sorted(map(tuple, primal)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert sorted(map(tuple, dual)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_l1_2(self):
        primal, dual = extreme_points(l1(2))
        assert sorted(map(tuple, primal)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        assert sorted(map(tuple, dual)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_strictly_convex_unbounded(self):
        assert extreme_points(lr(4, 3.0)) is UNBOUNDED

    def test_complex_l1_unsupported(self):
        with pytest.raises(Unsupported):
            extreme_points(SpaceDescriptor(field=COMPLEX, dim=2, norm=LpNorm(1.0)))

    def test_enumeration_cap(self):
        with pytest.raises(Unsupported):
            extreme_points(linf(21))

    def test_one_point_per_row(self, rng):
        for sp in (linf(3), l1(3), random_polygon_space(rng)):
            for E in extreme_points(sp):
                assert E.ndim == 2 and E.shape[1] == sp.dim and E.dtype == float
        units, signs = extreme_points(l1(2))
        np.testing.assert_array_equal(units, [[1, 0], [-1, 0], [0, 1], [0, -1]])
        np.testing.assert_array_equal(signs, [[1, 1], [1, -1], [-1, 1], [-1, -1]])


class TestAdmissiblePairs:
    def test_linf2_has_eight(self):
        pairs = admissible_pairs(linf(2))
        assert len(pairs) == 8
        for pr in pairs:
            pr.validate(linf(2))
            assert pr.functional(pr.x) == pytest.approx(1.0, abs=1e-12)

    def test_l1_2_has_eight(self):
        pairs = admissible_pairs(l1(2))
        assert len(pairs) == 8

    def test_unsupported_on_smooth(self):
        with pytest.raises(Unsupported):
            admissible_pairs(lr(2, 3.0))

    def test_primal_major_order(self, rng):
        for sp in (linf(3), l1(3), random_polygon_space(rng, vertices=6)):
            primal, dual = extreme_points(sp)
            expected = [(v, u) for v in primal for u in dual if abs(np.dot(u, v) - 1.0) <= 1e-12]
            pairs = admissible_pairs(sp)
            assert len(pairs) == len(expected)
            for pr, (v, u) in zip(pairs, expected):
                np.testing.assert_array_equal(pr.x, v)
                np.testing.assert_array_equal(pr.x_star, u)


class TestSamplePairs:
    def test_complex_hilbert_invariants(self):
        sp = hilbert(2)
        for pr in sample_pairs(sp, 10, seed=7):
            pr.validate(sp)

    def test_linf_real(self):
        sp = linf(2)
        for pr in sample_pairs(sp, 5, seed=1):
            pr.validate(sp)

    def test_l4_matches_closed_form(self):
        sp = lr(3, 4.0)
        for pr in sample_pairs(sp, 3, seed=0):
            expected = pr.x * np.abs(pr.x) ** 2
            np.testing.assert_allclose(pr.x_star, expected, atol=1e-12)

    def test_deterministic(self):
        a = sample_pairs(hilbert(3), 4, seed=9)
        b = sample_pairs(hilbert(3), 4, seed=9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.x, pb.x)

    def test_polyhedral(self, rng):
        sp = random_polygon_space(rng)
        for pr in sample_pairs(sp, 8, seed=3):
            pr.validate(sp)


class TestHolderConsistency:
    @settings(max_examples=30, deadline=None)
    @given(
        r=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_norm_attained_by_closed_form(self, r, seed):
        sp = lr(3, r)
        g = np.random.default_rng(seed).standard_normal(3)
        v = g / norm_eval(sp, g)
        (pair,) = duality_map(sp, v)
        # the closed-form coefficients attain the supremum over the dual ball
        assert pair.functional(v) == pytest.approx(1.0, abs=1e-12)
        assert dual_norm_eval(sp, pair.x_star) <= 1.0 + 1e-12


class TestPolyhedralDescriptor:
    def test_random_polygon_validates(self, rng):
        for _ in range(5):
            sp = random_polygon_space(rng)
            assert isinstance(sp.norm, Polyhedral)

    def test_duality_map_active_subset(self, rng):
        sp = random_polygon_space(rng)
        pairs = sample_pairs(sp, 5, seed=11)
        dual = [np.asarray(u) for u in sp.norm.dual_extremes]
        for pr in pairs:
            actives = duality_map(sp, pr.x)
            for a in actives:
                assert any(np.allclose(a.x_star, u) for u in dual)
                assert a.functional(pr.x) == pytest.approx(1.0, abs=1e-10)

    def test_inconsistent_rejected(self):
        with pytest.raises(InvalidDescriptor):
            SpaceDescriptor(
                field=REAL,
                dim=2,
                norm=Polyhedral(((1.0, 0.0), (-1.0, 0.0)), ((1.0, 0.0), (-1.0, 0.0))),
            )

    def test_complex_polyhedral_rejected(self):
        with pytest.raises(InvalidDescriptor):
            SpaceDescriptor(
                field=COMPLEX,
                dim=1,
                norm=Polyhedral(((1.0,), (-1.0,)), ((1.0,), (-1.0,))),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_non_finite_extreme_rejected(self, bad, side):
        square = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        cross = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        broken = [[bad, 0.0], [-bad, 0.0]] + (square if side == "primal" else cross)
        prim, dual = (broken, cross) if side == "primal" else (square, broken)
        with pytest.raises(InvalidDescriptor, match=f"{side} extremes must be finite"):
            SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(tuple(map(tuple, prim)), tuple(map(tuple, dual))))

    def test_ragged_extremes_rejected(self):
        with pytest.raises(InvalidDescriptor):
            SpaceDescriptor(field=REAL, dim=1, norm=Polyhedral(((1.0,), (-1.0, 0.0)), ((1.0,), (-1.0,))))

    def test_negation_closure_required(self):
        with pytest.raises(InvalidDescriptor):
            SpaceDescriptor(
                field=REAL,
                dim=1,
                norm=Polyhedral(((1.0,),), ((1.0,), (-1.0,))),
            )


class TestJsonRoundtrip:
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, float("inf")])
    def test_lp(self, r):
        sp = SpaceDescriptor(field=REAL, dim=3, norm=LpNorm(r))
        assert space_from_json(space_to_json(sp)) == sp

    def test_polyhedral(self, rng):
        sp = random_polygon_space(rng)
        back = space_from_json(space_to_json(sp))
        assert back.norm.primal_extremes == sp.norm.primal_extremes

    def test_bad_kind(self):
        with pytest.raises(InvalidDescriptor):
            space_from_json({"field": "real", "dim": 2, "norm": {"kind": "nope"}})
