import math

import numpy as np
import pytest

from jointradius import (
    COMPLEX,
    REAL,
    NormingPair,
    OperatorTuple,
    Unsupported,
    aggregate,
    orbit_dedup,
    radius,
    radius_exact,
    radius_smooth,
    random_tuple,
    generators,
    sample_pairs,
    sampled_radius,
    smoothness,
)
from jointradius.radius import _gradient
from conftest import hilbert, l1, linf, lr, random_polygon_space, single

SQ2 = 1 / math.sqrt(2)


def _grid_radius_real_2d(T, steps=20001):
    """Brute-force objective max on the real Euclidean circle."""
    theta = np.linspace(0.0, 2 * np.pi, steps)
    X = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    Z = np.stack([np.einsum("mj,mj->m", X, X @ M.T) for M in T.matrices], axis=1)
    return float(np.max(np.linalg.norm(np.abs(Z), ord=T.p, axis=1)))


class TestRadiusExact:
    def test_diag_on_linf2(self):
        rr = radius_exact(single(np.diag([1.0, 0.0])), linf(2))
        assert rr.value == 1.0
        assert rr.exhaustive
        xs = sorted(tuple(o.representative.x) for o in rr.attaining.orbits)
        assert xs == [(1.0, -1.0), (1.0, 1.0)]
        for o in rr.attaining.orbits:
            np.testing.assert_array_equal(o.representative.x_star, [1.0, 0.0])

    def test_swap_on_linf2(self):
        rr = radius_exact(single([[0.0, 1.0], [1.0, 0.0]]), linf(2))
        assert rr.value == 1.0

    def test_zero_tuple_on_l1(self):
        rr = radius_exact(single(np.zeros((2, 2))), l1(2))
        assert rr.value == 0.0
        assert not rr.degenerate  # zero tuple is not a degenerate norm value

    def test_unsupported_space(self):
        with pytest.raises(Unsupported):
            radius_exact(single(np.eye(2)), lr(2, 3.0))

    def test_dominates_sampling(self, rng):
        sp = random_polygon_space(rng)
        for _ in range(5):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            rr = radius_exact(T, sp)
            assert rr.value >= sampled_radius(T, sp, samples=2000, seed=1) - 1e-12


class TestRadiusSmooth:
    def test_shift_matrix_half(self):
        sp = hilbert(2, REAL)
        T = single([[0.0, 1.0], [0.0, 0.0]])
        rr = radius_smooth(T, sp, starts=16, seed=0)
        assert rr.value == pytest.approx(0.5, abs=1e-10)
        assert rr.value == pytest.approx(_grid_radius_real_2d(T), abs=1e-7)
        assert not rr.exhaustive

    def test_two_identities_constant_objective(self):
        sp = hilbert(2, REAL)
        T = OperatorTuple((np.eye(2), np.eye(2)), p=2.0)
        rr = radius_smooth(T, sp, starts=8, seed=0)
        assert rr.value == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_complex_diag_single_orbit(self):
        sp = hilbert(2)
        T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
        rr = radius_smooth(T, sp, starts=16, seed=2)
        assert rr.value == pytest.approx(1.0, abs=1e-10)
        assert len(rr.attaining.orbits) == 1
        rep = rr.attaining.orbits[0].representative
        assert abs(abs(rep.x[0]) - 1.0) < 1e-6

    def test_random_against_grid(self, rng):
        sp = hilbert(2, REAL)
        for _ in range(5):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            rr = radius_smooth(T, sp, starts=16, seed=0)
            assert rr.value == pytest.approx(_grid_radius_real_2d(T), abs=1e-6)

    def test_lr_against_sampling(self, rng):
        sp = lr(3, 4.0)
        for _ in range(3):
            T = random_tuple(2, 3, REAL, 3.0, rng)
            rr = radius_smooth(T, sp, starts=32, seed=0)
            sr = sampled_radius(T, sp, samples=100_000, seed=1)
            assert rr.value >= sr - 1e-9
            assert rr.value - sr <= 5e-2

    def test_deterministic(self, rng):
        sp = hilbert(3)
        T = random_tuple(2, 3, COMPLEX, 2.0, rng)
        a = radius_smooth(T, sp, starts=12, seed=7)
        b = radius_smooth(T, sp, starts=12, seed=7)
        assert a.value == b.value
        np.testing.assert_array_equal(
            a.attaining.orbits[0].representative.x, b.attaining.orbits[0].representative.x
        )

    def test_starts_validation(self):
        with pytest.raises(ValueError):
            radius_smooth(single(np.eye(2)), hilbert(2, REAL), starts=0)

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            radius_smooth(single(np.eye(2)), linf(2))


class TestGradient:
    def test_tiny_coordinate_gives_finite_gradient(self):
        # conj(x_k)^2 |x_k|^(r-4) was 0 * inf here
        val, G = _gradient(single([[1.0, 2.0], [3.0, 4.0]]), 1.5, np.array([1.0, 1e-200]))
        assert val > 0
        assert np.all(np.isfinite(G))


def _scaled_pair_tuple(c: float) -> OperatorTuple:
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    return OperatorTuple((c * A, c * B), p=80.0)


class TestScaleSafety:
    """At p = 80 every |z_i|^p of these pair images leaves the float range."""

    @pytest.mark.parametrize("c", [1e5, 1e-5])
    def test_radius_is_homogeneous(self, c):
        sp = linf(2)
        unit_T, T = _scaled_pair_tuple(1.0), _scaled_pair_tuple(c)
        unit, rr = radius(unit_T, sp), radius(T, sp)
        assert unit.value == pytest.approx(7.0, rel=1e-12)
        assert rr.value == pytest.approx(c * unit.value, rel=1e-12)
        assert not rr.degenerate
        assert len(rr.attaining.orbits) == len(unit.attaining.orbits) == 1
        assert smoothness(T, sp, rr).verdict == smoothness(unit_T, sp, unit).verdict == "Smooth"
        (gen,) = generators(T, sp, rr)
        (unit_gen,) = generators(unit_T, sp, unit)
        np.testing.assert_allclose(gen.alpha.alpha, unit_gen.alpha.alpha, rtol=1e-12)

    @pytest.mark.parametrize("c", [1e150, 1e-150])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("r, p", [(1.5, 3.0), (3.0, 3.0), (50.0, 1.01), (50.0, 80.0)])
    def test_smooth_radius_is_homogeneous(self, rng, c, field, r, p):
        sp = lr(3, r, field)
        T = random_tuple(2, 3, field, p, rng)
        unit = radius_smooth(T, sp, starts=4, seed=0)
        rr = radius_smooth(T.scaled(c), sp, starts=4, seed=0)
        assert rr.value == pytest.approx(c * unit.value, rel=1e-12)
        assert len(rr.attaining.orbits) == len(unit.attaining.orbits)
        assert not rr.degenerate

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("r", [1e3, 1e4])
    def test_large_r_is_finite_and_dominates_sampled(self, field, r):
        # |x_i|^r of a vector with some |x_i| > 1 overflows at these r
        sp = lr(2, r, field)
        T = OperatorTuple(([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]), p=3.0, field=field)
        rr = radius(T, sp, starts=8)
        assert math.isfinite(rr.value) and not rr.degenerate
        assert len(rr.attaining.orbits) == 1
        assert rr.value >= sampled_radius(T, sp)

    @pytest.mark.parametrize("c", [1e150, 1e-150])
    @pytest.mark.parametrize("p", [1.01, 80.0])
    @pytest.mark.parametrize("kind", ["l1", "linf", "polygon"])
    def test_exact_norm_axioms_at_extreme_scales(self, rng, c, p, kind):
        # exact values only: multi-start values are lower bounds, so the
        # triangle inequality cannot be asserted on them
        sp = random_polygon_space(rng) if kind == "polygon" else {"l1": l1, "linf": linf}[kind](3)
        for _ in range(3):
            T = random_tuple(2, sp.dim, REAL, p, rng)
            S = random_tuple(2, sp.dim, REAL, p, rng)
            Tc, Sc = T.scaled(c), S.scaled(c)
            wTc, wSc = radius_exact(Tc, sp).value, radius_exact(Sc, sp).value
            assert wTc == pytest.approx(c * radius_exact(T, sp).value, rel=1e-12)
            assert radius_exact(Tc + Sc, sp).value <= (wTc + wSc) * (1 + 1e-12)


class TestDegenerate:
    def test_skew_symmetric_real_hilbert(self):
        T = single([[0.0, 1.0], [-1.0, 0.0]])
        rr = radius_smooth(T, hilbert(2, REAL), starts=8, seed=0)
        assert rr.value <= 1e-12
        assert rr.degenerate


class TestOrbitDedup:
    def test_negation_merged(self):
        e1 = np.array([1.0, 0.0])
        pairs = [NormingPair(e1, e1), NormingPair(-e1, -e1)]
        assert len(orbit_dedup(pairs, REAL, 1e-6)) == 1

    def test_complex_phase_merged(self):
        e1 = np.array([1.0 + 0j, 0.0])
        pairs = [NormingPair(e1, e1), NormingPair(1j * e1, 1j * e1)]
        assert len(orbit_dedup(pairs, COMPLEX, 1e-6)) == 1

    def test_distinct_kept(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        pairs = [NormingPair(e1, e1), NormingPair(e2, e2)]
        assert len(orbit_dedup(pairs, REAL, 1e-6)) == 2

    def test_founder_order_deterministic(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        out = orbit_dedup([NormingPair(e2, e2), NormingPair(e1, e1)], REAL, 1e-6)
        np.testing.assert_array_equal(out[0].x, e2)


class TestNormProperties:
    def test_scaling_exact(self, rng):
        sp = linf(2)
        T = random_tuple(2, 2, REAL, 2.0, rng)
        assert radius_exact(T.scaled(3.5), sp).value == pytest.approx(
            3.5 * radius_exact(T, sp).value, abs=1e-9
        )

    def test_scaling_smooth(self, rng):
        sp = hilbert(3)
        T = random_tuple(2, 3, COMPLEX, 2.0, rng)
        assert radius_smooth(T.scaled(0.7), sp, starts=16, seed=0).value == pytest.approx(
            0.7 * radius_smooth(T, sp, starts=16, seed=0).value, abs=1e-9
        )

    def test_triangle_exact(self, rng):
        sp = l1(3)
        for _ in range(10):
            T = random_tuple(2, 3, REAL, 2.0, rng)
            S = random_tuple(2, 3, REAL, 2.0, rng)
            assert (
                radius_exact(T + S, sp).value
                <= radius_exact(T, sp).value + radius_exact(S, sp).value + 1e-9
            )

    def test_permutation_invariance_exact(self, rng):
        sp = linf(3)
        T = random_tuple(3, 3, REAL, 2.5, rng)
        P = OperatorTuple((T.matrices[2], T.matrices[0], T.matrices[1]), p=T.p, field=T.field)
        assert radius_exact(T, sp).value == radius_exact(P, sp).value

    def test_p_monotonicity(self, rng):
        sp = linf(2)
        M1, M2 = (rng.standard_normal((2, 2)) for _ in range(2))
        vals = []
        for p in (1.5, 2.0, 3.0, 6.0):
            vals.append(radius_exact(OperatorTuple((M1, M2), p=p), sp).value)
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-9

    def test_aggregate_never_exceeds_radius(self, rng):
        sp = linf(2)
        T = random_tuple(2, 2, REAL, 2.0, rng)
        rr = radius_exact(T, sp)
        for pr in sample_pairs(sp, 50, seed=4):
            assert aggregate(T, pr) <= rr.value + 1e-12

    def test_dispatch(self):
        assert radius(single(np.eye(2)), linf(2)).method == "ExactEnumeration"
        assert radius(single(np.eye(2)), hilbert(2, REAL), starts=4).method == "MultiStart"

    @pytest.mark.parametrize("space", [linf(2), hilbert(2, REAL)], ids=["exact", "smooth"])
    def test_dispatch_keeps_each_method_default_tolerance(self, space):
        # the second orbit sits 1e-6 below the first, outside both defaults
        T = single(np.diag([1.0, -(1.0 - 1e-6)]))
        own = radius_smooth(T, space, starts=8) if space.is_smooth_lp else radius_exact(T, space)
        via = radius(T, space, starts=8, attain_tol=None)
        assert via.value == own.value
        assert [o.value for o in via.attaining.orbits] == [o.value for o in own.attaining.orbits]
