import numpy as np
import pytest

from jointradius import (
    COMPLEX,
    REAL,
    OperatorTuple,
    ZeroRadius,
    apply,
    fd_gateaux,
    gateaux_derivative,
    gateaux_one_sided,
    generators,
    radius,
    radius_exact,
    radius_smooth,
    random_tuple,
    smoothness,
)
from jointradius.oracle import MINUS, PLUS
from conftest import hilbert, linf, lr, single


class TestGenerators:
    def test_linf_diag_two_generators(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        rr = radius_exact(T, sp)
        gens = generators(T, sp, rr)
        assert len(gens) == 2
        for g in gens:
            np.testing.assert_allclose(g.alpha, [1.0])

    def test_generator_attains_radius(self, rng):
        sp = linf(2)
        for _ in range(5):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            rr = radius_exact(T, sp)
            for g in generators(T, sp, rr):
                assert np.real(apply(g, T)) == pytest.approx(rr.value, abs=1e-12)

    def test_generator_norm_one(self, rng):
        # |f(S)| <= w_p(S) for every generator f and tuple S, with
        # equality approached at S = T: f is a supporting functional
        sp = linf(2)
        T = random_tuple(2, 2, REAL, 2.0, rng)
        rr = radius_exact(T, sp)
        gens = generators(T, sp, rr)
        for _ in range(20):
            S = random_tuple(2, 2, REAL, 2.0, rng)
            wS = radius_exact(S, sp).value
            for g in gens:
                assert abs(apply(g, S)) <= wS + 1e-9

    def test_supporting_inequality(self, rng):
        # w_p(S) - w_p(T) >= Re f(S - T)
        sp = hilbert(2)
        T = random_tuple(2, 2, COMPLEX, 2.0, rng)
        rr = radius_smooth(T, sp, starts=24, seed=0)
        gens = generators(T, sp, rr)
        for _ in range(10):
            S = random_tuple(2, 2, COMPLEX, 2.0, rng)
            wS = radius_smooth(S, sp, starts=24, seed=0).value
            for g in gens:
                assert np.real(apply(g, S - T)) <= wS - rr.value + 1e-8

    def test_zero_radius_raises(self):
        sp = hilbert(2, REAL)
        T = single([[0.0, 1.0], [-1.0, 0.0]])
        rr = radius_smooth(T, sp, starts=8, seed=0)
        with pytest.raises(ZeroRadius):
            generators(T, sp, rr)


class TestApply:
    def test_real_returns_float(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        g = generators(T, sp, radius_exact(T, sp))[0]
        assert isinstance(apply(g, T), float)

    def test_complex_returns_complex(self):
        sp = hilbert(2)
        T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
        rr = radius_smooth(T, sp, starts=8, seed=0)
        g = generators(T, sp, rr)[0]
        S = single(np.array([[0.0, 1j], [0.0, 0.0]]), field=COMPLEX)
        assert isinstance(apply(g, S), complex)


class TestGateauxOneSided:
    def test_same_direction_is_one(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        rep = gateaux_one_sided(T, T, sp, radius_exact(T, sp))
        assert rep.g_plus == pytest.approx(1.0, abs=1e-12)
        assert rep.g_minus == pytest.approx(1.0, abs=1e-12)
        assert rep.exhaustive

    def test_disjoint_support_is_zero(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        S = single(np.diag([0.0, 1.0]))
        rep = gateaux_one_sided(T, S, sp, radius_exact(T, sp))
        assert rep.g_plus == pytest.approx(0.0, abs=1e-12)
        assert rep.g_minus == pytest.approx(0.0, abs=1e-12)

    def test_signature_matrix_toward_identity(self):
        # diag(1,-1) on max-norm R^2: the attaining orbits split into
        # those seeing +identity and -identity contributions
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        rep = gateaux_one_sided(T, single(np.eye(2)), sp, radius_exact(T, sp))
        assert rep.g_plus == pytest.approx(1.0, abs=1e-12)
        assert rep.g_minus == pytest.approx(-1.0, abs=1e-12)

    def test_ordering_invariant(self, rng):
        sp = linf(2)
        for _ in range(10):
            T = random_tuple(2, 2, REAL, 2.5, rng)
            S = random_tuple(2, 2, REAL, 2.5, rng)
            rep = gateaux_one_sided(T, S, sp, radius_exact(T, sp))
            assert rep.g_minus <= rep.g_plus + 1e-15

    def test_matches_fd_exact_space(self, rng):
        sp = linf(2)
        for _ in range(3):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            S = random_tuple(2, 2, REAL, 2.0, rng)
            rep = gateaux_one_sided(T, S, sp, radius_exact(T, sp))
            assert rep.g_plus == pytest.approx(
                fd_gateaux(T, S, sp, t=1e-6, side=PLUS), abs=1e-4
            )
            assert rep.g_minus == pytest.approx(
                fd_gateaux(T, S, sp, t=1e-6, side=MINUS), abs=1e-4
            )

    def test_matches_fd_hilbert(self, rng):
        sp = hilbert(2, REAL)
        for _ in range(3):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            S = random_tuple(2, 2, REAL, 2.0, rng)
            rr = radius_smooth(T, sp, starts=24, seed=0)
            rep = gateaux_one_sided(T, S, sp, rr)
            fd = fd_gateaux(T, S, sp, t=1e-5, side=PLUS, starts=24, seed=0)
            assert rep.g_plus == pytest.approx(fd, abs=1e-3)

    def test_scaling_in_direction(self, rng):
        sp = linf(2)
        T = random_tuple(2, 2, REAL, 2.0, rng)
        S = random_tuple(2, 2, REAL, 2.0, rng)
        rr = radius_exact(T, sp)
        a = gateaux_one_sided(T, S, sp, rr)
        b = gateaux_one_sided(T, S.scaled(2.0), sp, rr)
        assert b.g_plus == pytest.approx(2 * a.g_plus, abs=1e-12)
        assert b.g_minus == pytest.approx(2 * a.g_minus, abs=1e-12)


class TestSmoothness:
    def test_linf_diag_not_smooth(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        rep = smoothness(T, sp, radius_exact(T, sp))
        assert rep.verdict == "NotSmooth"
        assert rep.exhaustive
        assert rep.generator is None
        assert not rep.smooth

    def test_complex_hilbert_diag_smooth(self):
        sp = hilbert(2)
        T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
        rep = smoothness(T, sp, radius_smooth(T, sp, starts=24, seed=0))
        assert rep.smooth
        assert rep.generator is not None

    def test_real_hilbert_diag_smooth(self):
        sp = hilbert(2, REAL)
        T = single(np.diag([1.0, 0.0]))
        rep = smoothness(T, sp, radius_smooth(T, sp, starts=24, seed=0))
        assert rep.smooth

    def test_real_hilbert_signature_not_smooth(self):
        # |c^2 - s^2| peaks at two distinct orbits (e1 and e2)
        sp = hilbert(2, REAL)
        T = single(np.diag([1.0, -1.0]))
        rep = smoothness(T, sp, radius_smooth(T, sp, starts=48, seed=0))
        assert rep.verdict == "NotSmooth"
        assert not rep.exhaustive

    @pytest.mark.parametrize("c", [1.0, 1e-150, 1e150])
    def test_value_window_is_scale_free(self, c):
        # two orbits 1e-5 apart, both kept by the loose attaining tolerance;
        # a window of 1e-8 * max(w, 1) called them NotSmooth at c = 1e-150
        sp = hilbert(2, REAL)
        T = single(c * np.diag([1.0, -(1.0 - 1e-5)]))
        rr = radius_smooth(T, sp, starts=16, seed=0, attain_tol=1e-4)
        assert len(rr.attaining.orbits) == 2
        assert smoothness(T, sp, rr).verdict == "Inconclusive"

    def test_zero_radius_raises(self):
        sp = hilbert(2, REAL)
        T = single([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ZeroRadius):
            smoothness(T, sp, radius_smooth(T, sp, starts=8, seed=0))


class TestGateauxDerivative:
    def test_smooth_point_value(self):
        sp = hilbert(2, REAL)
        T = single(np.diag([1.0, 0.0]))
        rr = radius_smooth(T, sp, starts=24, seed=0)
        S = single(np.diag([3.0, 0.0]))
        assert gateaux_derivative(T, S, sp, rr) == pytest.approx(3.0, abs=1e-9)

    def test_agrees_with_one_sided(self, rng):
        sp = hilbert(3)
        T = random_tuple(2, 3, COMPLEX, 2.0, rng)
        rr = radius_smooth(T, sp, starts=32, seed=0)
        if not smoothness(T, sp, rr).smooth:
            pytest.skip("random tuple landed on a non-smooth point")
        S = random_tuple(2, 3, COMPLEX, 2.0, rng)
        g = gateaux_derivative(T, S, sp, rr)
        rep = gateaux_one_sided(T, S, sp, rr)
        assert g == pytest.approx(rep.g_plus, abs=1e-10)

    def test_matches_fd_on_lr(self, rng):
        sp = lr(2, 4.0)
        T = random_tuple(2, 2, REAL, 3.0, rng)
        rr = radius_smooth(T, sp, starts=32, seed=0)
        if not smoothness(T, sp, rr).smooth:
            pytest.skip("random tuple landed on a non-smooth point")
        S = random_tuple(2, 2, REAL, 3.0, rng)
        g = gateaux_derivative(T, S, sp, rr)
        fd = fd_gateaux(T, S, sp, t=1e-5, starts=32, seed=0)
        assert g == pytest.approx(fd, abs=1e-3)

    def test_raises_on_nonsmooth(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            gateaux_derivative(T, T, sp, radius_exact(T, sp))
