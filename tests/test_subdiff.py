import warnings

import numpy as np
import pytest

import jointradius.subdiff as subdiff_module
from jointradius import (
    COMPLEX,
    REAL,
    DimensionMismatch,
    OperatorTuple,
    TupleSubspace,
    ZeroRadius,
    apply,
    fd_gateaux,
    gateaux_derivative,
    gateaux_one_sided,
    generators,
    orth_scalar,
    radius,
    radius_exact,
    radius_smooth,
    random_tuple,
    smoothness,
)
from jointradius.oracle import MINUS, PLUS
from jointradius.orth import _admit
from jointradius.subdiff import SubdiffGenerator, _table, evaluate
from conftest import hilbert, l1, linf, lr, random_polygon_space, single


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


def _orbit_problems():
    """(T, space, rr, directions) on real l_inf, l_1, a polygon and complex l_2/l_3;
    all but the generic l_inf tuple attain on several orbits."""
    rng = np.random.default_rng(8)
    perm = np.eye(4)[[2, 0, 3, 1]] * np.array([1.0, -1.0, -1.0, 1.0])
    out = []
    for sp, T in (
        (linf(4), OperatorTuple((perm, np.diag([1.0, -1.0, 1.0, 1.0])), p=3.0)),
        (l1(4), OperatorTuple((perm,), p=1.5)),
        (linf(3), random_tuple(2, 3, REAL, 2.5, rng)),
        (random_polygon_space(rng, vertices=6), OperatorTuple((np.eye(2), np.eye(2)), p=2.0)),
        (hilbert(3), single(np.eye(3) + 0j, field=COMPLEX)),
        (lr(3, 3.0, COMPLEX), OperatorTuple((np.eye(3) + 0j, np.eye(3) * 1j), p=4.0, field=COMPLEX)),
    ):
        rr = radius(T, sp, starts=8, seed=0)
        dirs = [random_tuple(T.d, T.n, T.field, T.p, rng) for _ in range(3)]
        out.append((T, sp, rr, dirs))
    return out


def _orbit_alpha(T, pr, w):
    """Per-orbit coefficients alpha_i = conj(z_i)|z_i|^(p-2) / w^(p-1)."""
    z = np.array([np.vdot(pr.x_star, M @ pr.x) for M in T.matrices]) / w
    a = np.abs(z)
    return np.where(a > 0, np.conj(z) * np.where(a > 0, a, 1.0) ** (T.p - 2.0), 0.0)


def _orbit_value(alpha, pr, S):
    """Per-orbit functional value sum_i alpha_i x*(S_i x)."""
    return sum(a * np.vdot(pr.x_star, M @ pr.x) for a, M in zip(alpha, S.matrices))


def _assert_close(got, want, rel=1e-14):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestStackedRowsAgainstPerOrbit:
    @pytest.mark.parametrize(
        "case", range(6), ids=["linf", "l1", "linf-random", "polygon", "complex-l2", "complex-l3"]
    )
    def test_alpha_c_values_and_orth_rows(self, case):
        T, sp, rr, dirs = _orbit_problems()[case]
        reps = [o.representative for o in rr.attaining.orbits]
        assert len(reps) >= (1 if case == 2 else 2)
        gens = generators(T, sp, rr)
        want_alpha = [_orbit_alpha(T, pr, rr.value) for pr in reps]
        _assert_close([g.alpha for g in gens], want_alpha)
        S = dirs[0]
        c = gateaux_one_sided(T, S, sp, rr).c_values
        _assert_close(c, [_orbit_value(a, pr, S).real for a, pr in zip(want_alpha, reps)])
        V = TupleSubspace(tuple(dirs))
        want_rows = [[_orbit_value(a, pr, D) for D in dirs] for a, pr in zip(want_alpha, reps)]
        _assert_close(evaluate(_table(T, rr), _admit(T, V)), want_rows)
        _assert_close(evaluate(_table(T, rr), np.stack([D.matrices for D in dirs])), want_rows)
        assert apply(gens[-1], S) == pytest.approx(want_rows[-1][0], rel=1e-14)

    @pytest.mark.parametrize("c", [1.0, 1e150, 1e-150])
    def test_nonattaining_warning_from_generators(self, c):
        # a loose attaining tolerance keeps the two 0.5-valued orbits of diag(1, 0.5)
        sp = linf(2)
        T = single(np.diag([1.0, 0.5])).scaled(c)
        loose = radius_exact(T, sp, attain_tol=0.9)
        assert len(loose.attaining.orbits) == 4
        # the table is built once, but every public call on the loose result warns once
        S = single(np.eye(2)).scaled(c)
        for call in (
            lambda: generators(T, sp, loose),
            lambda: generators(T, sp, loose),
            lambda: gateaux_one_sided(T, S, sp, loose),
            lambda: orth_scalar(T, S, sp, loose),
        ):
            with pytest.warns(UserWarning, match="does not attain") as record:
                call()
            assert len([w for w in record if "does not attain" in str(w.message)]) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generators(T, sp, radius_exact(T, sp))


class TestGeneratorTable:
    @staticmethod
    def _count_passes(monkeypatch):
        calls = []
        inner = subdiff_module.coefficient_rows

        def counted(*args):
            calls.append(args[0])
            return inner(*args)

        monkeypatch.setattr(subdiff_module, "coefficient_rows", counted)
        return calls

    @pytest.mark.parametrize("case", [0, 3, 5], ids=["linf", "polygon", "complex-l3"])
    def test_one_coefficient_pass_per_result(self, monkeypatch, case):
        T, sp, rr, dirs = _orbit_problems()[case]
        calls = self._count_passes(monkeypatch)
        gens = generators(T, sp, rr)
        smoothness(T, sp, rr)
        gateaux_one_sided(T, dirs[0], sp, rr)
        orth_scalar(T, dirs[0], sp, rr)
        assert len(calls) == 1 and calls[0] is T
        table = _table(T, rr)
        assert all(not a.flags.writeable for a in table)
        assert [g.alpha.tolist() for g in gens] == table[2].tolist()

    def test_equal_tuple_object_builds_its_own_table(self, monkeypatch):
        T, sp, rr, dirs = _orbit_problems()[0]
        twin = OperatorTuple(T.matrices, p=T.p, field=T.field)
        calls = self._count_passes(monkeypatch)
        first = _table(T, rr)
        again = _table(twin, rr)
        assert len(calls) == 2 and calls[0] is T and calls[1] is twin
        assert again is not first
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_gateaux_builds_no_generator_objects(self, monkeypatch):
        T, sp, rr, dirs = _orbit_problems()[0]
        want = gateaux_one_sided(T, dirs[0], sp, rr)

        def refuse(*args, **kwargs):
            raise AssertionError("a SubdiffGenerator was built")

        monkeypatch.setattr("jointradius.subdiff.SubdiffGenerator", refuse)
        assert gateaux_one_sided(T, dirs[0], sp, rr) == want
        with pytest.raises(AssertionError, match="SubdiffGenerator"):
            generators(T, sp, rr)

    def test_generators_and_smooth_verdict_return_objects(self):
        T, sp, rr, _ = _orbit_problems()[0]
        gens = generators(T, sp, rr)
        assert len(gens) == len(rr.attaining.orbits) > 1
        assert all(isinstance(g, SubdiffGenerator) for g in gens)
        T, sp, rr, _ = _orbit_problems()[2]
        report = smoothness(T, sp, rr)
        assert report.smooth
        assert isinstance(report.generator, SubdiffGenerator)

    @pytest.mark.parametrize("case", [0, 3, 5], ids=["linf", "polygon", "complex-l3"])
    def test_apply_is_the_one_row_evaluate(self, case):
        # bit for bit against the generator's own row of the table and its row of the stacked table
        T, sp, rr, dirs = _orbit_problems()[case]
        table, B = _table(T, rr), np.stack([S.matrices for S in dirs])
        stacked = evaluate(table, B)
        for k, g in enumerate(generators(T, sp, rr)):
            row = evaluate([a[k : k + 1] for a in table], B)[0]
            assert [apply(g, S) for S in dirs] == row.tolist() == stacked[k].tolist()


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

    @pytest.mark.parametrize("S", [single(np.eye(3)), OperatorTuple((np.eye(2), np.eye(2)))], ids=["n", "d"])
    def test_dimension_mismatch(self, S):
        # a tuple of another n, or another d (which alpha would broadcast against), is refused
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        g = generators(T, sp, radius_exact(T, sp))[0]
        with pytest.raises(DimensionMismatch, match="generator dimension does not match the tuple"):
            apply(g, S)


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

    # Values within attain_tol = 1e-12 relative share one attaining set: ((1, 1), e_2) gives
    # 2 + 1e-13 and the other orbit 2, so the solve reports two orbits and "NotSmooth".
    @pytest.mark.xfail(strict=True, reason="exact-path near-ties are decided by attain_tol")
    def test_linf_near_tie_smooth(self):
        sp = linf(2)
        T = single([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        rr = radius_exact(T, sp)
        assert len(rr.attaining.orbits) == 1
        assert smoothness(T, sp, rr).verdict == "Smooth"

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
