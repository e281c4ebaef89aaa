import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointradius import (
    COMPLEX,
    REAL,
    DimensionMismatch,
    NormingPair,
    OperatorTuple,
    Polyhedral,
    SpaceDescriptor,
    Unsupported,
    admissible_pairs,
    aggregate,
    extreme_points,
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
from jointradius.radius import (
    ATTAIN_TOL_EXACT,
    DEFAULT_STARTS,
    EXACT_ENUMERATION,
    MAX_ITER,
    ORBIT_TOL,
    _ascend,
    _ascend_all,
    _gradient,
    _objective,
    _result,
)
from jointradius.spaces import (
    DESCRIPTOR_TOL,
    _PAIR_TABLES,
    _gaussian,
    _signed_power,
    lp_norm,
    lp_norm_rows,
    norm_eval,
    random_unit_vector,
    smooth_duality_vector,
)
from conftest import (
    extreme_spaces,
    hilbert,
    l1,
    linf,
    lr,
    off_negation_hexagon,
    random_polygon_space,
    random_polytope,
    single,
)

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

    @pytest.mark.parametrize("d, n", [(1, 19), (820, 10)])
    def test_entry_budget_refused_before_allocation(self, d, n):
        # dim 19 has 2n 2^n > 2^24 admissible pairs; at dim 10 the 20 x 1024
        # pair table fits, but d = 820 stacks of it would not
        with pytest.raises(Unsupported, match="budget"):
            radius(OperatorTuple(np.zeros((d, n, n))), linf(n))

    def test_dominates_sampling(self, rng):
        sp = random_polygon_space(rng)
        for _ in range(5):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            rr = radius_exact(T, sp)
            assert rr.value >= sampled_radius(T, sp, samples=2000, seed=1) - 1e-12


def _all_pairs_exact(T, space, attain_tol):
    """radius_exact's answer with every admissible pair scored by `aggregate`."""
    pairs = admissible_pairs(space)
    return _result([aggregate(T, pr) for pr in pairs], pairs, EXACT_ENUMERATION, T, attain_tol)


def _orbit_bytes(attaining):
    return [(o.value, o.representative.x.tobytes(), o.representative.x_star.tobytes()) for o in attaining.orbits]


def _window_tuples(kind, n, rng):
    """Three d = 2 tuples of one kind on dimension n."""
    for _ in range(3):
        if kind == "generic":
            mats = rng.standard_normal((2, n, n))
        elif kind == "integer":  # small integers: many pairs tie exactly
            mats = rng.integers(-2, 3, size=(2, n, n)).astype(float)
        else:  # signed permutations: every pair attains, and the noise splits them by ~1e-13
            mats = np.array([np.diag(rng.choice([-1.0, 1.0], n))[rng.permutation(n)] for _ in range(2)])
            mats += 1e-13 * rng.standard_normal((2, n, n))
        yield mats


def _count_aggregate(monkeypatch):
    """Every pair `radius_exact` scores through `aggregate` from now on."""
    module = sys.modules["jointradius.radius"]
    calls = []
    aggregate_ = module.aggregate

    def counted(T, pair):
        calls.append(pair)
        return aggregate_(T, pair)

    monkeypatch.setattr(module, "aggregate", counted)
    return calls


class TestWindowedScoring:
    """radius_exact re-scores only the window its array pass keeps; the answer
    must be the one scoring every pair with `aggregate` gives, bit for bit."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-6, 0.5])
    @pytest.mark.parametrize("c", [1.0, 1e150, 1e-150])
    @pytest.mark.parametrize("kind", ["generic", "integer", "signed_permutation"])
    def test_matches_all_pairs_reference(self, rng, tol, c, kind):
        spaces = [linf(3), l1(3), linf(5), l1(5)]
        if kind != "signed_permutation":
            spaces += [random_polygon_space(rng, vertices=5) for _ in range(2)]
        for k, sp in enumerate(spaces):
            for mats in _window_tuples(kind, sp.dim, rng):
                T = OperatorTuple(c * mats, p=(1.3, 2.0, 7.0)[k % 3])
                rr = radius_exact(T, sp, attain_tol=tol)
                ref = _all_pairs_exact(T, sp, tol)
                assert rr.value == ref.value
                assert _orbit_bytes(rr.attaining) == _orbit_bytes(ref.attaining)

    def test_generic_tuple_rescores_one_orbit(self, rng, monkeypatch):
        calls = _count_aggregate(monkeypatch)
        rr = radius_exact(OperatorTuple(rng.standard_normal((3, 6, 6))), linf(6))
        # a pair (x, x*) and its negation (-x, -x*) score the same floats
        assert len(calls) == 2 and len(rr.attaining.orbits) == 1

    def test_identity_rescores_every_pair(self, monkeypatch):
        # perfbench's tracer counts these calls through the same module global
        calls = _count_aggregate(monkeypatch)
        rr = radius_exact(single(np.eye(4)), linf(4))
        assert len(calls) == len(admissible_pairs(linf(4))) == 64
        assert len(rr.attaining.orbits) == 32


def _full_pass_exact(T, space, attain_tol=ATTAIN_TOL_EXACT):
    """radius_exact as one array pass over every admissible pair gave it, built from the extremes
    alone (no pair table): the window of that pass, `aggregate` on the window, and one orbit per
    lower flat index of (i, j) and (neg i, neg j), neg the nearest negation.

    Returns the value and each orbit's (value, x bytes, x* bytes), founders in pair order.
    """
    P, D = extreme_points(space)
    rows, cols = np.nonzero(np.abs(P @ D.T - 1.0) <= DESCRIPTOR_TOL)
    vals = lp_norm_rows((D @ T.matrices @ P.T)[:, cols, rows].T, T.p)
    n, d, eps = T.n, T.d, np.finfo(float).eps
    S = n * n * T.max_entry() * np.abs(P).max() * np.abs(D).max()
    best = vals.max()
    slack = 16 * eps * (n * d * S + (d + 2) * best) + n * d * np.finfo(float).tiny
    window = np.flatnonzero(vals >= best - attain_tol * best - slack)
    values = [aggregate(T, NormingPair(P[rows[k]], D[cols[k]])) for k in window]
    best = max(values)
    neg_p, neg_d = (np.argmin(np.abs(E[:, None, :] + E[None, :, :]).max(axis=2), axis=1) for E in (P, D))
    orbits = {}
    for k, v in zip(window.tolist(), values):
        i, j = rows[k], cols[k]
        if v >= best - attain_tol * max(best, 0.0):
            orbits.setdefault(min(i * len(D) + j, neg_p[i] * len(D) + neg_d[j]), (v, P[i].tobytes(), D[j].tobytes()))
    return best, list(orbits.values())


def _mate_corpus(rng):
    """(T, space): random real l_1/l_inf tuples (n 2-8, d 1-3), signed permutations, the zero
    tuple, a tuple with a zero row, random polygons, and a hexagon whose extreme lists close
    under negation only within 2e-13 to 6e-13."""
    out = [
        (OperatorTuple(rng.standard_normal((1 + n % 3, n, n)), p=(1.3, 2.0, 3.7)[n % 3]), make(n))
        for n in range(2, 9)
        for make in (linf, l1)
    ]
    for n in (3, 5):
        mats = np.array([np.diag(rng.choice([-1.0, 1.0], n))[rng.permutation(n)] for _ in range(2)])
        out += [(OperatorTuple(mats, p=3.0), make(n)) for make in (linf, l1)]
    zero_row = rng.standard_normal((2, 4, 4))
    zero_row[0, 2] = 0.0
    for mats in (np.zeros((2, 4, 4)), zero_row):
        out += [(OperatorTuple(mats, p=2.5), make(4)) for make in (linf, l1)]
    polygons = [random_polygon_space(rng, vertices=k) for k in (3, 5, 8)] + [off_negation_hexagon(rng)]
    out += [(OperatorTuple(rng.standard_normal((2, 2, 2)), p=1.7), sp) for sp in polygons]
    # (I, diag(1, -1)) ties several orbits of the exact hexagon at the maximum; on the moved
    # hexagon a pair and its mate differ by up to 1e-12 relative, so neither may stand for the other
    ties = np.array([np.eye(2), np.diag([1.0, -1.0])])
    out += [(OperatorTuple(ties, p=(1.5, 2.0, 3.0)[k % 3]), off_negation_hexagon(rng)) for k in range(24)]
    return out


class TestMateScoring:
    """radius_exact scores one pair of each mate orbit; the answer must be the full pass's, bit for bit."""

    @pytest.mark.parametrize("tol", [0.0, ATTAIN_TOL_EXACT, 1e-6, 0.5])
    def test_matches_the_full_pass(self, rng, tol):
        for T, sp in _mate_corpus(rng):
            rr = radius_exact(T, sp, attain_tol=tol)
            value, orbits = _full_pass_exact(T, sp, tol)
            assert rr.value == value
            assert _orbit_bytes(rr.attaining) == orbits

    def test_answers_survive_freed_tables(self, rng):
        # each space is dropped after its solve, so its pair table is freed and the next table,
        # of the same shape or another, may reuse that memory; a random polyhedral space is held
        # by nothing else
        for _ in range(3):
            for make in (
                lambda: random_polygon_space(rng, vertices=5),
                lambda: random_polygon_space(rng, vertices=5),
                lambda: l1(int(rng.integers(2, 7))),
                lambda: SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(*random_polytope(rng))),
                lambda: random_polygon_space(rng, vertices=int(rng.integers(3, 9))),
                lambda: linf(int(rng.integers(2, 7))),
                lambda: off_negation_hexagon(rng),
            ):
                sp = make()
                T = OperatorTuple(rng.standard_normal((2, sp.dim, sp.dim)), p=2.5)
                rr = radius_exact(T, sp)
                assert (rr.value, _orbit_bytes(rr.attaining)) == _full_pass_exact(T, sp)
                twin, gone = SpaceDescriptor(sp.field, sp.dim, sp.norm), weakref.ref(sp)
                del sp, rr
                gc.collect()
                assert gone() is None
                if isinstance(twin.norm, Polyhedral):
                    assert twin not in _PAIR_TABLES


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
        with pytest.raises(ValueError, match="starts"):
            radius_smooth(single(np.eye(2)), hilbert(2, REAL), starts=0)
        with pytest.raises(ValueError, match="seed"):
            radius_smooth(single(np.eye(2)), hilbert(2, REAL), starts=2, seed=-1)

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            radius_smooth(single(np.eye(2)), linf(2))

    def test_complex_tuple_on_real_space_is_unsupported(self):
        # the ascent would step off the real sphere along complex directions
        with pytest.raises(Unsupported, match="real tuple"):
            radius_smooth(single([[1.0, 2j], [0.5, 1.0]], field=COMPLEX), lr(2, 3.0), starts=2)


class TestGradient:
    def test_tiny_coordinate_gives_finite_gradient(self):
        # conj(x_k)^2 |x_k|^(r-4) was 0 * inf here
        T = single([[1.0, 2.0], [3.0, 4.0]])
        ev = _objective(T, 1.5, np.array([[1.0, 1e-200]]))
        G = _gradient(T, 1.5, ev)
        assert ev.value[0] > 0
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
        np.testing.assert_allclose(gen.alpha, unit_gen.alpha, rtol=1e-12)

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


def _record_iters(monkeypatch):
    """Per-start iteration counts of every `_ascend_all` run from now on."""
    module = sys.modules["jointradius.radius"]
    engine, iters = module._ascend_all, []

    def recorded(*args):
        out = engine(*args)
        iters.extend(out[2].tolist())
        return out

    monkeypatch.setattr(module, "_ascend_all", recorded)
    return iters


class TestAscentStop:
    def test_generic_starts_stop_long_before_max_iter(self, rng, monkeypatch):
        iters = _record_iters(monkeypatch)
        T = random_tuple(2, 3, REAL, 2.0, rng)
        radius_smooth(T, hilbert(3, REAL), starts=8, seed=0)
        assert len(iters) == 8
        assert max(iters) <= MAX_ITER // 5

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_identity_takes_one_gradient_per_start(self, field, monkeypatch):
        iters = _record_iters(monkeypatch)
        T = single(np.eye(3), field=field)
        rr = radius_smooth(T, hilbert(3, field), starts=8, seed=0)
        assert iters == [1] * 8
        assert rr.value == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("field, r", [(REAL, 2.0), (REAL, 3.0), (COMPLEX, 1.5)])
    def test_restart_from_converged_point_stops_at_once(self, rng, field, r):
        sp = lr(3, r, field)
        T = random_tuple(2, 3, field, 2.0, rng)
        unit = OperatorTuple(T.matrices / T.max_entry(), p=T.p, field=T.field)
        start = np.random.default_rng([0, 0])
        fval, x = _ascend(unit, sp, random_unit_vector(sp, start), start)
        again, _, iters = _ascend_all(unit, sp, x[None], [np.random.default_rng(1)])
        assert iters[0] <= 4
        assert again[0] == pytest.approx(fval, rel=1e-15)


def _unfused_objective(T, r, x):
    return aggregate(T, NormingPair(x, smooth_duality_vector(x, r)))


def _unfused_gradient(T, r, x):
    """The gradient as it was before it took the objective's evaluation."""
    p = T.p
    a = np.abs(x)
    nz = a > 1e-300
    s = _signed_power(x, r - 2.0)
    pw2 = np.zeros_like(x)
    pw2[nz] = a[nz] ** (r - 2.0)
    c2 = np.zeros_like(x)
    c2[nz] = (np.conj(x[nz]) / a[nz]) ** 2 * pw2[nz]
    Y = T.matrices @ x
    z = Y @ s
    val = lp_norm(z, p)
    if val == 0.0:
        return 0.0, np.zeros_like(x)
    zp = _signed_power(z / val, p - 2.0)
    A = (r / 2.0) * pw2[None, :] * Y
    B = ((r - 2.0) / 2.0) * c2[None, :] * Y + s @ T.matrices
    G = zp @ A + np.conj(zp @ B)
    nu = np.conj(s)
    denom = float(np.real(np.vdot(nu, nu)))
    if denom > 0:
        G = G - (float(np.real(np.vdot(nu, G))) / denom) * nu
    return val, G


def _unfused_normalize(space, y):
    x = y / norm_eval(space, y)
    return x / norm_eval(space, x)


def _unfused_ascend(T, space, x0, rng):
    """One start of the ascent as it was before its starts ran in lockstep and
    before it evaluated each point once; returns (value, x, iterations, restarts).

    The step floor and the iteration cap are read at call time, so that a
    test can change them for this loop and the engine alike.
    """
    r = space.norm.r
    module = sys.modules["jointradius.radius"]
    min_step, max_iter = module.MIN_STEP, module.MAX_ITER
    x = _unfused_normalize(space, x0)
    step = 1.0
    restarts = stalls = iters = 0
    for _ in range(max_iter):
        iters += 1
        fval, G = _unfused_gradient(T, r, x)
        gn2 = float(np.real(np.vdot(G, G)))
        if gn2 == 0.0:
            break
        s = min(4.0 * step, 1.0 / (1.0 + math.sqrt(gn2)))
        accepted = False
        while s >= min_step:
            cand = _unfused_normalize(space, x + s * G)
            fc = _unfused_objective(T, r, cand)
            if fc >= fval + 0.3 * s * gn2:
                stalls = stalls + 1 if fc - fval <= 1e-15 * abs(fval) else 0
                x, fval, step, accepted = cand, fc, s, True
                break
            s *= 0.5
        if not accepted:
            if restarts < 2:
                restarts += 1
                stalls = 0
                x = _unfused_normalize(space, x + 1e-3 * _gaussian(space, rng))
                fval = _unfused_objective(T, r, x)
                step = 1.0
                continue
            break
        if stalls == 3:
            break
    return fval, x, iters, restarts


def _first_search(T, space, x0):
    """The first step s of `_unfused_ascend` from x0, and the first halving h whose step s/2^h passes."""
    r = space.norm.r
    x = _unfused_normalize(space, x0)
    f, G = _unfused_gradient(T, r, x)
    gn2 = float(np.vdot(G, G).real)
    s, h = min(4.0, 1.0 / (1.0 + math.sqrt(gn2))), 0
    while _unfused_objective(T, r, _unfused_normalize(space, x + s * 0.5**h * G)) < f + 0.3 * s * 0.5**h * gn2:
        h += 1
    return s, h


def _unit(T):
    return OperatorTuple(T.matrices / T.max_entry(), p=T.p, field=T.field)


def _starts(space, seed, count, fixed=()):
    """radius_smooth's first `count` starts and their streams; the rows of `fixed` replace the first starts."""
    rngs = [np.random.default_rng([seed, k]) for k in range(count)]
    X0 = np.array([random_unit_vector(space, g) for g in rngs])
    if len(fixed):
        X0[: len(fixed)] = fixed
    return X0, rngs


def _assert_rows_match_unfused(T, space, fixed=(), seed=0):
    """Every row of the engine on 8 starts, bit for bit, against `_unfused_ascend`
    from the same start and stream; returns (iterations, restarts) per row."""
    values, X, iters = _ascend_all(T, space, *_starts(space, seed, 8, fixed))
    X0, rngs = _starts(space, seed, 8, fixed)
    restarts = []
    for k in range(8):
        want_f, want_x, want_iters, want_restarts = _unfused_ascend(T, space, X0[k], rngs[k])
        assert values[k] == want_f, k
        assert X[k].dtype == want_x.dtype and X[k].tobytes() == want_x.tobytes(), k
        assert iters[k] == want_iters, k
        restarts.append(want_restarts)
    return iters.tolist(), restarts


class TestFusedAscent:
    """Neither evaluating each point once nor running the starts in lockstep
    may move a single bit of any start."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_matches_unfused_ascent(self, rng, field, r, p):
        T = _unit(random_tuple(2, 3, field, p, rng))
        iters, _ = _assert_rows_match_unfused(T, lr(3, r, field))
        assert len(set(iters)) > 1  # rows retire in different rounds

    def test_restart_at_a_kink(self):
        # on complex l_1.5 a search fails near a kink of the objective and
        # start 4 restarts once, while the other starts run on
        T = _unit(single([[-0.2 + 0.5j, 0.9 - 0.1j], [0.8 + 0.7j, -0.2]], p=1.2, field=COMPLEX))
        _, restarts = _assert_rows_match_unfused(T, lr(2, 1.5, COMPLEX))
        assert restarts == [0, 0, 0, 0, 1, 0, 0, 0]

    @pytest.mark.parametrize("min_step", [0.05, 10.0])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_failed_searches_restart_then_stop(self, rng, monkeypatch, min_step, field):
        # a high step floor fails searches: at 10 every search fails, so each
        # row restarts twice and stops in its third iteration
        monkeypatch.setattr(sys.modules["jointradius.radius"], "MIN_STEP", min_step)
        T = _unit(random_tuple(2, 3, field, 1.5, rng))
        iters, restarts = _assert_rows_match_unfused(T, lr(3, 1.5, field))
        if min_step > 1.0:
            assert iters == [3] * 8 and restarts == [2] * 8
        else:
            assert 0 < sum(restarts) < 16

    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_zero_gradient_row_beside_live_rows(self, r):
        # e_1 is a critical point of diag(2, 1), where the gradient is exactly 0
        T = _unit(single(np.diag([2.0, 1.0])))
        iters, _ = _assert_rows_match_unfused(T, lr(2, r), fixed=[[1.0, 0.0]])
        assert iters[0] == 1 and min(iters[1:]) > 1

    def test_matches_unfused_ascent_at_tiny_coordinate(self):
        T = _unit(single([[1.0, 2.0], [3.0, 4.0]]))
        _assert_rows_match_unfused(T, lr(2, 1.5), fixed=[[1.0, 1e-200]])

    @pytest.mark.parametrize("field, start", [(REAL, [0.6, 0.0, -0.8]), (COMPLEX, [0.6j, 0.0, 0.8])])
    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_matches_unfused_ascent_at_zero_coordinate(self, rng, field, start, r):
        # an exact zero in x takes the masked branch of the coordinate powers
        T = _unit(random_tuple(2, 3, field, 1.5, rng))
        _assert_rows_match_unfused(T, lr(3, r, field), fixed=[start])

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("d, n", [(1, 3), (3, 4)])
    def test_matches_unfused_ascent_across_shapes(self, rng, field, d, n):
        T = _unit(random_tuple(d, n, field, 2.5, rng))
        _assert_rows_match_unfused(T, lr(n, 1.5, field))

    def test_every_row_takes_its_first_step_up_to_the_cap(self, monkeypatch):
        # on diag(1, 0, 0), complex l_3, every row accepts its full step in
        # every round until the cap, so each round makes one candidate pass
        module = sys.modules["jointradius.radius"]
        monkeypatch.setattr(module, "MAX_ITER", 40)
        objective, passes = module._objective, []
        monkeypatch.setattr(module, "_objective", lambda *args: passes.append(1) or objective(*args))
        T = single(np.diag([1.0, 0.0, 0.0]), p=2.5, field=COMPLEX)
        iters, restarts = _assert_rows_match_unfused(T, lr(3, 3.0, COMPLEX))
        assert iters == [40] * 8 and restarts == [0] * 8
        assert len(passes) == 1 + 40  # the starts, then one pass per round

    def test_rows_passing_at_different_halvings_end_the_round_in_one_gather(self, monkeypatch):
        # the first search of each start passes at s, s/4 or s/8, and up to
        # the cap every round ends in its first pass with no restart, so no
        # round scatters candidates into the old state
        module = sys.modules["jointradius.radius"]
        monkeypatch.setattr(module, "MAX_ITER", 5)
        space = lr(3, 1.5)
        T = _unit(random_tuple(2, 3, REAL, 1.5, np.random.default_rng(32)))
        assert [_first_search(T, space, x)[1] for x in _starts(space, 0, 8)[0]] == [0, 0, 0, 0, 3, 0, 2, 0]
        objective, put, passes, puts = module._objective, module._Evaluation.put, [], []
        monkeypatch.setattr(module, "_objective", lambda *args: passes.append(1) or objective(*args))
        monkeypatch.setattr(module._Evaluation, "put", lambda *args: puts.append(1) or put(*args))
        iters, restarts = _assert_rows_match_unfused(T, space)
        assert iters == [5] * 8 and restarts == [0] * 8
        assert len(passes) == 1 + 5  # the starts, then one pass per round
        assert puts == []

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_matches_unfused_ascent_on_one_coordinate(self, rng, field, r):
        # n = 1: every row norm of the ascent is of a one-column array
        T = _unit(random_tuple(2, 1, field, 2.5, rng))
        _assert_rows_match_unfused(T, lr(1, r, field))

    @pytest.mark.parametrize("field, tuple_seed", [(REAL, 4), (COMPLEX, 0)])
    def test_step_floor_between_halvings(self, monkeypatch, field, tuple_seed):
        # start 0's first search passes first at s/2^h, h >= 1; a floor just
        # above s/2^h leaves only its h failing halvings, so the search fails
        # and the row restarts instead of taking a candidate below the floor
        space = lr(3, 1.5, field)
        T = _unit(random_tuple(2, 3, field, 1.5, np.random.default_rng(tuple_seed)))
        s, h = _first_search(T, space, _starts(space, 0, 1)[0][0])
        assert 1 <= h <= 3
        monkeypatch.setattr(sys.modules["jointradius.radius"], "MIN_STEP", 1.5 * s * 0.5**h)
        _, restarts = _assert_rows_match_unfused(T, space)
        assert restarts[0] >= 1

    def test_gradient_never_evaluates_the_objective(self, rng, monkeypatch):
        module = sys.modules["jointradius.radius"]
        gradient, objective = module._gradient, module._objective
        inside, leaks = [], []

        def watched_gradient(*args):
            inside.append(True)
            try:
                return gradient(*args)
            finally:
                inside.pop()

        def watched_objective(*args):
            leaks.append(bool(inside))
            return objective(*args)

        monkeypatch.setattr(module, "_gradient", watched_gradient)
        monkeypatch.setattr(module, "_objective", watched_objective)
        T = random_tuple(2, 3, COMPLEX, 1.5, rng)
        radius_smooth(T, lr(3, 1.5, COMPLEX), starts=4, seed=0)
        assert leaks and not any(leaks)


def _per_start(T, space, starts, seed):
    """Each start's (value, x) as radius_smooth's lockstep blocks return them, and the block sizes."""
    module = sys.modules["jointradius.radius"]
    engine, blocks = module._ascend_all, []

    def recorded(*args):
        blocks.append(engine(*args))
        return blocks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_ascend_all", recorded)
        radius_smooth(T, space, starts=starts, seed=seed)
    values = np.concatenate([b[0] for b in blocks])
    return values, np.concatenate([b[1] for b in blocks]), [len(b[0]) for b in blocks]


def _alone(T, space, seed, k):
    """Start k of radius_smooth, run by itself."""
    rng = np.random.default_rng([seed, k])
    return _ascend(_unit(T), space, random_unit_vector(space, rng), rng)


class TestStartIndependence:
    @settings(max_examples=8, deadline=None)
    @given(
        k=st.integers(0, 7),
        field=st.sampled_from([REAL, COMPLEX]),
        r=st.sampled_from([1.5, 2.0, 3.0]),
        p=st.sampled_from([1.5, 3.0]),
        tuple_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    def test_start_does_not_depend_on_its_neighbours(self, k, field, r, p, tuple_seed, seed):
        T = random_tuple(2, 3, field, p, np.random.default_rng(tuple_seed))
        sp = lr(3, r, field)
        want_f, want_x = _alone(T, sp, seed, k)
        for starts in (k + 1, 8, DEFAULT_STARTS + 1):
            values, X, _ = _per_start(T, sp, starts, seed)
            assert values[k] == want_f
            assert X[k].tobytes() == want_x.tobytes()

    def test_blocks_give_each_start_its_own_floats(self):
        # starts run in blocks of at most DEFAULT_STARTS rows
        T = random_tuple(1, 2, REAL, 2.0, np.random.default_rng(5))
        sp = lr(2, 3.0)
        values, X, blocks = _per_start(T, sp, DEFAULT_STARTS + 1, 0)
        assert blocks == [DEFAULT_STARTS, 1]
        for k in range(DEFAULT_STARTS + 1):
            want_f, want_x = _alone(T, sp, 0, k)
            assert values[k] == want_f
            assert X[k].tobytes() == want_x.tobytes()


class TestDimensionMismatch:
    """A tuple on n = 3 against a space of dimension 2 fails with one library error, not numpy's."""

    T = single(np.eye(3))

    @pytest.mark.parametrize("space", [hilbert(2, REAL), linf(2)], ids=["l2", "linf"])
    def test_radius(self, space):
        with pytest.raises(DimensionMismatch, match="space dimension 2 does not match operator dimension 3"):
            radius(self.T, space)

    def test_each_method(self):
        with pytest.raises(DimensionMismatch):
            radius_exact(self.T, linf(2))
        with pytest.raises(DimensionMismatch):
            radius_smooth(self.T, hilbert(2, REAL))

    def test_rejected_before_any_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("the solve ran before the dimension check")

        module = sys.modules["jointradius.radius"]
        monkeypatch.setattr(module, "_ascend_all", solve)
        monkeypatch.setattr(module, "admissible_pairs", solve)
        for space in (hilbert(2, REAL), linf(2)):
            with pytest.raises(DimensionMismatch):
                radius(self.T, space)


class TestComplexTupleOnRealSpace:
    def test_rejected_before_any_pair_is_enumerated(self, monkeypatch, rng):
        def enumerate_(*args, **kwargs):
            raise AssertionError("pairs were enumerated before the field check")

        spaces = (linf(2), l1(3), random_polygon_space(rng))
        monkeypatch.setattr(sys.modules["jointradius.radius"], "admissible_pairs", enumerate_)
        for space in spaces:
            T = single(np.diag([1j] + [0.0] * (space.dim - 1)), field=COMPLEX)
            for solve in (radius, radius_exact):
                with pytest.raises(Unsupported, match="requires a real tuple"):
                    solve(T, space)


class TestLargeExponent:
    """w_p of (I, diag(1, -1)) on real l_2 is 2^(1/p), attained at e_1 and e_2."""

    T2 = (np.eye(2), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("p", [2.0, 10.0, 80.0])
    def test_ascent_reaches_the_peak(self, p):
        value = radius_smooth(OperatorTuple(self.T2, p=p), hilbert(2, REAL), starts=8).value
        assert value == pytest.approx(2 ** (1 / p), rel=1e-12)

    # At p = 1e3 the ascent returns 1.000000000285 and at p = 1e6
    # 1.0000000000000002: the objective is about 1 away from e_1 and e_2,
    # and no start climbs the narrow peaks there.
    @pytest.mark.xfail(strict=True, reason="the ascent misses the narrow peaks of a large p")
    @pytest.mark.parametrize("p", [1e3, 1e6])
    def test_ascent_misses_the_peak_at_large_p(self, p):
        value = radius_smooth(OperatorTuple(self.T2, p=p), hilbert(2, REAL), starts=8).value
        assert value == pytest.approx(2 ** (1 / p), rel=1e-12)


class TestAttainTolRange:
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, 1.0, 2.0, math.nan, math.inf])
    def test_exact_rejects(self, tol):
        with pytest.raises(ValueError, match="attaining tolerance"):
            radius_exact(single(np.diag([1.0, -1.0])), linf(2), attain_tol=tol)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, 1.0, 2.0, math.nan, math.inf])
    def test_smooth_rejects(self, tol):
        with pytest.raises(ValueError, match="attaining tolerance"):
            radius_smooth(single(np.diag([1.0, -1.0])), hilbert(2, REAL), starts=2, attain_tol=tol)

    @pytest.mark.parametrize("tol", [-1.0, 1.0, math.nan])
    def test_rejected_before_any_solve(self, monkeypatch, tol):
        def solve(*args, **kwargs):
            raise AssertionError("the solve ran before the tolerance check")

        monkeypatch.setattr(sys.modules["jointradius.radius"], "_ascend", solve)
        monkeypatch.setattr(sys.modules["jointradius.radius"], "_ascend_all", solve)
        monkeypatch.setattr(sys.modules["jointradius.radius"], "aggregate", solve)
        T = single(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="attaining tolerance"):
            radius_exact(T, linf(2), attain_tol=tol)
        with pytest.raises(ValueError, match="attaining tolerance"):
            radius_smooth(T, hilbert(2, REAL), starts=2, attain_tol=tol)

    @pytest.mark.parametrize("tol", [0.0, 0.5, 1.0 - 2**-53])
    def test_both_accept_the_closed_open_range(self, tol):
        T = single(np.diag([1.0, -1.0]))
        assert radius_exact(T, linf(2), attain_tol=tol).value == 1.0
        assert radius_smooth(T, hilbert(2, REAL), starts=2, attain_tol=tol).value == pytest.approx(1.0)


def _reference_dedup(pairs, field):
    """The pairwise orbit test orbit_dedup replaced: one candidate, one founder."""

    def same_orbit(rep, cand):
        k = int(np.argmax(np.abs(rep.x)))
        a, b = rep.x[k], cand.x[k]
        if abs(b) < 1e-300:
            return False
        if field == COMPLEX:
            mu = b * np.conj(a)
            mod = abs(mu)
            if mod < 1e-300:
                return False
            mu = mu / mod
        else:
            mu = 1.0 if float(a) * float(b) >= 0 else -1.0
        return (
            np.linalg.norm(mu * rep.x - cand.x) <= ORBIT_TOL
            and np.linalg.norm(mu * rep.x_star - cand.x_star) <= ORBIT_TOL
        )

    reps = []
    for cand in pairs:
        if not any(same_orbit(rep, cand) for rep in reps):
            reps.append(cand)
    return reps


def _assert_same_founders(pairs, field):
    """orbit_dedup's founders are the reference's; real pairs are compared
    under both the sign rule and the complex phase rule."""
    got = orbit_dedup(pairs)
    for rule in (REAL, COMPLEX) if field == REAL else (COMPLEX,):
        assert [id(pr) for pr in got] == [id(pr) for pr in _reference_dedup(pairs, rule)]
    return got


def _signed_pairs(n, rng):
    """Admissible pairs of real l_inf(n) (sign vector s, unit s_k e_k), shuffled."""
    pairs = admissible_pairs(linf(n))
    return [pairs[i] for i in rng.permutation(len(pairs))]


class TestOrbitDedupAgainstPairwise:
    @pytest.mark.parametrize("space", [linf(4), l1(4), linf(6), l1(6)], ids=["linf4", "l1_4", "linf6", "l1_6"])
    def test_admissible_pairs(self, space):
        pairs = admissible_pairs(space)
        assert len(_assert_same_founders(pairs, REAL)) == len(pairs) // 2

    @pytest.mark.parametrize("n", [6, 8])
    def test_identity_on_linf(self, n):
        # every pair attains; the pairwise reference keeps the pairs whose sign
        # vector starts with +1, the first half in product order (it runs
        # about 10 s at n = 8, so it is compared at n = 6 only)
        sp = linf(n)
        rr = radius_exact(single(np.eye(n)), sp)
        pairs = admissible_pairs(sp)
        reps = [o.representative for o in rr.attaining.orbits]
        assert len(reps) == len(pairs) // 2 == n * 2 ** (n - 1)
        want = pairs[: len(pairs) // 2]
        assert all(pr.x[0] == 1.0 for pr in want)
        for got, pr in zip(reps, want):
            np.testing.assert_array_equal(got.x, pr.x)
            np.testing.assert_array_equal(got.x_star, pr.x_star)
        if n == 6:
            assert [id(pr) for pr in _reference_dedup(pairs, REAL)] == [
                id(pr) for pr in want
            ]

    def test_index_founders_on_extreme_spaces(self, rng):
        # the pair-by-pair reference is quadratic in Python, so tables above 100
        # pairs are compared with the all-pairs list path, up to 1,000 pairs
        for sp in extreme_spaces(rng):
            pairs = admissible_pairs(sp)
            for sub in (pairs, pairs.at(rng.permutation(len(pairs))), pairs.at(rng.permutation(len(pairs))[::3])):
                if len(sub) <= 100:
                    _assert_same_founders(sub, REAL)
                elif len(sub) <= 1000:
                    assert [id(pr) for pr in orbit_dedup(sub)] == [id(pr) for pr in orbit_dedup(list(sub))]

    def test_exact_path_never_tests_mates(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact path ran the tolerance test")

        monkeypatch.setattr(sys.modules["jointradius.radius"], "_mates", refuse)
        rr = radius_exact(single(np.eye(6)), linf(6))
        assert rr.value == 1.0 and len(rr.attaining.orbits) == 6 * 2**5

    def test_shuffled_signed_pairs(self, rng):
        _assert_same_founders(_signed_pairs(5, rng), REAL)

    def test_polygon_pairs(self, rng):
        for _ in range(3):
            _assert_same_founders(admissible_pairs(random_polygon_space(rng, vertices=5)), REAL)

    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_complex_pairs_under_random_phases(self, rng, r):
        base = sample_pairs(lr(3, r, COMPLEX), 6, seed=4)
        pairs = []
        for pr in base:
            for theta in rng.uniform(0.0, 2.0 * np.pi, size=3):
                mu = np.exp(1j * theta)
                pairs.append(NormingPair(mu * pr.x, mu * pr.x_star))
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        assert len(_assert_same_founders(pairs, COMPLEX)) == len(base)

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_complex_pairs_under_many_phases(self, rng, r):
        base = sample_pairs(lr(4, r, COMPLEX), 25, seed=7)
        mus = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(len(base), 12)))
        pairs = [NormingPair(mu * pr.x, mu * pr.x_star) for pr, row in zip(base, mus) for mu in row]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        assert len(_assert_same_founders(pairs, COMPLEX)) == len(base)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_displaced_mates(self, rng, field):
        pr = sample_pairs(lr(3, 2.0, field), 1, seed=2)[0]
        mu = -1.0 if field == REAL else np.exp(0.7j)
        direction = rng.standard_normal(3)
        direction[np.argmax(np.abs(pr.x))] = 0.0  # keep the phase-fixing coordinate
        direction /= np.linalg.norm(direction)
        near = NormingPair(mu * pr.x + 0.5 * ORBIT_TOL * direction, mu * pr.x_star)
        far = NormingPair(mu * pr.x + 2.0 * ORBIT_TOL * direction, mu * pr.x_star)
        assert len(_assert_same_founders([pr, near], field)) == 1
        assert len(_assert_same_founders([pr, far], field)) == 2
        assert len(_assert_same_founders([pr, far, near], field)) == 2

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("side", ["x", "x_star"])
    def test_mates_displaced_along_every_coordinate(self, field, side):
        n = 4
        pr = sample_pairs(lr(n, 3.0, field), 1, seed=3)[0]
        k = int(np.argmax(np.abs(pr.x)))
        mu = -1.0 if field == REAL else np.exp(-1.1j)
        pairs = [pr]
        for j in range(n):
            if side == "x" and j == k:
                continue  # moving the phase-fixing coordinate also moves mu
            for factor in (0.5, 2.0):
                shift = factor * ORBIT_TOL * np.eye(n)[j]
                x, xs = mu * pr.x, mu * pr.x_star
                pairs.append(NormingPair(x + shift, xs) if side == "x" else NormingPair(x, xs + shift))
        got = _assert_same_founders(pairs, field)
        # every 2 tol displacement starts an orbit of its own, every 0.5 tol one joins pr
        assert len(got) == 1 + (len(pairs) - 1) // 2

    def test_every_key_collides(self, rng):
        # on complex l_2(4), x = x*: 40 distinct orbits in the span of two
        # orthonormal vectors, 3 phases each, all tested against each other
        u = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        psis = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
        pairs = []
        for psi in psis:
            x = 0.6 * u[0] + 0.8 * np.exp(1j * psi) * u[1]
            for theta in rng.uniform(0.0, 2.0 * np.pi, size=3):
                pairs.append(NormingPair(np.exp(1j * theta) * x, np.exp(1j * theta) * x))
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        assert len(_assert_same_founders(pairs, COMPLEX)) == len(psis)

    def test_empty(self):
        assert orbit_dedup([]) == []


class TestOrbitDedup:
    def test_negation_merged(self):
        e1 = np.array([1.0, 0.0])
        pairs = [NormingPair(e1, e1), NormingPair(-e1, -e1)]
        assert len(orbit_dedup(pairs)) == 1

    def test_complex_phase_merged(self):
        e1 = np.array([1.0 + 0j, 0.0])
        pairs = [NormingPair(e1, e1), NormingPair(1j * e1, 1j * e1)]
        assert len(orbit_dedup(pairs)) == 1

    def test_distinct_kept(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        pairs = [NormingPair(e1, e1), NormingPair(e2, e2)]
        assert len(orbit_dedup(pairs)) == 2

    def test_founder_order_deterministic(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        out = orbit_dedup([NormingPair(e2, e2), NormingPair(e1, e1)])
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

    @pytest.mark.parametrize("space", [linf(2), hilbert(2, REAL)], ids=["exact", "smooth"])
    @pytest.mark.parametrize("starts, seed, match", [(0, 0, "starts"), (-3, 0, "starts"), (4, -1, "seed")])
    def test_dispatch_rejects_bad_starts_and_seed(self, space, starts, seed, match):
        # the exact method ignores starts and seed, but radius() checks them for both
        with pytest.raises(ValueError, match=match):
            radius(single(np.eye(2)), space, starts=starts, seed=seed)

    @pytest.mark.parametrize("space", [linf(2), hilbert(2, REAL)], ids=["exact", "smooth"])
    @pytest.mark.parametrize(
        "starts, seed, match",
        [(2.5, 0, "starts"), (2.0, 0, "starts"), (True, 0, "starts"), (4, 1.0, "seed"), (4, False, "seed"), (4, "1", "seed")],
    )
    def test_dispatch_rejects_non_integral_starts_and_seed(self, space, starts, seed, match):
        # integers only: Python counts a bool as an int, and a float count has no meaning
        with pytest.raises(ValueError, match=f"{match} must be an integer"):
            radius(single(np.eye(2)), space, starts=starts, seed=seed)

    @pytest.mark.parametrize("space", [linf(2), hilbert(2, REAL)], ids=["exact", "smooth"])
    def test_dispatch_accepts_numpy_integers(self, space):
        rr = radius(single(np.eye(2)), space, starts=np.int64(2), seed=np.uint8(3))
        assert rr.value == pytest.approx(1.0)
