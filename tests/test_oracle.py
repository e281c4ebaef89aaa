import dataclasses

import numpy as np
import pytest

import jointradius.oracle
import jointradius.subdiff

from jointradius import (
    COMPLEX,
    REAL,
    DimensionMismatch,
    OperatorTuple,
    audit,
    fd_gateaux,
    generators,
    lambda_sweep,
    radius,
    radius_exact,
    radius_smooth,
    random_tuple,
    sampled_radius,
)
from jointradius.oracle import MINUS, PLUS, _batch_unit_vectors
from conftest import hilbert, linf, lr, single


class TestSampledRadius:
    @pytest.mark.parametrize("space", [hilbert(2, REAL), linf(2)], ids=["l2", "linf"])
    def test_rejects_a_dimension_mismatch(self, space):
        with pytest.raises(DimensionMismatch, match="space dimension 2 does not match operator dimension 3"):
            sampled_radius(single(np.eye(3)), space)

    def test_never_exceeds_exact(self, rng):
        sp = linf(2)
        for _ in range(10):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            exact = radius_exact(T, sp).value
            assert sampled_radius(T, sp, samples=5000, seed=3) <= exact + 1e-12

    def test_approaches_exact(self, rng):
        sp = linf(2)
        T = random_tuple(2, 2, REAL, 2.0, rng)
        exact = radius_exact(T, sp).value
        assert exact - sampled_radius(T, sp, samples=50_000, seed=0) <= 5e-2 * exact

    def test_deterministic(self):
        T = single(np.diag([1.0, 0.3]))
        sp = hilbert(2, REAL)
        assert sampled_radius(T, sp, samples=2000, seed=5) == sampled_radius(
            T, sp, samples=2000, seed=5
        )

    def test_complex_hilbert(self):
        sp = hilbert(2)
        T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
        sr = sampled_radius(T, sp, samples=20_000, seed=1)
        assert sr <= 1.0 + 1e-12
        assert sr >= 0.95

    @pytest.mark.parametrize("c", [1e150, 1e-150])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_homogeneous_at_extreme_scales(self, rng, c, field):
        # at p = 80 the unscaled |z_i|^p over- or underflows at these scales
        sp = lr(3, 3.0, field)
        T = random_tuple(2, 3, field, 80.0, rng)
        unit = sampled_radius(T, sp, samples=2000, seed=5)
        assert unit > 0
        assert sampled_radius(T.scaled(c), sp, samples=2000, seed=5) / c == pytest.approx(
            unit, rel=1e-12
        )

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sampled_radius(single(np.eye(2)), hilbert(2, REAL), samples=0)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("r", [1e3, 1e4])
    def test_unit_vectors_at_large_r(self, field, r):
        # |X_i|^r of a Gaussian sample overflows for r >= about 1e3 unless
        # the row is divided by its max |X_i| first
        X = _batch_unit_vectors(lr(3, r, field), 500, np.random.default_rng(0))
        assert X.shape == (500, 3)
        m = np.max(np.abs(X), axis=1)
        np.testing.assert_allclose(m * np.linalg.norm(np.abs(X) / m[:, None], ord=r, axis=1), 1.0, rtol=1e-12)


class TestFdGateaux:
    def test_at_zero_tuple_gives_direction_radius(self):
        sp = linf(2)
        Z = single(np.zeros((2, 2)))
        S = single(np.diag([1.0, 0.0]))
        assert fd_gateaux(Z, S, sp, t=1e-4) == pytest.approx(1.0, abs=1e-9)

    def test_plus_minus_split_at_kink(self):
        # diag(1,-1) toward the identity: fd sees +1 on the right and -1
        # on the left of the kink
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        S = single(np.eye(2))
        assert fd_gateaux(T, S, sp, t=1e-5, side=PLUS) == pytest.approx(1.0, abs=1e-4)
        assert fd_gateaux(T, S, sp, t=1e-5, side=MINUS) == pytest.approx(-1.0, abs=1e-4)

    def test_step_validation(self):
        sp = linf(2)
        T = single(np.eye(2))
        with pytest.raises(ValueError):
            fd_gateaux(T, T, sp, t=0.0)
        with pytest.raises(ValueError):
            fd_gateaux(T, T, sp, t=0.5)


class TestLambdaSweep:
    def test_zero_always_on_grid(self, rng):
        sp = linf(2)
        T = random_tuple(2, 2, REAL, 2.0, rng)
        S = random_tuple(2, 2, REAL, 2.0, rng)
        sweep = lambda_sweep(T, S, sp, directions=4, seed=0)
        assert sweep.min_value <= sweep.value_at_zero

    def test_finds_cancellation(self):
        # T + lambda.S with S = T and lambda = -1 collapses the radius
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        sweep = lambda_sweep(T, T, sp, directions=2, radii=[0.5, 1.0], seed=0)
        assert sweep.min_value == pytest.approx(0.0, abs=1e-12)
        assert sweep.argmin[0] == pytest.approx(-1.0)


class TestRandomTuple:
    def test_shapes_and_field(self, rng):
        T = random_tuple(3, 4, COMPLEX, 2.5, rng)
        assert (T.d, T.n, T.p, T.field) == (3, 4, 2.5, COMPLEX)
        R = random_tuple(2, 2, REAL, 2.0, rng)
        assert not np.iscomplexobj(R.matrices[0])


class TestAudit:
    def test_exact_case_passes(self, rng):
        sp = linf(2)
        T = random_tuple(2, 2, REAL, 2.0, rng)
        rr = radius_exact(T, sp)
        gens = generators(T, sp, rr)
        report = audit(T, sp, rr, gens, seed=0, trials=5)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "sampled_radius_dominated" in names
        assert "generator_norm_one" in names

    def test_smooth_case_passes(self, rng):
        sp = lr(2, 4.0)
        T = random_tuple(2, 2, REAL, 3.0, rng)
        rr = radius_smooth(T, sp, starts=32, seed=0)
        gens = generators(T, sp, rr)
        assert audit(T, sp, rr, gens, seed=0, trials=5).passed

    def test_zero_tuple_positivity_not_flagged(self):
        sp = linf(2)
        T = single(np.zeros((2, 2)))
        rr = radius_exact(T, sp)
        report = audit(T, sp, rr, [], seed=0)
        assert report.passed

    def test_rejects_no_trials(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.5]))
        rr = radius_exact(T, sp)
        with pytest.raises(ValueError, match="trials"):
            audit(T, sp, rr, generators(T, sp, rr), trials=0)

    def test_each_trial_is_solved_once(self, monkeypatch):
        # identity on real l_inf(3) attains on 12 orbits; their generators share the trials
        sp = linf(3)
        T = single(np.eye(3))
        rr = radius_exact(T, sp)
        gens = generators(T, sp, rr)
        assert len(gens) == 12
        solved = []
        original = jointradius.oracle.radius

        def recording(*args, **kwargs):
            solved.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(jointradius.oracle, "radius", recording)
        assert audit(T, sp, rr, gens, seed=0, trials=5, samples=500).passed
        assert len(solved) == 5


    @pytest.mark.parametrize("sp", [linf(3), hilbert(2)], ids=["linf", "complex-l2"])
    def test_independent_of_subdiff_evaluation(self, monkeypatch, sp):
        # the audit computes generator values itself, so a broken subdiff
        # formula cannot pass its own audit
        field = REAL if sp.field == REAL else COMPLEX
        T = random_tuple(2, sp.dim, field, 2.5, np.random.default_rng(3))
        rr = radius(T, sp, starts=8, seed=0)
        gens = generators(T, sp, rr)
        kwargs = dict(seed=0, trials=4, starts=8, samples=500)
        want = audit(T, sp, rr, gens, **kwargs)

        def broken(*args, **kwargs):
            raise AssertionError("audit called the subdiff module")

        monkeypatch.setattr(jointradius.subdiff, "apply", broken)
        monkeypatch.setattr(jointradius.subdiff, "evaluate", broken)
        assert audit(T, sp, rr, gens, **kwargs) == want
        assert want.passed


class TestAuditScale:
    @pytest.mark.parametrize("c", [1.0, 1e150, 1e-150])
    @pytest.mark.parametrize("sp", [lr(3, 2.0), linf(3)], ids=["l2", "linf"])
    def test_correct_passes_and_doubled_alpha_fails(self, sp, c):
        T = random_tuple(2, 3, REAL, 3.0, np.random.default_rng(5)).scaled(c)
        rr = radius(T, sp, starts=8, seed=0)
        gens = generators(T, sp, rr)
        kwargs = dict(seed=0, trials=5, starts=8, samples=2000)
        report = audit(T, sp, rr, gens, **kwargs)
        assert report.passed
        bounds = {ch.name: ch.bound for ch in report.checks}
        assert bounds["sampled_radius_dominated"] == 1e-12 * rr.value
        assert bounds["generator_attains"] == 1e-9 * rr.value
        doubled = [dataclasses.replace(g, alpha=2 * g.alpha) for g in gens]
        failed = {ch.name for ch in audit(T, sp, rr, doubled, **kwargs).checks if ch.status == "fail"}
        assert {"generator_attains", "generator_norm_one"} <= failed
