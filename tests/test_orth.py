import numpy as np
import pytest

from jointradius import (
    COMPLEX,
    REAL,
    DependentDirection,
    InvalidCertificate,
    OperatorTuple,
    TupleSubspace,
    ZeroRadius,
    lambda_sweep,
    orth_scalar,
    orth_subspace,
    radius_exact,
    radius_smooth,
    random_tuple,
    verify_certificate,
)
from conftest import hilbert, linf, single


class TestOrthScalar:
    def test_signature_vs_identity(self):
        # diag(1,-1) against the identity: attaining orbits contribute
        # constraint values of both signs, so zero is in their hull
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        rr = radius_exact(T, sp)
        res = orth_scalar(T, single(np.eye(2)), sp, rr)
        assert res.orthogonal
        assert not res.approximate
        assert res.certificate.residual <= 1e-12
        assert verify_certificate(res.certificate, T, single(np.eye(2)), sp, rr) <= 1e-12

    def test_diag_vs_identity_not_orthogonal(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        res = orth_scalar(T, single(np.eye(2)), sp, radius_exact(T, sp))
        assert not res.orthogonal
        assert res.certificate is None

    def test_zero_direction_trivially_orthogonal(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        res = orth_scalar(T, single(np.zeros((2, 2))), sp, radius_exact(T, sp))
        assert res.orthogonal
        assert res.certificate.residual == 0.0

    def test_self_direction_rejected(self):
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        with pytest.raises(DependentDirection):
            orth_scalar(T, T, sp, radius_exact(T, sp))

    def test_scaled_self_rejected(self):
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        with pytest.raises(DependentDirection):
            orth_scalar(T, T.scaled(-3.0), sp, radius_exact(T, sp))

    def test_homogeneous_in_direction(self, rng):
        sp = linf(2)
        for _ in range(10):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            S = random_tuple(2, 2, REAL, 2.0, rng)
            rr = radius_exact(T, sp)
            assert (
                orth_scalar(T, S, sp, rr).orthogonal
                == orth_scalar(T, S.scaled(2.5), sp, rr).orthogonal
            )

    def test_zero_radius_rejected(self):
        sp = hilbert(2, REAL)
        T = single([[0.0, 1.0], [-1.0, 0.0]])
        rr = radius_smooth(T, sp, starts=8, seed=0)
        with pytest.raises(ZeroRadius):
            orth_scalar(T, single(np.eye(2)), sp, rr)

    def test_complex_smooth_point(self):
        sp = hilbert(2)
        T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
        rr = radius_smooth(T, sp, starts=24, seed=0)
        off = single(np.array([[0.0, 1.0], [0.0, 0.0]]), field=COMPLEX)
        res = orth_scalar(T, off, sp, rr)
        assert res.orthogonal
        assert res.approximate
        bad = single(np.eye(2), field=COMPLEX)
        assert not orth_scalar(T, bad, sp, rr).orthogonal

    def test_complex_scaling_family_rejected(self):
        sp = hilbert(2)
        T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
        rr = radius_smooth(T, sp, starts=8, seed=0)
        with pytest.raises(DependentDirection):
            orth_scalar(T, T.scaled(-1j), sp, rr)


class TestSweepConsistency:
    def test_orthogonal_direction_is_local_min(self):
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        S = single(np.eye(2))
        rr = radius_exact(T, sp)
        assert orth_scalar(T, S, sp, rr).orthogonal
        sweep = lambda_sweep(T, S, sp, directions=4, seed=0)
        assert sweep.min_value >= rr.value - 1e-9

    def test_nonorthogonal_direction_admits_decrease(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        S = single(np.eye(2))
        rr = radius_exact(T, sp)
        assert not orth_scalar(T, S, sp, rr).orthogonal
        sweep = lambda_sweep(T, S, sp, directions=4, seed=0)
        assert sweep.min_value < rr.value - 1e-6

    def test_random_agreement(self, rng):
        # exhaustive verdicts must match the sweep on both sides
        sp = linf(2)
        for _ in range(8):
            T = random_tuple(2, 2, REAL, 2.0, rng)
            S = random_tuple(2, 2, REAL, 2.0, rng)
            rr = radius_exact(T, sp)
            verdict = orth_scalar(T, S, sp, rr).orthogonal
            sweep = lambda_sweep(T, S, sp, directions=6, seed=1)
            if verdict:
                assert sweep.min_value >= rr.value - 1e-9
            else:
                assert sweep.min_value < rr.value - 1e-12


class TestOrthSubspace:
    def test_identity_span(self):
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        rr = radius_exact(T, sp)
        V = TupleSubspace((single(np.eye(2)),))
        res = orth_subspace(T, V, sp, rr)
        assert res.orthogonal
        assert verify_certificate(res.certificate, T, V, sp, rr) <= 1e-12

    def test_two_dimensional_basis(self):
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        rr = radius_exact(T, sp)
        V = TupleSubspace((single(np.eye(2)), single([[0.0, 1.0], [1.0, 0.0]])))
        assert not orth_subspace(T, V, sp, rr).orthogonal

    def test_member_of_span_rejected(self):
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        rr = radius_exact(T, sp)
        V = TupleSubspace((single(np.diag([1.0, 0.0])), single(np.diag([0.0, 1.0]))))
        with pytest.raises(DependentDirection):
            orth_subspace(T, V, sp, rr)

    def test_empty_basis_rejected(self):
        from jointradius import EmptyBasis

        with pytest.raises(EmptyBasis):
            TupleSubspace(())

    def test_scalar_special_case_agrees(self, rng):
        # a single-operator tuple: the one-basis subspace LP and the
        # scalar-family LP see the same constraint geometry
        sp = linf(2)
        for _ in range(10):
            T = random_tuple(1, 2, REAL, 2.0, rng)
            S = random_tuple(1, 2, REAL, 2.0, rng)
            rr = radius_exact(T, sp)
            try:
                a = orth_scalar(T, S, sp, rr).orthogonal
            except DependentDirection:
                continue
            b = orth_subspace(T, TupleSubspace((S,)), sp, rr).orthogonal
            assert a == b


class TestVerifyCertificate:
    def _setup(self):
        sp = linf(2)
        T = single(np.diag([1.0, -1.0]))
        S = single(np.eye(2))
        rr = radius_exact(T, sp)
        res = orth_scalar(T, S, sp, rr)
        return sp, T, S, rr, res.certificate

    def test_bad_weight_sum(self):
        sp, T, S, rr, cert = self._setup()
        from jointradius import OrthCertificate

        scaled = OrthCertificate(
            weights=tuple((j, 0.9 * t) for j, t in cert.weights), residual=cert.residual
        )
        with pytest.raises(InvalidCertificate):
            verify_certificate(scaled, T, S, sp, rr)

    def test_nan_weight(self):
        sp, T, S, rr, cert = self._setup()
        from jointradius import OrthCertificate

        bad = OrthCertificate(weights=((0, float("nan")),), residual=0.0)
        with pytest.raises(InvalidCertificate):
            verify_certificate(bad, T, S, sp, rr)

    def test_nonpositive_weight(self):
        sp, T, S, rr, cert = self._setup()
        from jointradius import OrthCertificate

        bad = OrthCertificate(weights=((0, 1.5), (1, -0.5)), residual=0.0)
        with pytest.raises(InvalidCertificate):
            verify_certificate(bad, T, S, sp, rr)

    def test_stale_index(self):
        sp, T, S, rr, cert = self._setup()
        from jointradius import OrthCertificate

        bad = OrthCertificate(weights=((99, 1.0),), residual=0.0)
        with pytest.raises(InvalidCertificate):
            verify_certificate(bad, T, S, sp, rr)

    @pytest.mark.parametrize("index", [0.5, True, np.True_], ids=["float", "bool", "numpy-bool"])
    def test_non_integer_index(self, index):
        sp, T, S, rr, cert = self._setup()
        from jointradius import OrthCertificate

        bad = OrthCertificate(weights=((index, 1.0),), residual=0.0)
        with pytest.raises(InvalidCertificate):
            verify_certificate(bad, T, S, sp, rr)

    def test_numpy_integer_index(self):
        sp, T, S, rr, cert = self._setup()
        from jointradius import OrthCertificate

        as_numpy = OrthCertificate(
            weights=tuple((np.int64(j), t) for j, t in cert.weights), residual=cert.residual
        )
        assert verify_certificate(as_numpy, T, S, sp, rr) == cert.residual

    def test_residual_recomputed(self):
        sp, T, S, rr, cert = self._setup()
        assert verify_certificate(cert, T, S, sp, rr) == cert.residual

    def test_residual_recomputed_complex(self):
        # 16 orbits; the residual is the max over the [Re | Im] coordinates
        sp = hilbert(2)
        T = single(np.eye(2), field=COMPLEX)
        S = single(np.array([[0.0, 1.0], [0.0, 0.0]]), field=COMPLEX)
        rr = radius_smooth(T, sp, starts=16, seed=0)
        cert = orth_scalar(T, S, sp, rr).certificate
        assert cert.residual > 0
        assert verify_certificate(cert, T, S, sp, rr) == cert.residual

    def test_vanishing_rows_residual_is_row_zero(self):
        # rows +-1e-12 and +-3e-12 vanish at the data's scale: weight 1 on row 0,
        # residual |row 0|, not the largest row
        sp = linf(2)
        T = single(np.diag([1.0, 0.0]))
        S = single(np.array([[1e-12, -2e-12], [0.0, 1.0]]))
        rr = radius_exact(T, sp)
        res = orth_scalar(T, S, sp, rr)
        assert res.certificate.weights == ((0, 1.0),)
        assert res.certificate.residual == pytest.approx(1e-12, rel=1e-9, abs=0)
        assert verify_certificate(res.certificate, T, S, sp, rr) == res.certificate.residual


class TestGeneratorTable:
    def test_builds_no_generator_objects(self, monkeypatch):
        # 32 attaining orbits; the rows come from the generator table alone
        perm = np.eye(4)[[2, 0, 3, 1]] * np.array([1.0, -1.0, -1.0, 1.0])
        T = OperatorTuple((perm, np.diag([1.0, -1.0, 1.0, 1.0])), p=3.0)
        S = OperatorTuple((np.eye(4), np.eye(4)), p=3.0)
        V = TupleSubspace((S, OperatorTuple((perm.T, np.eye(4)), p=3.0)))
        sp = linf(4)
        rr = radius_exact(T, sp)
        assert len(rr.attaining.orbits) == 32
        scalar, subspace = orth_scalar(T, S, sp, rr), orth_subspace(T, V, sp, rr)
        assert scalar.orthogonal and subspace.orthogonal
        checks = (
            verify_certificate(scalar.certificate, T, S, sp, rr),
            verify_certificate(subspace.certificate, T, V, sp, rr),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a SubdiffGenerator was built")

        monkeypatch.setattr("jointradius.subdiff.SubdiffGenerator", refuse)
        assert orth_scalar(T, S, sp, rr) == scalar
        assert orth_subspace(T, V, sp, rr) == subspace
        assert verify_certificate(scalar.certificate, T, S, sp, rr) == checks[0]
        assert verify_certificate(subspace.certificate, T, V, sp, rr) == checks[1]
