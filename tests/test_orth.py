import numpy as np
import pytest

from jointradius import (
    COMPLEX,
    REAL,
    DependentDirection,
    DimensionMismatch,
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
from jointradius.lp import HullProblem, hull_membership
from jointradius.orth import _decide, _points
from jointradius.subdiff import _table, evaluate
from conftest import hilbert, l1, linf, random_polygon_space, single


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

    @pytest.mark.parametrize("d, p", [(1, 2.0), (3, 2.0), (2, 3.0)], ids=["fewer", "more", "other-p"])
    def test_incompatible_direction(self, d, p):
        # T and S of _setup are single operators: widen T to two so that d = 1 is a mismatch too
        sp = linf(2)
        T = OperatorTuple((np.diag([1.0, -1.0]), np.eye(2)))
        S = OperatorTuple((np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)[::-1]))
        rr = radius_exact(T, sp)
        cert = orth_scalar(T, S, sp, rr).certificate
        bad = OperatorTuple((np.eye(2),) * d, p=p)
        for direction in (bad, TupleSubspace((bad,))):
            with pytest.raises(DimensionMismatch):
                verify_certificate(cert, T, direction, sp, rr)

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


class TestOnePassRows:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_equal_the_slot_family(self, rng, field, d):
        # reference: evaluate over the d tuples (0, ..., S_i, ..., 0) of S's scaling family
        signed = (np.diag([1.0, -1.0, 1.0]), np.eye(3)[[2, 0, 1]] * np.array([1.0, -1.0, -1.0]))
        many = OperatorTuple((np.eye(3),) + signed[: d - 1], p=3.0, field=field)
        sp = linf(3) if field == REAL else hilbert(3)
        for T in (many, random_tuple(d, 3, field, 3.0, rng), random_tuple(d, 3, field, 3.0, rng)):
            rr = radius_exact(T, sp) if field == REAL else radius_smooth(T, sp, starts=4, seed=0)
            S = random_tuple(d, 3, field, 3.0, rng)
            slots = np.eye(d)[:, :, None, None] * S.matrices
            rows = evaluate(_table(T, rr), [OperatorTuple(M, p=S.p, field=field) for M in slots])
            want = np.hstack([rows.real, rows.imag]) if field == COMPLEX else rows
            got = _points(T, S, rr)
            assert got.flags.c_contiguous
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestOneOrbitRule:
    """One constraint row decides by itself: zero is in its hull iff the row vanishes."""

    @pytest.fixture(autouse=True)
    def no_lp(self, monkeypatch):
        def refuse(prob):
            raise AssertionError("hull_membership was called")

        monkeypatch.setattr("jointradius.orth.hull_membership", refuse)

    @pytest.fixture
    def rr(self):
        return radius_exact(single(np.diag([1.0, 0.0])), linf(2))

    @pytest.mark.parametrize(
        "row", [[0.3, -2.0], [-7e-6], [0.0, 0.0, 5e-3, -1e-9]], ids=["real", "one-slot", "complex-re-im"]
    )
    def test_nonzero_row_is_not_orthogonal(self, rr, row):
        points = np.array([row])
        res = _decide(points, rr, 1.0)
        assert not res.orthogonal
        assert res.certificate is None
        assert res.approximate == (not rr.exhaustive)
        scaled = HullProblem(points=points / np.max(np.abs(points)), target=np.zeros(points.shape[1]))
        assert hull_membership(scaled).feasible == res.orthogonal

    @pytest.mark.parametrize("points", [[[1e-12, -3e-12]], [[0.0, 0.0, 0.0]], np.zeros((3, 2))])
    def test_vanishing_rows_are_orthogonal(self, rr, points):
        res = _decide(np.array(points), rr, 1.0)
        assert res.orthogonal
        assert res.certificate.weights == ((0, 1.0),)
        assert res.certificate.residual == float(np.max(np.abs(np.array(points)[0])))

    def test_pipeline_at_one_orbit(self, rng):
        sp = linf(3)
        T = random_tuple(2, 3, REAL, 2.0, rng)
        rr = radius_exact(T, sp)
        assert len(rr.attaining.orbits) == 1
        S = random_tuple(2, 3, REAL, 2.0, rng)
        assert not orth_scalar(T, S, sp, rr).orthogonal
        assert not orth_subspace(T, TupleSubspace((S,)), sp, rr).orthogonal
        assert orth_scalar(T, _vanishing(T, rr, S), sp, rr).orthogonal


def _vanishing(T, rr, S):
    """S_i - x*(S_i x) (x x*): a direction on which the generator of T's one orbit vanishes."""
    (orb,) = rr.attaining.orbits
    x, xs = orb.representative.x, orb.representative.x_star
    base = np.outer(x, np.conj(xs))
    return OperatorTuple([M - (np.conj(xs) @ M @ x) * base for M in S.matrices], p=S.p, field=S.field)


class TestScaleInvariance:
    """Verdicts of orth_scalar and orth_subspace do not move when the directions are scaled."""

    @staticmethod
    def _verdicts(T, sp, rr, directions):
        out = []
        for c in (1.0, -1.0, 1e-150, 1e150):
            verdicts = []
            for D in directions:
                if isinstance(D, TupleSubspace):
                    D = TupleSubspace(tuple(B.scaled(c) for B in D.basis))
                    res = orth_subspace(T, D, sp, rr)
                else:
                    D = D.scaled(c)
                    res = orth_scalar(T, D, sp, rr)
                if res.orthogonal:
                    assert verify_certificate(res.certificate, T, D, sp, rr) == res.certificate.residual
                verdicts.append(res.orthogonal)
            out.append(verdicts)
        assert out[1:] == [out[0]] * 3
        return out[0]

    @pytest.mark.parametrize("space", ["l1", "linf", "polygon"])
    def test_real_spaces(self, rng, space):
        sp = random_polygon_space(rng, 5) if space == "polygon" else {"l1": l1, "linf": linf}[space](3)
        n = sp.dim
        eye, zero = np.eye(n), np.zeros((n, n))
        many = OperatorTuple((eye, np.diag([1.0, -1.0, 1.0][:n]) if n == 3 else -eye))
        one = random_tuple(2, n, REAL, 2.0, rng)
        S, S2 = random_tuple(2, n, REAL, 2.0, rng), random_tuple(2, n, REAL, 2.0, rng)
        rr = radius_exact(one, sp)
        assert len(rr.attaining.orbits) == 1
        Z, Z2 = _vanishing(one, rr, S), _vanishing(one, rr, S2)
        found = self._verdicts(one, sp, rr, [S, Z, TupleSubspace((S, S2)), TupleSubspace((Z, Z2))])
        assert found == [False, True, False, True]
        rr = radius_exact(many, sp)
        assert len(rr.attaining.orbits) > 1
        toward_eye = OperatorTuple((eye, zero))
        directions = [S, toward_eye, TupleSubspace((S, S2)), TupleSubspace((toward_eye,))]
        found = self._verdicts(many, sp, rr, directions)
        assert found[1:] == [False, True, False]

    def test_complex_hilbert(self):
        sp = hilbert(2)
        T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
        rr = radius_smooth(T, sp, starts=24, seed=0)
        off = single(np.array([[0.0, 1.0], [0.0, 0.0]]), field=COMPLEX)
        bad = single(np.eye(2), field=COMPLEX)
        found = self._verdicts(T, sp, rr, [off, bad, TupleSubspace((off,)), TupleSubspace((off, bad))])
        assert found == [True, False, True, False]
