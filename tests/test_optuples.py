import math
import warnings

import numpy as np
import pytest

from jointradius import (
    COMPLEX,
    REAL,
    CoefficientVector,
    DimensionMismatch,
    InvalidDescriptor,
    NormingPair,
    OperatorTuple,
    aggregate,
    pair_image,
    radius_exact,
    radius_smooth,
    rank_one_tuple,
    subdiff_coefficients,
    tuple_combine,
    tuple_from_json,
    tuple_to_json,
)
from conftest import hilbert, linf, single

SQ2 = 1 / math.sqrt(2)


def _pair(x, x_star=None):
    x = np.asarray(x)
    return NormingPair(x, x if x_star is None else np.asarray(x_star))


class TestConstruction:
    @pytest.mark.parametrize("p", [1.0, 0.5, float("inf")])
    def test_p_out_of_range_rejected(self, p):
        with pytest.raises(InvalidDescriptor):
            OperatorTuple((np.eye(2),), p=p)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            OperatorTuple((np.eye(2), np.eye(3)), p=2.0)

    @pytest.mark.parametrize("mats", [(np.ones((2, 3)),), (np.ones((2, 3)), np.ones((2, 3))), (np.ones(2),)])
    def test_non_square_rejected(self, mats):
        with pytest.raises(DimensionMismatch):
            OperatorTuple(mats, p=2.0)

    @pytest.mark.parametrize("field, dtype", [(REAL, float), (COMPLEX, complex)])
    def test_matrices_are_one_array(self, field, dtype):
        T = OperatorTuple([np.eye(3), np.ones((3, 3)).tolist()], p=2.0, field=field)
        assert isinstance(T.matrices, np.ndarray)
        assert T.matrices.shape == (2, 3, 3) and T.matrices.dtype == dtype
        assert (T.d, T.n) == (2, 3)

    def test_complex_entries_in_real_tuple(self):
        with pytest.raises(InvalidDescriptor):
            OperatorTuple((np.eye(2) * 1j,), p=2.0, field=REAL)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad, field):
        M = np.eye(2, dtype=complex if field == COMPLEX else float)
        M[0, 1] = bad
        with pytest.raises(InvalidDescriptor):
            OperatorTuple((np.eye(2), M), p=2.0, field=field)

    def test_conjugate_exponent(self):
        assert OperatorTuple((np.eye(2),), p=3.0).q == pytest.approx(1.5)


class TestPairImage:
    def test_identity(self):
        T = single(np.eye(2))
        assert pair_image(T, _pair([1.0, 0.0]))[0] == 1.0

    def test_shift(self):
        T = single([[0.0, 1.0], [0.0, 0.0]])
        z = pair_image(T, _pair([SQ2, SQ2]))
        assert z[0] == pytest.approx(0.5)

    def test_two_diagonals(self):
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), p=2.0)
        np.testing.assert_allclose(pair_image(T, _pair([1.0, 0.0])), [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair_image(single(np.eye(2)), _pair([1.0, 0.0, 0.0]))


class TestAggregate:
    def test_two_identities(self):
        T = OperatorTuple((np.eye(2), np.eye(2)), p=2.0)
        assert aggregate(T, _pair([0.6, 0.8])) == pytest.approx(math.sqrt(2))

    def test_diag_pair(self):
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), p=2.0)
        assert aggregate(T, _pair([1.0, 0.0])) == 1.0

    def test_shift(self):
        T = single([[0.0, 1.0], [0.0, 0.0]], p=3.0)
        assert aggregate(T, _pair([SQ2, SQ2])) == pytest.approx(0.5)


class TestSubdiffCoefficients:
    def test_single_positive(self):
        T = single(np.eye(2))
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        np.testing.assert_allclose(alpha.alpha, [1.0])

    def test_p2_unit_vector(self):
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), p=2.0)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        np.testing.assert_allclose(alpha.alpha, [1.0, 0.0], atol=1e-15)

    def test_p3_equal_components(self):
        # z = (a, a) with a = 2^(-1/3) has l_3 norm 1
        a = 2 ** (-1 / 3)
        T = OperatorTuple((np.diag([a, 0.0]), np.diag([a, 0.0])), p=3.0)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        np.testing.assert_allclose(alpha.alpha, [a ** 2, a ** 2], atol=1e-14)
        assert alpha.q_norm(1.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_component_convention(self):
        # p < 2 with a vanishing component: the product convention gives 0
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([0.0, 0.0])), p=1.5)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        assert alpha.alpha[1] == 0.0
        assert np.isfinite(alpha.alpha).all()

    def test_tiny_component_maps_to_zero(self):
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([1e-300, 0.0])), p=1.5)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        assert alpha.alpha[1] == 0.0

    def test_nonattaining_warns(self):
        T = single(np.diag([1.0, 0.0]))
        with pytest.warns(UserWarning):
            subdiff_coefficients(T, _pair([0.0, 1.0]), w=1.0)

    @pytest.mark.parametrize("c", [1.0, 1e-150, 1e150])
    def test_nonattaining_warning_is_scale_free(self, c):
        # the e_2 pair reaches half the radius at every scale of T
        T = single(c * np.diag([1.0, 0.5]))
        with pytest.warns(UserWarning):
            subdiff_coefficients(T, _pair([0.0, 1.0]), w=c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            subdiff_coefficients(T, _pair([1.0, 0.0]), w=c)

    def test_rejects_nonpositive_w(self):
        with pytest.raises(ValueError):
            subdiff_coefficients(single(np.eye(2)), _pair([1.0, 0.0]), w=0.0)


class TestRankOneTuple:
    def test_hilbert_basis_pair(self):
        sp = hilbert(2, REAL)
        T = rank_one_tuple(sp, _pair([1.0, 0.0]), CoefficientVector([1.0]), p=2.0)
        np.testing.assert_allclose(T.matrices[0], np.diag([1.0, 0.0]))
        assert radius_smooth(T, sp, starts=8, seed=0).value == pytest.approx(1.0, abs=1e-9)

    def test_linf_pair_exact(self):
        sp = linf(2)
        pair = _pair([1.0, 1.0], [1.0, 0.0])
        T = rank_one_tuple(sp, pair, CoefficientVector([1.0]), p=2.0)
        np.testing.assert_allclose(T.matrices[0], [[1.0, 0.0], [1.0, 0.0]])
        assert radius_exact(T, sp).value == pytest.approx(1.0, abs=1e-12)

    def test_two_components(self):
        sp = hilbert(2, REAL)
        T = rank_one_tuple(sp, _pair([1.0, 0.0]), CoefficientVector([SQ2, SQ2]), p=2.0)
        np.testing.assert_allclose(T.matrices[0], SQ2 * np.diag([1.0, 0.0]))
        np.testing.assert_allclose(T.matrices[1], SQ2 * np.diag([1.0, 0.0]))
        assert radius_smooth(T, sp, starts=8, seed=0).value == pytest.approx(1.0, abs=1e-9)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            rank_one_tuple(hilbert(2, REAL), _pair([1.0, 0.0]), CoefficientVector([0.0]))


class TestTupleCombine:
    def test_zero_lambda(self):
        T = OperatorTuple((np.diag([1.0, 2.0]), np.eye(2)), p=2.0)
        out = tuple_combine(T, T, [0.0, 0.0])
        for A, B in zip(out.matrices, T.matrices):
            np.testing.assert_array_equal(A, B)

    def test_plain_sum(self):
        T = single(np.diag([1.0, 2.0]))
        out = tuple_combine(T, T, [1.0])
        np.testing.assert_allclose(out.matrices[0], np.diag([2.0, 4.0]))

    def test_mixed_signs(self):
        T = OperatorTuple((np.diag([1.0, 2.0]), np.eye(2)), p=2.0)
        out = tuple_combine(T, T, [1.0, -1.0])
        np.testing.assert_allclose(out.matrices[0], 2 * T.matrices[0])
        np.testing.assert_allclose(out.matrices[1], np.zeros((2, 2)))


class TestJson:
    def test_real_roundtrip(self):
        T = OperatorTuple((np.diag([1.0, -2.0]), np.eye(2)), p=2.5)
        back = tuple_from_json(tuple_to_json(T), field=REAL)
        assert back.p == T.p
        for A, B in zip(back.matrices, T.matrices):
            np.testing.assert_array_equal(A, B)

    def test_complex_roundtrip(self):
        T = OperatorTuple((np.array([[1 + 2j, 0], [0, -1j]]),), p=2.0, field=COMPLEX)
        back = tuple_from_json(tuple_to_json(T), field=COMPLEX)
        np.testing.assert_array_equal(back.matrices[0], T.matrices[0])

    def test_default_p(self):
        T = tuple_from_json({"matrices": [[[1, 0], [0, 1]]]}, field=REAL)
        assert T.p == 2.0

    def test_complex_entry_in_real_file(self):
        with pytest.raises(InvalidDescriptor):
            tuple_from_json({"matrices": [[[[1, 1], 0], [0, 1]]]}, field=REAL)

    def test_d_mismatch(self):
        with pytest.raises(InvalidDescriptor):
            tuple_from_json({"d": 2, "matrices": [[[1, 0], [0, 1]]]}, field=REAL)
