import math
import sys
import warnings

import numpy as np
import pytest

from jointradius import (
    COMPLEX,
    REAL,
    DimensionMismatch,
    InvalidDescriptor,
    NormingPair,
    OperatorTuple,
    TupleSubspace,
    aggregate,
    gateaux_one_sided,
    generators,
    orth_subspace,
    pair_image,
    radius_exact,
    radius_smooth,
    rank_one_tuple,
    subdiff_coefficients,
    tuple_combine,
    tuple_from_json,
    tuple_to_json,
)
from jointradius.optuples import pair_images
from jointradius.spaces import lp_norm
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

    @pytest.mark.parametrize("p", ["2", True, None, 2 + 0j])
    def test_p_must_be_a_real_number(self, p):
        with pytest.raises(InvalidDescriptor, match="p must be a number"):
            OperatorTuple((np.eye(2),), p=p)

    @pytest.mark.parametrize("field", ["quaternion", "Complex", None])
    def test_unknown_field_rejected(self, field):
        with pytest.raises(InvalidDescriptor, match="unknown field"):
            OperatorTuple((np.eye(2),), field=field)

    def test_numpy_p(self):
        assert OperatorTuple((np.eye(2),), p=np.float64(3.0)).q == pytest.approx(1.5)

    @pytest.mark.parametrize("mats", [(), []])
    def test_no_operator_rejected(self, mats):
        with pytest.raises(InvalidDescriptor, match="tuple needs at least one operator"):
            OperatorTuple(mats)

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

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_matrices_are_read_only(self, field):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        T = OperatorTuple((M,), p=3.0, field=field)
        with pytest.raises(ValueError):
            T.matrices[0, 0, 0] = 5.0
        M[0, 0] = 5.0  # the tuple holds its own copy
        assert T.matrices[0, 0, 0] == 1.0
        derived = [
            T.scaled(2.0),
            T + T,
            T - T.scaled(0.5),
            tuple_combine(T, T, [3.0]),
            OperatorTuple(T.matrices, p=T.p, field=field),
            rank_one_tuple(hilbert(2, field), _pair([1.0, 0.0]), np.array([1.0]), p=3.0),
        ]
        want = [2.0, 2.0, 0.5, 4.0, 1.0, 1.0]
        for D, w in zip(derived, want):
            assert D.matrices is not T.matrices and not D.matrices.flags.writeable
            assert D.matrices[0, 0, 0] == w
        assert T.matrices[0, 0, 0] == 1.0


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

    def test_functional_dimension_mismatch(self):
        # a length-3 x_star against n = 2: the library's error, not numpy's matmul or broadcasting ValueError
        pair = _pair([1.0, 0.0], [1.0, 0.0, 0.0])
        T = single(np.eye(2))
        with pytest.raises(DimensionMismatch):
            aggregate(T, pair)
        with pytest.raises(DimensionMismatch):
            subdiff_coefficients(T, pair, w=1.0)


class TestPairImages:
    """`pair_images` is the one stacked body of x*(M_i x); each entry has the floats of the one-vector call."""

    @staticmethod
    def _one_vector(M, X, C):
        # X's and C's leading axes broadcast against M's stack axes; each (tuple, vector) is one call of
        # `pair_image`'s expression (M @ x) @ c.  Per-operator dots (M_i @ x) @ c round differently at d > 1.
        batch = np.broadcast_shapes(X.shape[:-1], C.shape[:-1], M.shape[:-3])
        Ms, Xs, Cs = (np.broadcast_to(a, batch + a.shape[a.ndim - k :]) for a, k in ((M, 3), (X, 1), (C, 1)))
        Y = np.empty(batch + M.shape[-3:-1], dtype=np.result_type(M, X))
        z = np.empty(batch + M.shape[-3:-2], dtype=np.result_type(M, X, C))
        for idx in np.ndindex(*batch):
            Y[idx] = Ms[idx] @ Xs[idx]
            z[idx] = Y[idx] @ Cs[idx]
        return Y, z

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("shape", [(), (5,), (5, 1)], ids=["1-D", "k-n", "k-1-n"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["tuple", "stack"])
    def test_entries_are_the_one_vector_products(self, rng, field, n, d, shape, stacked):
        def draw(*dims):
            a = rng.standard_normal(dims)
            return a + 1j * rng.standard_normal(dims) if field == COMPLEX else a

        # a stack of 5 tuples: (k, n) rows pair with tuples one to one, (k, 1, n) rows with every tuple
        M = draw(5, d, n, n) if stacked else draw(d, n, n)
        X, C = draw(*shape, n), draw(*shape, n)
        Y, z = pair_images(M, X, C)
        want_Y, want_z = self._one_vector(M, X, C)
        assert Y.shape == want_Y.shape and z.shape == want_z.shape
        assert Y.tobytes() == want_Y.tobytes()
        assert z.tobytes() == want_z.tobytes()

    def test_one_body_reaches_every_caller(self, monkeypatch):
        # the coefficient table, the ascent and direction evaluation all form the pair image in `pair_images`
        import jointradius.optuples as optuples_module
        import jointradius.subdiff as subdiff_module

        radius_module = sys.modules["jointradius.radius"]  # the function `jointradius.radius` shadows the module
        calls = []
        for module in (optuples_module, radius_module, subdiff_module):
            assert module.pair_images is pair_images  # no module keeps a body of its own
            monkeypatch.setattr(
                module, "pair_images", lambda *args, _name=module.__name__: calls.append(_name) or pair_images(*args)
            )
        T = OperatorTuple((np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])), p=3.0)
        sp = hilbert(2, field=REAL)
        rr = radius_smooth(T, sp, starts=2, seed=0)
        assert "jointradius.radius" in calls
        S = OperatorTuple((np.eye(2), np.diag([1.0, 2.0])), p=3.0)
        for call, module in (
            (lambda: generators(T, sp, rr), "jointradius.optuples"),
            (lambda: gateaux_one_sided(T, S, sp, rr), "jointradius.subdiff"),
            (lambda: orth_subspace(T, TupleSubspace((S,)), sp, rr), "jointradius.subdiff"),
        ):
            calls.clear()
            call()
            assert module in calls


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
        np.testing.assert_allclose(alpha, [1.0])

    def test_p2_unit_vector(self):
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), p=2.0)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        np.testing.assert_allclose(alpha, [1.0, 0.0], atol=1e-15)

    def test_p3_equal_components(self):
        # z = (a, a) with a = 2^(-1/3) has l_3 norm 1
        a = 2 ** (-1 / 3)
        T = OperatorTuple((np.diag([a, 0.0]), np.diag([a, 0.0])), p=3.0)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        np.testing.assert_allclose(alpha, [a ** 2, a ** 2], atol=1e-14)
        assert lp_norm(alpha, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_component_convention(self):
        # p < 2 with a vanishing component: the product convention gives 0
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([0.0, 0.0])), p=1.5)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        assert alpha[1] == 0.0
        assert np.isfinite(alpha).all()

    def test_tiny_component_maps_to_zero(self):
        T = OperatorTuple((np.diag([1.0, 0.0]), np.diag([1e-300, 0.0])), p=1.5)
        alpha = subdiff_coefficients(T, _pair([1.0, 0.0]), w=1.0)
        assert alpha[1] == 0.0

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
        T = rank_one_tuple(sp, _pair([1.0, 0.0]), np.array([1.0]), p=2.0)
        np.testing.assert_allclose(T.matrices[0], np.diag([1.0, 0.0]))
        assert radius_smooth(T, sp, starts=8, seed=0).value == pytest.approx(1.0, abs=1e-9)

    def test_linf_pair_exact(self):
        sp = linf(2)
        pair = _pair([1.0, 1.0], [1.0, 0.0])
        T = rank_one_tuple(sp, pair, np.array([1.0]), p=2.0)
        np.testing.assert_allclose(T.matrices[0], [[1.0, 0.0], [1.0, 0.0]])
        assert radius_exact(T, sp).value == pytest.approx(1.0, abs=1e-12)

    def test_two_components(self):
        sp = hilbert(2, REAL)
        T = rank_one_tuple(sp, _pair([1.0, 0.0]), np.array([SQ2, SQ2]), p=2.0)
        np.testing.assert_allclose(T.matrices[0], SQ2 * np.diag([1.0, 0.0]))
        np.testing.assert_allclose(T.matrices[1], SQ2 * np.diag([1.0, 0.0]))
        assert radius_smooth(T, sp, starts=8, seed=0).value == pytest.approx(1.0, abs=1e-9)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            rank_one_tuple(hilbert(2, REAL), _pair([1.0, 0.0]), np.array([0.0]))


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

    def test_lambda_of_wrong_length(self):
        T = OperatorTuple((np.diag([1.0, 2.0]), np.eye(2)), p=2.0)
        with pytest.raises(DimensionMismatch, match="lambda must have length d=2"):
            tuple_combine(T, T, [1.0])

    def test_complex_lambda_on_a_real_tuple(self):
        T = single(np.diag([1.0, 2.0]))
        with pytest.raises(InvalidDescriptor, match="complex scalings"):
            tuple_combine(T, T, [1j])


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

    @pytest.mark.parametrize("entry", [[1.0, 2.0, 3.0], [1.0]])
    def test_complex_entry_must_be_a_pair(self, entry):
        with pytest.raises(InvalidDescriptor, match=r"\[re, im\] pairs"):
            tuple_from_json({"matrices": [[[entry]]]}, field=COMPLEX)

    def test_default_p(self):
        T = tuple_from_json({"matrices": [[[1, 0], [0, 1]]]}, field=REAL)
        assert T.p == 2.0

    def test_complex_entry_in_real_file(self):
        with pytest.raises(InvalidDescriptor):
            tuple_from_json({"matrices": [[[[1, 1], 0], [0, 1]]]}, field=REAL)

    def test_d_mismatch(self):
        with pytest.raises(InvalidDescriptor):
            tuple_from_json({"d": 2, "matrices": [[[1, 0], [0, 1]]]}, field=REAL)

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            [1],
            {"matrices": None},
            {"matrices": [[1]]},
            {"matrices": [[[1, None], [0, 1]]]},
            {"matrices": [[[1, True], [0, 1]]]},
            {"matrices": [[[1, "0"], [0, 1]]]},
            {"p": None, "matrices": [[[1, 0], [0, 1]]]},
            {"p": True, "matrices": [[[1, 0], [0, 1]]]},
            {"d": 1.5, "matrices": [[[1, 0], [0, 1]]]},
            {"d": True, "matrices": [[[1, 0], [0, 1]]]},
        ],
    )
    def test_malformed_field(self, obj):
        with pytest.raises(InvalidDescriptor):
            tuple_from_json(obj, field=REAL)

    def test_complex_part_must_be_a_number(self):
        with pytest.raises(InvalidDescriptor):
            tuple_from_json({"matrices": [[[[1, None], 0], [0, 1]]]}, field=COMPLEX)
