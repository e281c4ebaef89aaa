import gc
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointradius import (
    COMPLEX,
    REAL,
    DimensionMismatch,
    InvalidDescriptor,
    LpNorm,
    NormingPair,
    OperatorTuple,
    Polyhedral,
    SpaceDescriptor,
    Unsupported,
    admissible_pairs,
    dual_norm_eval,
    duality_map,
    extreme_points,
    norm_eval,
    radius,
    sample_pairs,
    space_from_json,
    space_to_json,
)
from jointradius import spaces
from jointradius.spaces import ACTIVE_TOL, DESCRIPTOR_TOL, _PAIR_TABLES, AdmissiblePairs, _negations, lp_norm, lp_norm_rows
from conftest import (
    bad_counts,
    cuboctahedron,
    extreme_spaces,
    hilbert,
    l1,
    linf,
    lr,
    near_duplicate_polygon,
    off_negation_hexagon,
    polar_vertices,
    random_polygon_space,
    random_polytope,
    same_rows,
    without_pair,
)


def _table_negations(sp, P, D):
    """The negation indices of both lists, from `_negations` on the arrays the pair-table build hands it."""
    G = P @ D.T
    return _negations(sp, P, D, G, np.abs(G - 1.0) <= DESCRIPTOR_TOL)[0]


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


_GATE_SPACES = [hilbert(2, REAL), hilbert(2, COMPLEX), linf(2), l1(2)]


class TestVectorGate:
    """Every vector entry point reads its input through `SpaceDescriptor.as_vector`."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("space", _GATE_SPACES, ids=["real-l2", "complex-l2", "linf", "l1"])
    def test_non_finite_entries(self, space, bad):
        # no tolerance test catches a NaN: |nan - 1| > tol is false
        for fn in (norm_eval, dual_norm_eval, duality_map):
            with pytest.raises(InvalidDescriptor, match="finite"):
                fn(space, [bad, 0.0])

    def test_nan_pair_fails_validation(self):
        # each of validate's three tolerance tests is false on a NaN
        with pytest.raises(InvalidDescriptor, match="finite"):
            NormingPair(np.array([math.nan, 0.0]), np.array([math.nan, 0.0])).validate(hilbert(2, REAL))

    def test_complex_entries_on_a_real_space(self):
        # a cast to float would drop the imaginary part and report 3.0
        for fn in (norm_eval, dual_norm_eval, duality_map):
            with pytest.raises(InvalidDescriptor, match="complex entries in a real-field vector"):
                fn(hilbert(2, REAL), [3 + 4j, 0.0])

    def test_complex_dtype_with_zero_imaginary_part(self):
        assert norm_eval(hilbert(2, REAL), np.array([3 + 0j, 4.0])) == 5.0
        assert norm_eval(linf(2), [1, -2]) == 2.0

    @pytest.mark.parametrize(
        "x, x_star, message",
        [
            ([2.0, 0.0], [1.0, 0.0], "x is not a unit vector"),
            ([1.0, 0.0], [2.0, 0.0], "x_star is not a unit dual vector"),
            ([1.0, 0.0], [0.0, 1.0], r"x_star\(x\) != 1"),
        ],
    )
    def test_pair_validation_refusals(self, x, x_star, message):
        with pytest.raises(InvalidDescriptor, match=message):
            NormingPair(np.array(x), np.array(x_star)).validate(linf(2))


def _numpy_lp_norm(z, p):
    """lp_norm with numpy's reductions at every length."""
    a = np.abs(z)
    m = a.max()
    if not 0.0 < m < math.inf:
        return float(m)
    a /= m
    a **= p
    return float(m * a.sum() ** (1.0 / p))


class TestLpNorm:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("p", [1.01, 2.0, 80.0, 1e4])
    def test_bit_identical_to_numpy_reductions(self, rng, field, p):
        for n in range(1, 13):
            for scale in (1e-310, 1e-150, 1.0, 1e150):
                for _ in range(20):
                    z = rng.standard_normal(n) * scale
                    if field == COMPLEX:
                        z = z + 1j * rng.standard_normal(n) * scale
                    assert lp_norm(z, p) == _numpy_lp_norm(z, p)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("p", [1.01, 2.0, 80.0, 1e4])
    def test_rows_are_bit_identical_to_lp_norm(self, rng, field, p):
        # rows shorter than 8 take the column-major sum, longer ones numpy's
        # pairwise sum, and one-column rows are |z|; 1e-310 is subnormal
        for n in range(1, 13):
            for scale in (1e-310, 1e-150, 1.0, 1e150):
                Z = rng.standard_normal((40, n)) * scale
                if field == COMPLEX:
                    Z = Z + 1j * rng.standard_normal((40, n)) * scale
                Z[7] = 0.0
                got = lp_norm_rows(Z, p)
                want = np.array([lp_norm(z, p) for z in Z])
                assert got[7] == 0.0
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("p", [1.01, 2.7, 80.0])
    def test_one_entry_is_its_modulus(self, rng, field, p):
        z = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        if field == COMPLEX:
            z = z + 1j * rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        z = np.concatenate([z, [0.0, 5e-324, -5e-324, 1e308, -1e308]])
        got = [lp_norm(z[k : k + 1], p) for k in range(len(z))]
        assert all(type(g) is float for g in got)
        assert np.array(got).tobytes() == np.abs(z).tobytes() == lp_norm_rows(z[:, None], p).tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_zero_inf_and_nan(self, n):
        assert lp_norm(np.zeros(n), 2.0) == 0.0
        for k in range(n):
            z = np.ones(n)
            z[k] = math.inf
            assert lp_norm(z, 2.0) == math.inf
            # Python's max([1.0, nan]) is 1.0, so a NaN after the first entry
            # must come through the sum
            z[k] = math.nan
            assert math.isnan(lp_norm(z, 2.0))
            if n > 1:  # a NaN beside an inf, on either side of it
                z[(k + 1) % n] = math.inf
                assert math.isnan(lp_norm(z, 2.0))


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

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("make", [l1, linf], ids=["l1", "linf"])
    def test_matches_the_full_dual_extreme_set(self, rng, make, n):
        sp = make(n)
        x = rng.uniform(-1, 1, n)
        if make is linf:  # some coordinates at +-1: those units are active
            idx = rng.permutation(n)[: rng.integers(1, n + 1)]
            x[idx] = rng.choice([-1.0, 1.0], len(idx))
        else:  # some zero coordinates: each doubles the active sign vectors
            x[rng.random(n) < 0.3] = 0.0
            x = x / np.abs(x).sum() if x.any() else np.eye(n)[0]
        dual = extreme_points(sp)[1]
        active = dual[np.abs(dual @ x - 1.0) <= 1e-10]
        stars = np.array([pr.x_star for pr in duality_map(sp, x)])
        assert stars.tobytes() == active.tobytes()

    @pytest.mark.parametrize("make, n", [(linf, 2897), (l1, 20)], ids=["linf-units", "l1-signs"])
    def test_dual_extremes_over_the_entry_budget(self, make, n):
        # the 2n units of l_inf(2897) and the 2^n sign vectors of l_1(20) each exceed 2^24 entries
        with pytest.raises(Unsupported, match="budget"):
            duality_map(make(n), np.eye(n)[0])

    def test_linf_beyond_the_pair_budget(self):
        # l_inf(24) has 24 * 2^25 extreme pairs; the duality map needs only its 48 units
        sp = linf(24)
        with pytest.raises(Unsupported):
            extreme_points(sp)
        x = np.full(24, 0.5)
        x[[3, 17]] = [1.0, -1.0]
        stars = [tuple(pr.x_star) for pr in duality_map(sp, x)]
        assert stars == [tuple(np.eye(24)[3]), tuple(-np.eye(24)[17])]
        for pr in sample_pairs(sp, 5, seed=0):
            pr.validate(sp)


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
        with pytest.raises(Unsupported):
            extreme_points(lr(4, 3.0))

    def test_complex_l1_unsupported(self):
        with pytest.raises(Unsupported):
            extreme_points(SpaceDescriptor(field=COMPLEX, dim=2, norm=LpNorm(1.0)))

    @pytest.mark.parametrize("n", [19, 21, 64, 10**9])
    def test_entry_budget(self, n):
        # checked before the sign vectors exist: 2n 2^n admissible pairs at dim n
        with pytest.raises(Unsupported, match="budget"):
            extreme_points(linf(n))

    def test_one_point_per_row(self, rng):
        for sp in (linf(3), l1(3), random_polygon_space(rng)):
            for E in extreme_points(sp):
                assert E.ndim == 2 and E.shape[1] == sp.dim and E.dtype == float
        units, signs = extreme_points(l1(2))
        np.testing.assert_array_equal(units, [[1, 0], [-1, 0], [0, 1], [0, -1]])
        np.testing.assert_array_equal(signs, [[1, 1], [1, -1], [-1, 1], [-1, -1]])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sign_vectors_in_product_order(self, n):
        want = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        for signs in (extreme_points(linf(n))[0], extreme_points(l1(n))[1]):
            assert signs.dtype == want.dtype and signs.shape == want.shape
            assert signs.tobytes() == want.tobytes()  # the same bits: no -0.0

    @pytest.mark.parametrize("make", [l1, linf])
    def test_no_negative_zeros(self, make):
        for E in extreme_points(make(4)):
            assert not np.any(np.signbit(E[E == 0]))


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

    def test_sequence_access(self):
        pairs = admissible_pairs(linf(3))
        assert isinstance(pairs, AdmissiblePairs) and len(pairs) == 24
        assert pairs[0] is pairs[0] and pairs[-1] is pairs[23] and pairs[-24] is pairs[0]
        for k in (24, -25):
            with pytest.raises(IndexError):
                pairs[k]
        assert [id(pr) for pr in pairs[2:9:3]] == [id(pairs[k]) for k in (2, 5, 8)]
        assert [id(pr) for pr in pairs] == [id(pairs[k]) for k in range(24)]
        assert pairs[24:] == []

    def test_at_builds_the_indexed_pairs(self):
        pairs = admissible_pairs(l1(3))
        idx = np.array([23, 0, 5, 1])
        built = pairs.at(idx)
        assert isinstance(built, AdmissiblePairs) and len(built) == len(idx)
        for pr, k in zip(built, idx):
            np.testing.assert_array_equal(pr.x, pairs.primal[pairs.rows[k]])
            np.testing.assert_array_equal(pr.x_star, pairs.dual[pairs.cols[k]])
            np.testing.assert_array_equal(pr.x, pairs[k].x)
            np.testing.assert_array_equal(pr.x_star, pairs[k].x_star)
        # pairs 0 and 1 share their primal extreme, and so its row view
        assert built[1].x is built[3].x
        assert len(pairs.at(np.array([], dtype=int))) == 0
        # a subset of a built set shares its pair objects
        assert [id(pr) for pr in pairs.at(idx)] == [id(pairs[k]) for k in idx]

    def test_negation_indices(self, rng):
        # neg maps each extreme to its negation, within DESCRIPTOR_TOL, and is an involution; it is the row of
        # least max |v + w|, which the nearest row in the 2-norm is on every admitted list
        for sp in extreme_spaces(rng) + [off_negation_hexagon(rng)]:
            pairs = admissible_pairs(sp)
            for E, neg in zip((pairs.primal, pairs.dual), _table_negations(sp, pairs.primal, pairs.dual)):
                assert neg.shape == (len(E),)
                assert np.max(np.abs(E[neg] + E)) <= DESCRIPTOR_TOL
                np.testing.assert_array_equal(neg[neg], np.arange(len(E)))
                np.testing.assert_array_equal(neg, np.argmin(np.abs(E[:, None, :] + E[None, :, :]).max(axis=2), axis=1))

    def test_mates(self, rng):
        # orbit[t] is the lower of t and the index of (neg i, neg j), or t where that pair is not admissible
        for sp in extreme_spaces(rng) + [off_negation_hexagon(rng)]:
            pairs = admissible_pairs(sp)
            rows, cols = pairs.rows.tolist(), pairs.cols.tolist()
            where = {ij: k for k, ij in enumerate(zip(rows, cols))}
            neg_p, neg_d = _table_negations(sp, pairs.primal, pairs.dual)
            mate = np.array([where.get((neg_p[i], neg_d[j]), k) for k, (i, j) in enumerate(zip(rows, cols))])
            np.testing.assert_array_equal(mate[mate], np.arange(len(pairs)))
            np.testing.assert_array_equal(pairs.orbit, np.minimum(np.arange(len(pairs)), mate))
            assert np.bincount(pairs.orbit).max() <= 2  # a pair and its mate, no more
            idx = rng.permutation(len(pairs))[::3]
            sub = pairs.at(idx)
            assert sub.gap is pairs.gap and all(a is b for a, b in zip(sub.scoring, pairs.scoring))
            np.testing.assert_array_equal(sub.orbit, pairs.orbit[idx])
            np.testing.assert_array_equal(sub.at(np.arange(len(sub))[::-2]).orbit, pairs.orbit[idx[::-2]])

    def test_scoring_plan(self, rng):
        for sp in extreme_spaces(rng) + [off_negation_hexagon(rng)]:
            pairs = admissible_pairs(sp)
            P, rows, cols, orbit = pairs.primal, pairs.rows, pairs.cols, pairs.orbit
            stand, scored_primal, at = pairs.scoring
            lead = np.flatnonzero(orbit == np.arange(len(pairs)))
            # each orbit's lower pair is scored, and its score stands for every pair of the orbit
            np.testing.assert_array_equal(lead[stand], orbit)
            # flat index j * m + q of each scored pair (i, j): scored_primal[q] is extreme i
            j, q = np.divmod(at, len(scored_primal))
            np.testing.assert_array_equal(j, cols[lead])
            np.testing.assert_array_equal(scored_primal[q], P[rows[lead]])
            if isinstance(sp.norm, LpNorm):  # exact negations: half of each
                assert 2 * len(at) == len(pairs) and 2 * len(scored_primal) == len(P)
        hexagon = admissible_pairs(off_negation_hexagon(rng))
        # no mate is an exact negation there, and still one pair of each orbit is scored
        assert hexagon.gap.min() > 0 and 2 * len(hexagon.scoring[2]) == len(hexagon)


class TestPairTable:
    """The pair table is built once per space value and shared read-only."""

    @pytest.mark.parametrize("make", [linf, l1])
    def test_equal_spaces_share_read_only_arrays(self, make):
        spaces = make(3), make(3)  # kept alive: the entry lives as long as its key space
        a, b = map(admissible_pairs, spaces)
        assert a is not b
        for name in ("primal", "dual", "rows", "cols", "orbit", "gap"):
            arr = getattr(a, name)
            assert arr is getattr(b, name)
            assert not arr.flags.writeable
        for arr, other in zip(a.scoring, b.scoring):
            assert arr is other and not arr.flags.writeable
        np.testing.assert_array_equal(a.gap, [0.0, 0.0])  # both lists close under exact negation
        # each (v, u) negates to an admissible pair on l_1 and l_inf, so every orbit is (v, u) and (neg v, neg u)
        assert (np.bincount(a.orbit)[a.orbit] == 2).all()
        upper = np.flatnonzero(a.orbit != np.arange(len(a)))
        neg_p, neg_d = _table_negations(spaces[0], a.primal, a.dual)
        np.testing.assert_array_equal(a.rows[a.orbit[upper]], neg_p[a.rows[upper]])
        np.testing.assert_array_equal(a.cols[a.orbit[upper]], neg_d[a.cols[upper]])

    def test_pair_vectors_are_read_only(self):
        pr = admissible_pairs(linf(2))[0]
        with pytest.raises(ValueError):
            pr.x[0] = 5.0
        with pytest.raises(ValueError):
            pr.x_star[0] = 5.0

    def test_table_is_the_mask(self, rng):
        spaces = [make(n) for n in range(1, 9) for make in (linf, l1)] + [random_polygon_space(rng, 7)]
        for sp in spaces:
            pairs = admissible_pairs(sp)
            P, D = extreme_points(sp)
            rows, cols = np.nonzero(np.abs(P @ D.T - 1) <= DESCRIPTOR_TOL)
            np.testing.assert_array_equal(pairs.rows, rows)
            np.testing.assert_array_equal(pairs.cols, cols)
            np.testing.assert_array_equal(pairs.primal, P)
            np.testing.assert_array_equal(pairs.dual, D)

    def test_entry_dropped_with_the_last_equal_space(self):
        dim = 11  # no other test keeps a space of this value alive
        a, b = linf(dim), linf(dim)
        admissible_pairs(a)
        admissible_pairs(b)
        assert len([sp for sp in _PAIR_TABLES.keys() if sp == a]) == 1
        del a
        gc.collect()
        assert admissible_pairs(b).primal.shape == (2**dim, dim)
        del b
        gc.collect()
        assert not [sp for sp in _PAIR_TABLES.keys() if sp == linf(dim)]

    def test_polygon_from_lists_arrays_and_tuples(self):
        square = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        cross = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        built = [
            SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(prim, dual))
            for prim, dual in (
                (square, cross),
                (np.array(square), np.array(cross)),
                (tuple(map(tuple, square)), tuple(map(tuple, cross))),
            )
        ]
        assert built[0] == built[1] == built[2]
        assert len({hash(sp) for sp in built}) == 1
        assert all(type(c) is float for v in built[1].norm.primal_extremes for c in v)
        tables = [admissible_pairs(sp) for sp in built]
        assert tables[0].primal is tables[1].primal is tables[2].primal
        T = OperatorTuple((np.array([[1.0, 2.0], [3.0, 4.0]]),))
        assert [radius(T, sp).value for sp in built] == [7.0] * 3

    def test_one_negation_search_per_polyhedral_value(self, rng, monkeypatch):
        # the pair-table build, which runs the list rules, forms P D^T once and one |v + w| array per list at
        # construction; an equal space built while the first is alive, and the exact solve, reuse the table
        log = []

        class Logged(np.ndarray):
            """An extreme array that logs each ufunc applied to it, with a copy of each logged operand."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                log.append([np.array(a) for a in inputs if isinstance(a, Logged)])
                if "out" in kwargs:
                    kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
                return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

        points = extreme_points
        monkeypatch.setattr("jointradius.spaces.extreme_points", lambda space: [E.view(Logged) for E in points(space)])
        prim, dual = random_polytope(rng)  # a fresh value: no equal space holds a table
        sp = SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(prim, dual))
        P, D = np.array(prim), np.array(dual)

        def passes():
            """How often the log holds the pairwise v +- w array of P, that of D, and the product P D^T."""

            def count(*want):
                return sum(len(ops) == 2 and all(map(np.array_equal, ops, want)) for ops in log)

            return [count(E[:, None], E[None]) for E in (P, D)] + [count(P, D.T)]

        assert passes() == [1, 1, 1]
        log.clear()
        T = OperatorTuple(rng.standard_normal((2, 3, 3)))
        value = radius(T, sp).value
        twin = SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(prim, dual))
        assert radius(T, twin).value == value
        assert admissible_pairs(twin).primal is admissible_pairs(sp).primal  # sp is alive, so its table serves twin
        assert log and passes() == [0, 0, 0]

    def test_polyhedral_norms_read_the_table(self, rng, monkeypatch):
        # a fresh polygon value: its table is built at construction and read by every norm call
        sp = random_polygon_space(rng, 40)
        P, D = extreme_points(sp)
        calls = []

        def spy(space):
            calls.append(space)
            return extreme_points(space)

        monkeypatch.setattr("jointradius.spaces.extreme_points", spy)
        for v in rng.standard_normal((5, 2)):
            assert norm_eval(sp, v) == float(np.max(np.abs(D @ v)))
            assert dual_norm_eval(sp, v) == float(np.max(np.abs(P @ v)))
        for v in P[:3]:
            assert [pr.x_star.tolist() for pr in duality_map(sp, v)] == D[np.abs(D @ v - 1.0) <= ACTIVE_TOL].tolist()
        assert calls == []

    @pytest.mark.parametrize("entry", ["1.0", True, None, 1j])
    def test_polygon_entries_must_be_numbers(self, entry):
        with pytest.raises(InvalidDescriptor, match="primal_extremes entry must be a number"):
            Polyhedral(((entry, 0.0), (-1.0, 0.0)), ((1.0,), (-1.0,)))


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

    def test_rejects_no_pairs(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            sample_pairs(hilbert(2), 0, seed=0)

    @pytest.mark.parametrize("bad", bad_counts("count"))
    def test_rejects_bad_count_and_seed(self, bad):
        # `True` once gave one pair, and 2.5 or a seed of 1.5 failed inside numpy
        (name,) = bad
        with pytest.raises(ValueError, match=f"^{name} must be"):
            sample_pairs(hilbert(2), **({"count": 2, "seed": 0} | bad))


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


class TestDescriptorConstruction:
    """A descriptor built in Python is checked as the JSON path checks it."""

    @pytest.mark.parametrize("dim", [2.0, True, "2", None, 0, -1])
    @pytest.mark.parametrize("r", [2.0, math.inf])
    def test_dim_must_be_a_positive_integer(self, dim, r):
        with pytest.raises(InvalidDescriptor, match="dim must be a positive integer"):
            SpaceDescriptor(REAL, dim, LpNorm(r))

    @pytest.mark.parametrize("r", [2.0, math.inf])
    def test_numpy_integer_dim(self, r):
        sp = SpaceDescriptor(REAL, np.int64(2), LpNorm(r))
        assert radius(OperatorTuple((np.diag([1.0, -2.0]),)), sp).value == pytest.approx(2.0, rel=1e-12)
        assert json.loads(json.dumps(space_to_json(sp)))["dim"] == 2

    @pytest.mark.parametrize("norm", ["l2", 2.0, None])
    def test_norm_must_be_a_norm_object(self, norm):
        with pytest.raises(InvalidDescriptor, match="norm must be"):
            SpaceDescriptor(REAL, 2, norm)

    @pytest.mark.parametrize("r", ["2", True, None, 2j])
    def test_r_must_be_a_real_number(self, r):
        with pytest.raises(InvalidDescriptor, match="r must be a number"):
            LpNorm(r)

    @pytest.mark.parametrize("r", [0.5, 0.0, -math.inf, math.nan])
    def test_r_below_one_rejected(self, r):
        with pytest.raises(InvalidDescriptor, match="l_r norm needs r >= 1"):
            LpNorm(r)

    @pytest.mark.parametrize("field", ["quaternion", "Complex", None])
    def test_unknown_field_rejected(self, field):
        with pytest.raises(InvalidDescriptor, match="unknown field"):
            SpaceDescriptor(field, 2, LpNorm(2.0))

    def test_numpy_r(self):
        assert norm_eval(SpaceDescriptor(REAL, 2, LpNorm(np.float64(1.0))), [3.0, -4.0]) == 7.0

    @pytest.mark.parametrize(
        "prim, dual",
        [([1.0, -1.0], [1.0, -1.0]), ([[1.0], [-1.0]], 5), ([[1.0], None], [[1.0], [-1.0]])],
        ids=["flat-lists", "dual-number", "extreme-none"],
    )
    def test_polyhedral_extremes_must_be_vectors(self, prim, dual):
        with pytest.raises(InvalidDescriptor, match="must be a list of numeric vectors"):
            Polyhedral(prim, dual)


_CROSS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
_SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
_HEXAGON = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(6)])


def _cross_and_cube(dim: int) -> tuple:
    """The 2 dim units and the 2^dim sign vectors of R^dim: the l_1 ball's extremes and the l_inf ball's."""
    return np.vstack([np.eye(dim), -np.eye(dim)]), np.array(list(itertools.product([1.0, -1.0], repeat=dim)))


_UNITS3, _SIGNS3 = _cross_and_cube(3)
# (primal, dual) of 3-polytopes: l_1, l_inf, and the cuboctahedron, whose vertices lie on 4 facets each
POLYTOPES3 = {
    "l1": (_UNITS3, _SIGNS3),
    "linf": (_SIGNS3, _UNITS3),
    "cuboctahedron": cuboctahedron(),
}


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

    @pytest.mark.parametrize("prim, dual", [((), _CROSS), (_SQUARE, ())], ids=["primal", "dual"])
    def test_empty_extreme_list_rejected(self, prim, dual):
        with pytest.raises(InvalidDescriptor, match="extreme lists must be nonempty"):
            SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(prim, dual))

    @pytest.mark.parametrize(
        "dim, prim, dual, side", [(3, _SQUARE, _UNITS3, "primal"), (2, _SQUARE, _UNITS3, "dual")], ids=["primal", "dual"]
    )
    def test_extremes_of_the_wrong_dimension_rejected(self, dim, prim, dual, side):
        with pytest.raises(InvalidDescriptor, match=f"{side} extreme of wrong dimension"):
            SpaceDescriptor(field=REAL, dim=dim, norm=Polyhedral(prim, dual))

    def test_ragged_extremes_rejected(self):
        with pytest.raises(InvalidDescriptor):
            SpaceDescriptor(field=REAL, dim=1, norm=Polyhedral(((1.0,), (-1.0, 0.0)), ((1.0,), (-1.0,))))

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_near_duplicate_extremes_rejected(self, side):
        # 12 admissible pairs in 6 +- couples, that orbit_dedup would merge into 5 orbits, while the first two
        # vertices lie within ORBIT_TOL = 1e-6: sqrt(2) eps apart, refused at 1.4e-7 and 0.9e-6, admitted at 1.1e-6
        for eps in (1e-7, 0.9e-6 / math.sqrt(2), 1.1e-6 / math.sqrt(2), 1e-3):
            prim, dual = near_duplicate_polygon(eps)
            if side == "dual":  # the polar hexagon: its dual extremes lie sqrt(2) eps apart
                prim, dual = dual, prim
            if math.sqrt(2) * eps > 1e-6:
                SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(prim, dual))
                continue
            with pytest.raises(InvalidDescriptor, match=f"two {side} extremes lie within"):
                SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(prim, dual))

    @pytest.mark.parametrize(
        "prim, dual, message",
        [
            (2 * _CROSS, _CROSS, "primal extremes are not unit vectors"),
            (_CROSS, np.vstack([_CROSS, [[0.5, 0.5], [-0.5, -0.5]]]), "dual extremes are not unit vectors"),
        ],
        ids=["primal", "dual"],
    )
    def test_unit_vectors_required(self, prim, dual, message):
        with pytest.raises(InvalidDescriptor, match=message):
            SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(prim, dual))

    @pytest.mark.parametrize("extremes", [_CROSS, _HEXAGON], ids=["units", "hexagon"])
    def test_extremes_must_be_vertices(self, extremes):
        # max |u(x)| over the units is the l_inf norm, whose vertices are the sign vectors; each
        # unit, and each hexagon vertex, is its own only admissible partner
        with pytest.raises(InvalidDescriptor, match="primal extreme .* is not a vertex"):
            SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(extremes, extremes))

    def test_dual_extremes_must_be_vertices(self):
        # +-(1/2, 1/2) are unit vectors of the dual (l_1) norm, but (1, 1) is their only admissible partner
        dual = np.vstack([_CROSS, [[0.5, 0.5], [-0.5, -0.5]]])
        with pytest.raises(InvalidDescriptor, match=r"dual extreme \[0.5, 0.5\] is not a vertex"):
            SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(_SQUARE, dual))

    def test_truncated_octahedron_rejected(self):
        # the l_1 ball's dual list without the facets +-(1, 1, 1): each extreme is a vertex of its
        # list, but max |u(x)| would give (1, 1, 1) / 3 the norm 1 / 3 instead of 1; the ball that the
        # dual list bounds has an edge from e_1 along e_2 + e_3 to its vertex (1, 1, 1), which is unlisted
        with pytest.raises(InvalidDescriptor, match=r"primal extreme \[1.0, 0.0, 0.0\] has an edge to no other listed"):
            SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(_UNITS3, _SIGNS3[np.abs(_SIGNS3.sum(axis=1)) < 3]))

    def test_missing_facet_pair_in_dim_4(self):
        # the l_1(4) ball's dual list without the facets +-(1, 1, 1, 1): each extreme is a vertex of its
        # list, and a vertex rule alone admitted it, with norm_eval giving (1, 1, 1, 1) / 4 the norm 0.5
        # and ones(4, 4) the radius 2.0, where the ball that the units span gives 1 and 4.0
        units, signs = _cross_and_cube(4)
        with pytest.raises(InvalidDescriptor, match="has an edge to no other listed extreme"):
            SpaceDescriptor(field=REAL, dim=4, norm=Polyhedral(units, signs[np.abs(signs.sum(axis=1)) < 4]))

    @pytest.mark.parametrize("name", POLYTOPES3)
    def test_polytopes_admitted_and_every_facet_pair_required(self, name):
        prim, dual = POLYTOPES3[name]
        SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(prim, dual))
        for k in range(len(dual)):
            with pytest.raises(InvalidDescriptor):
                SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(prim, without_pair(dual, k)))

    def test_random_polytopes_admitted_and_every_facet_pair_required(self, rng):
        # and every vertex pair: without one, the primal list no longer spans the dual list's polar
        for dim in (3, 4):
            for _ in range(20):
                prim, dual = random_polytope(rng, dim)
                SpaceDescriptor(field=REAL, dim=dim, norm=Polyhedral(prim, dual))
                for k in range(len(dual)):
                    with pytest.raises(InvalidDescriptor):
                        SpaceDescriptor(field=REAL, dim=dim, norm=Polyhedral(prim, without_pair(dual, k)))
                for k in range(len(prim)):
                    with pytest.raises(InvalidDescriptor):
                        SpaceDescriptor(field=REAL, dim=dim, norm=Polyhedral(without_pair(prim, k), dual))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_cross_polytope_and_cube_admitted(self, dim):
        # one side is simple and the other badly degenerate: in dim 6 each unit of the cube's dual list
        # has 32 tight sign vectors, so its side would need C(32, 5) edge candidates per unit
        units, signs = _cross_and_cube(dim)
        for prim, dual in ((units, signs), (signs, units)):
            sp = SpaceDescriptor(field=REAL, dim=dim, norm=Polyhedral(prim, dual))
            assert norm_eval(sp, np.full(dim, 1.0 / dim)) == pytest.approx(1.0 if prim is units else 1.0 / dim)

    def test_dual_extremes_are_the_polar_vertices(self, rng):
        # each admitted descriptor lists exactly the vertices of its primal list's polar, found by brute
        # force apart from the check; the same dual list less one facet pair is refused
        cases = {f"polygon-{k}": extreme_points(random_polygon_space(rng, k)) for k in (3, 5, 8)}
        cases |= {f"polytope-{dim}-{i}": random_polytope(rng, dim) for dim in (3, 4) for i in range(4)}
        cases["cuboctahedron"] = cuboctahedron()
        for dim in (2, 3, 4):
            units, signs = _cross_and_cube(dim)
            cases |= {f"l1-{dim}": (units, signs), f"linf-{dim}": (signs, units)}
        for name, (prim, dual) in cases.items():
            dim = prim.shape[1]
            SpaceDescriptor(field=REAL, dim=dim, norm=Polyhedral(prim, dual))
            assert same_rows(dual, polar_vertices(prim)), name
            with pytest.raises(InvalidDescriptor):
                SpaceDescriptor(field=REAL, dim=dim, norm=Polyhedral(prim, without_pair(dual, 0)))

    def test_edge_candidates_within_the_entry_budget(self, monkeypatch):
        # the cuboctahedron's N x N x dim arrays hold 14^2 x 3 = 588 entries; its cheaper side has 60
        # edge candidates, 60 x 14 entries: refused, counted before any candidate is listed
        def unlisted(*args):
            raise AssertionError("edge candidates listed past the budget")

        monkeypatch.setattr(spaces, "ENTRY_BUDGET", 600)
        monkeypatch.setattr(spaces, "itertools", SimpleNamespace(combinations=unlisted))
        with pytest.raises(Unsupported, match="60 edge candidates in dim 3 exceed the entry budget 600"):
            SpaceDescriptor(field=REAL, dim=3, norm=Polyhedral(*cuboctahedron()))

    def test_validation_arrays_within_the_entry_budget(self):
        # 2898^2 x 2 entries exceed 2^24: refused before any N x N array (134 MB) is built
        t = np.arange(2898) * (2 * np.pi / 2898)
        ring = np.column_stack([np.cos(t), np.sin(t)])
        tracemalloc.start()
        try:
            with pytest.raises(Unsupported, match="budget"):
                SpaceDescriptor(field=REAL, dim=2, norm=Polyhedral(ring, ring))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_negation_closure_required(self):
        # a list without the negation of a row, or with one moved by 1e-10: the rule runs before the unit-vector
        # rule, which a moved negation fails as well, and before the vertex rule, which a missing one fails
        cases = [
            ([[1.0]], [[1.0], [-1.0]], "primal"),
            (np.vstack([_SQUARE[:3], [[-1.0 - 1e-10, -1.0]]]), _CROSS, "primal"),
            (_SQUARE[:3], _CROSS, "primal"),
            (_SQUARE, np.vstack([_CROSS[:3], [[0.0, -1.0 - 1e-10]]]), "dual"),
            (_SQUARE, _CROSS[:3], "dual"),  # the square's dual list without (0, -1)
        ]
        for prim, dual, side in cases:
            with pytest.raises(InvalidDescriptor, match=f"{side} extremes not closed under negation"):
                SpaceDescriptor(field=REAL, dim=len(prim[0]), norm=Polyhedral(prim, dual))


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

    @pytest.mark.parametrize(
        "edit",
        [
            {"dim": 2.5},
            {"dim": True},
            {"dim": "2"},
            {"norm": None},
            {"norm": {"kind": "lp", "r": None}},
            {"norm": {"kind": "lp", "r": True}},
            {"norm": {"kind": "lp", "r": "2"}},
            {"norm": {"kind": "polyhedral", "primal_extremes": None, "dual_extremes": [[1.0]]}},
            {"norm": {"kind": "polyhedral", "primal_extremes": [[1.0], None], "dual_extremes": [[1.0]]}},
            {"norm": {"kind": "polyhedral", "primal_extremes": [[True], [-1.0]], "dual_extremes": [[1.0]]}},
        ],
    )
    def test_malformed_field(self, edit):
        with pytest.raises(InvalidDescriptor):
            space_from_json({"field": "real", "dim": 2, "norm": {"kind": "lp", "r": 2}, **edit})

    @pytest.mark.parametrize("key", ["field", "dim", "norm"])
    def test_missing_key(self, key):
        obj = {"field": "real", "dim": 2, "norm": {"kind": "lp", "r": 2}}
        del obj[key]
        with pytest.raises(InvalidDescriptor, match=f"missing '{key}'"):
            space_from_json(obj)

    @pytest.mark.parametrize("obj", [None, "space", [1]])
    def test_not_an_object(self, obj):
        with pytest.raises(InvalidDescriptor):
            space_from_json(obj)

    def test_integral_float_dim(self):
        assert space_from_json({"field": "real", "dim": 2.0, "norm": {"kind": "lp", "r": 2}}).dim == 2
