"""End-to-end acceptance battery.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single pass/fail line on the terminal (bypassing capture) so a
full run reads as a nine-line scorecard.
"""

import numpy as np
import pytest

from jointradius import (
    COMPLEX,
    REAL,
    DependentDirection,
    HullProblem,
    OperatorTuple,
    admissible_pairs,
    aggregate,
    apply,
    dual_norm_eval,
    duality_map,
    fd_gateaux,
    gateaux_one_sided,
    generators,
    hull_membership,
    lambda_sweep,
    norm_eval,
    orth_scalar,
    radius,
    radius_exact,
    radius_smooth,
    rank_one_tuple,
    random_tuple,
    sample_pairs,
    sampled_radius,
    smoothness,
)
from jointradius.oracle import MINUS, PLUS
from conftest import hilbert, l1, linf, lr, random_polygon_space, single


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_norm_axioms(capsys):
    rng = np.random.default_rng(101)
    ok = True
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 4))
        cases.append((hilbert(n), COMPLEX, n))
    for _ in range(80):
        n = int(rng.integers(2, 4))
        cases.append((linf(n), REAL, n))
    for _ in range(80):
        n = int(rng.integers(2, 4))
        cases.append((l1(n), REAL, n))
    for sp, field, n in cases:
        d = int(rng.integers(1, 4))
        p = float(rng.uniform(1.3, 4.0))
        T = random_tuple(d, n, field, p, rng)
        S = random_tuple(d, n, field, p, rng)
        kw = {"starts": 12, "seed": 0} if field == COMPLEX else {}
        wT = radius(T, sp, **kw).value
        wS = radius(S, sp, **kw).value
        wTS = radius(T + S, sp, **kw).value
        c = complex(rng.normal(), rng.normal()) if field == COMPLEX else float(rng.normal())
        wcT = radius(T.scaled(c), sp, **kw).value
        ok &= abs(wcT - abs(c) * wT) <= 1e-9 * max(1.0, wT)
        ok &= wTS <= wT + wS + 1e-9
    # exact path at the ends of the range of p and at extreme scales of T:
    # positivity, |lambda|-homogeneity and the triangle inequality, 1e-12 relative
    for kind in ("l1", "linf", "polygon"):
        sp = random_polygon_space(rng) if kind == "polygon" else {"l1": l1, "linf": linf}[kind](3)
        for p in (1.01, 80.0):
            for c in (1.0, 1e150, 1e-150):
                for _ in range(10):
                    T, S = (random_tuple(2, sp.dim, REAL, p, rng).scaled(c) for _ in range(2))
                    lam = float(rng.normal())
                    wT, wS = radius_exact(T, sp).value, radius_exact(S, sp).value
                    ok &= wT > 0
                    ok &= abs(radius_exact(T.scaled(lam), sp).value - abs(lam) * wT) <= 1e-12 * abs(lam) * wT
                    ok &= radius_exact(T + S, sp).value <= (wT + wS) * (1 + 1e-12)
    # degenerate flag: nonzero skew-symmetric operators on real l2
    for n in (2, 3):
        A = rng.standard_normal((n, n))
        K = A - A.T
        rr = radius_smooth(single(K), hilbert(n, REAL), starts=8, seed=0)
        ok &= rr.degenerate and rr.value <= 1e-12
    report(capsys, 1, "norm axioms", ok)


def test_criterion_2_extreme_pair_exactness(capsys):
    rng = np.random.default_rng(202)
    spaces = [linf(2), linf(3), l1(2), l1(3)]
    spaces += [random_polygon_space(rng) for _ in range(3)]
    counts = [20, 20, 20, 20, 7, 7, 6]  # 100 tuples total
    ok = True
    for sp, count in zip(spaces, counts):
        for _ in range(count):
            d = int(rng.integers(1, 4))
            p = float(rng.uniform(1.3, 4.0))
            T = random_tuple(d, sp.dim, REAL, p, rng)
            exact = radius_exact(T, sp).value
            sampled = sampled_radius(T, sp, samples=100_000, seed=17)
            ok &= exact >= sampled - 1e-12
            ok &= exact - sampled <= 5e-2
    report(capsys, 2, "extreme-pair exactness", ok)


def test_criterion_3_subdifferential(capsys):
    rng = np.random.default_rng(303)
    ok = True
    for p in (1.5, 2.0, 3.0):
        for _ in range(2):
            sp = linf(2)
            T = random_tuple(2, 2, REAL, p, rng)
            rr = radius_exact(T, sp)
            gens = generators(T, sp, rr)
            for g in gens:
                ok &= abs(np.real(apply(g, T)) - rr.value) <= 1e-9
            for _ in range(34):
                S = random_tuple(2, 2, REAL, p, rng)
                wS = radius_exact(S, sp).value
                for g in gens:
                    ok &= abs(apply(g, S)) <= wS + 1e-8
                    ok &= wS - rr.value >= np.real(apply(g, S - T)) - 1e-8
    report(capsys, 3, "subdifferential generators", ok)


def test_criterion_4_one_sided_derivatives(capsys):
    rng = np.random.default_rng(404)
    ok = True
    sp = linf(2)
    for _ in range(10):
        T = random_tuple(2, 2, REAL, 2.0, rng)
        S = random_tuple(2, 2, REAL, 2.0, rng)
        rr = radius_exact(T, sp)
        rep = gateaux_one_sided(T, S, sp, rr)
        ok &= rep.g_minus <= rep.g_plus + 1e-15
        ok &= abs(rep.g_plus - fd_gateaux(T, S, sp, t=1e-4, side=PLUS)) <= 1e-3
        ok &= abs(rep.g_minus - fd_gateaux(T, S, sp, t=1e-4, side=MINUS)) <= 1e-3
    T = single(np.diag([1.0, -1.0]))
    S = single(np.diag([1.0, 0.0]))
    rep = gateaux_one_sided(T, S, sp, radius_exact(T, sp))
    ok &= abs(rep.g_plus - 1.0) <= 1e-9 and abs(rep.g_minus - 0.0) <= 1e-9
    report(capsys, 4, "one-sided derivatives vs finite differences", ok)


def test_criterion_5_smoothness(capsys):
    rng = np.random.default_rng(505)
    ok = True
    sp = hilbert(2)
    T = single(np.diag([1.0 + 0j, 0.0]), field=COMPLEX)
    rr = radius_smooth(T, sp, starts=24, seed=0)
    rep = smoothness(T, sp, rr)
    ok &= rep.smooth
    t = 1e-4
    for _ in range(50):
        S = random_tuple(1, 2, COMPLEX, 2.0, rng)
        g = float(np.real(apply(rep.generator, S)))
        ok &= abs(g - np.real(S.matrices[0][0, 0])) <= 1e-9
        plus = radius_smooth(T + S.scaled(t), sp, starts=12, seed=0).value
        minus = radius_smooth(T + S.scaled(-t), sp, starts=12, seed=0).value
        ok &= abs(g - (plus - minus) / (2 * t)) <= 1e-6
    T2 = single(np.diag([1.0 + 0j, -1.0]), field=COMPLEX)
    rep2 = smoothness(T2, sp, radius_smooth(T2, sp, starts=48, seed=0))
    ok &= rep2.verdict == "NotSmooth"
    T3 = single(np.diag([1.0, 0.0]))
    rep3 = smoothness(T3, linf(2), radius_exact(T3, linf(2)))
    ok &= rep3.verdict == "NotSmooth" and rep3.exhaustive
    report(capsys, 5, "smoothness verdicts", ok)


def test_criterion_6_orthogonality_equivalence(capsys):
    rng = np.random.default_rng(606)
    ok = True
    done = 0
    for sp in (linf(2), l1(3)):
        while done < (50 if sp.dim == 2 else 100):
            d = int(rng.integers(1, 4))
            T = random_tuple(d, sp.dim, REAL, 2.0, rng)
            S = random_tuple(d, sp.dim, REAL, 2.0, rng)
            rr = radius_exact(T, sp)
            try:
                verdict = orth_scalar(T, S, sp, rr).orthogonal
            except DependentDirection:
                continue
            sweep = lambda_sweep(T, S, sp, directions=6, seed=1)
            ok &= verdict == (sweep.min_value >= sweep.value_at_zero - 1e-7)
            done += 1
    T = single(np.diag([1.0, -1.0]))
    res = orth_scalar(T, single(np.eye(2)), linf(2), radius_exact(T, linf(2)))
    ok &= res.orthogonal and res.certificate.residual <= 1e-12
    ts = sorted(t for _, t in res.certificate.weights)
    ok &= len(ts) == 2 and abs(ts[0] - 0.5) <= 1e-12 and abs(ts[1] - 0.5) <= 1e-12
    report(capsys, 6, "orthogonality LP vs lambda sweep", ok)


def test_criterion_7_rank_one_generator(capsys):
    rng = np.random.default_rng(707)
    ok = True
    spaces = [hilbert(2, REAL), hilbert(2), hilbert(3)]
    poly = [linf(2), l1(2), random_polygon_space(rng)]
    for i in range(100):
        p = float(rng.uniform(1.3, 4.0))
        d = int(rng.integers(1, 4))
        if i % 2 == 0:
            sp = spaces[(i // 2) % len(spaces)]
            pair = sample_pairs(sp, 1, seed=1000 + i)[0]
        else:
            sp = poly[(i // 2) % len(poly)]
            pairs = admissible_pairs(sp)
            pair = pairs[int(rng.integers(len(pairs)))]
        a = rng.standard_normal(d)
        if sp.field == COMPLEX:
            a = a + 1j * rng.standard_normal(d)
        q = p / (p - 1.0)
        alpha = np.array(a / np.linalg.norm(a, ord=q))
        T = rank_one_tuple(sp, pair, alpha, p=p)
        ok &= abs(aggregate(T, pair) - 1.0) <= 1e-9  # the defining pair attains
        if sp.field == REAL and not sp.is_smooth_lp:
            ok &= abs(radius_exact(T, sp).value - 1.0) <= 1e-12
        else:
            ok &= abs(radius_smooth(T, sp, starts=12, seed=0).value - 1.0) <= 1e-9
    report(capsys, 7, "rank-one generator radius", ok)


def test_criterion_8_duality_identities(capsys):
    rng = np.random.default_rng(808)
    ok = True
    for r in (1.5, 2.0, 4.0):
        rp = r / (r - 1.0)
        for i in range(200):
            field = REAL if i % 2 == 0 else COMPLEX
            sp = lr(3, r, field)
            g = rng.standard_normal(3)
            if field == COMPLEX:
                g = g + 1j * rng.standard_normal(3)
            x = g / norm_eval(sp, g)
            (pair,) = duality_map(sp, x)
            ok &= abs(pair.functional(x) - 1.0) <= 1e-12
            ok &= abs(dual_norm_eval(sp, pair.x_star) - 1.0) <= 1e-12
    report(capsys, 8, "duality-map identities", ok)


def test_criterion_9_lp_kernel(capsys):
    rng = np.random.default_rng(909)
    ok = True
    for i in range(500):
        k = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        pts = rng.standard_normal((m, k)) * float(rng.uniform(0.5, 3.0))
        scale = float(np.max(np.abs(pts)))
        expect_inside = i % 2 == 0
        if expect_inside:
            w = np.maximum(rng.dirichlet(np.ones(m)), 0.1)
            w /= w.sum()
            tgt = pts.T @ w
        else:
            span = pts.max(axis=0) - pts.min(axis=0)
            tgt = pts.max(axis=0) + (0.5 + rng.uniform()) * (span + 1.0)
        res = hull_membership(HullProblem(points=pts, target=tgt))
        # rejection-sampling oracle: accept iff a random convex combination
        # lands near the target
        combos = rng.dirichlet(np.ones(m), size=4000) @ pts
        dist = float(np.min(np.linalg.norm(combos - tgt, axis=1)))
        oracle = dist <= 0.25 * max(scale, 1.0)
        ok &= res.feasible == oracle == expect_inside
        if res.feasible:
            ok &= float(np.max(np.abs(pts.T @ res.weights - tgt))) <= 1e-9
    report(capsys, 9, "hull-membership kernel", ok)
