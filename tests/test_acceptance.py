"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test binds a numbered criterion; the terminal summary (see conftest)
prints one PASS/FAIL line per criterion.  Criterion 7b documents a known
impossibility and is expected to fail; see that test's reason string.
"""

import time

import numpy as np
import pytest

from conftest import (
    rand_herm_tuple,
    rand_minimal_smr,
    rand_smr,
    rand_symmetric_poly,
)
from ncconvex import butterfly, examples, matkit, ncalg, partialcvx, realize, xycvx
from ncconvex.ncalg import HermTuple, VarContext
from test_xycvx import rand_plpoly


def sample_point(R, n, scale, rng):
    A = tuple(matkit.sample_herm(n, scale, rng) for _ in range(R.h))
    X = tuple(matkit.sample_herm(n, scale, rng) for _ in range(R.g))
    return HermTuple(n, A, X, validate=False)


def draw_positive_smr(rng, kebab=False, max_tries=400):
    """Minimal SMR whose positivity region contains a small neighborhood."""
    pred = realize.in_dom_kebab_plus if kebab else realize.in_dom_plus
    for _ in range(max_tries):
        e = int(rng.integers(2, 6))
        try:
            R = rand_minimal_smr(rng, e=e, h=1, g=2)
        except RuntimeError:
            continue
        if pred(R, sample_point(R, 1, 0.05, rng)):
            return R
    raise RuntimeError("no SMR with a sampleable positivity region")


def test_c01_intro_eval():
    start = time.monotonic()
    p = examples.intro_poly()
    X1, X2 = examples.intro_matrices()
    val = ncalg.eval_poly(p, HermTuple(2, (), (X1, X2), validate=False))
    assert np.array_equal(val, np.array([[69, 99], [61, 99]], dtype=complex))
    assert time.monotonic() - start < 1.0


def test_c02_hessian_matches_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst_fd = worst_forms = 0.0
    for _ in range(100):
        R = rand_smr(rng, e=int(rng.integers(1, 7)), h=1, g=2)
        for _ in range(100):
            t = sample_point(R, int(rng.integers(1, 5)), 0.3, rng)
            if realize.in_dom(R, t):
                break
        else:
            raise RuntimeError("no domain point found")
        H = tuple(matkit.sample_herm(t.n, 1.0, rng) for _ in range(R.g))
        hess = partialcvx.partial_hessian(R, t, H)
        fd = partialcvx.finite_diff_hessian(R, t, H)
        worst_fd = max(worst_fd, float(
            np.max(np.abs(fd - hess)) / max(1.0, np.linalg.norm(hess, 2))))
        f1, f2 = partialcvx.partial_hessian_forms(R, t, H)
        worst_forms = max(worst_forms, float(
            np.max(np.abs(f1 - f2)) / max(1.0, np.linalg.norm(f1, 2))))
    assert worst_fd <= 1e-6
    assert worst_forms <= 1e-10
    assert time.monotonic() - start < 30.0


def test_c03_domplus_psd_and_negativity_witness():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    smrs = [draw_positive_smr(rng) for _ in range(20)]

    # forward: the Hessian is PSD at every sampled dom-plus point
    total = 0
    min_lambda = np.inf
    for R in smrs:
        got = tries = 0
        while got < 25 and tries < 500:
            tries += 1
            t = sample_point(R, int(rng.integers(1, 4)), 0.35, rng)
            if not realize.in_dom_plus(R, t):
                continue
            got += 1
            H = tuple(matkit.sample_herm(t.n, 1.0, rng) for _ in range(R.g))
            hess = partialcvx.partial_hessian(R, t, H)
            min_lambda = min(min_lambda, float(np.linalg.eigvalsh(hess)[0]))
        total += got
    assert total == 500
    assert min_lambda >= -1e-8

    # converse: every sampled dom point with an indefinite R_T yields a
    # verified negative quadratic form
    found = 0
    for R in smrs:
        bad = None
        for _ in range(200):
            t = sample_point(R, int(rng.integers(1, 3)), 1.5, rng)
            if not realize.in_dom(R, t):
                continue
            lam = float(np.linalg.eigvalsh(
                matkit.herm(realize.r_T(R, t)))[0])
            if lam < -1e-3:
                bad = t
                break
        if bad is None:
            continue
        wit = partialcvx.negativity_witness(R, bad)
        assert wit.value < 0
        quad = float(np.real(wit.h.conj() @ partialcvx.partial_hessian(
            R, wit.point, wit.direction) @ wit.h))
        assert quad == pytest.approx(wit.value, rel=1e-8)
        found += 1
    assert found >= 10
    assert time.monotonic() - start < 120.0


def test_c04_butterfly_identities_and_domains():
    rng = np.random.default_rng(404)
    smrs = [draw_positive_smr(rng, kebab=True) for _ in range(10)]
    worst_cat = worst_sqrt = 0.0
    points = 0
    for R in smrs:
        cert = butterfly.butterfly_build(R)
        got = tries = 0
        while got < 20 and tries < 500:
            tries += 1
            t = sample_point(R, int(rng.integers(1, 4)), 0.35, rng)
            if not realize.in_dom_kebab_plus(R, t):
                continue
            got += 1
            direct = realize.eval_realization(R, t)
            den = max(1.0, float(np.linalg.norm(direct, 2)))
            total = sum(butterfly.caterpillar_eval(R, t))
            worst_cat = max(worst_cat,
                            float(np.max(np.abs(total - direct))) / den)
            sq = cert.eval_sqrt_form(t)
            worst_sqrt = max(worst_sqrt,
                             float(np.max(np.abs(sq - direct))) / den)
        points += got
    assert points == 200
    assert worst_cat <= 1e-9
    assert worst_sqrt <= 1e-8

    # the sandwich characterization agrees with definitional membership
    checked = band = 0
    for R in smrs:
        cert = butterfly.butterfly_build(R)
        for _ in range(50):
            t = sample_point(R, int(rng.integers(1, 3)),
                             float(rng.choice([0.3, 1.2])), rng)
            item4 = cert.in_domain_item4(t)
            member = realize.in_dom_kebab_plus(R, t)
            checked += 1
            if item4 == member:
                continue
            # disagreement must sit on a tolerance boundary
            margins = []
            try:
                margins.append(abs(float(np.linalg.eigvalsh(
                    matkit.herm(realize.r_T(R, t)))[0])))
                margins.append(abs(float(np.linalg.eigvalsh(
                    cert.w_eval(t))[0])))
            except Exception:
                margins.append(0.0)
            assert min(margins) < 1e-5, "domain disagreement off-boundary"
            band += 1
    assert checked == 500
    assert band == 0


def test_c05_poly_decomposition_and_rejection():
    p = ncalg.parse_poly("vars a: a | x: x\n1 * x a x\n")
    pb = butterfly.poly_butterfly(p)
    assert pb.k == 1
    assert set(pb.w.coeffs) == {(0,)}
    assert abs(pb.w.coeffs[(0,)][0, 0] - 1) <= 1e-10
    assert set(pb.ell.coeffs) == {(1,)}
    assert abs(pb.ell.coeffs[(1,)][0, 0] - 1) <= 1e-10
    assert all(np.max(np.abs(c)) <= 1e-10 for c in pb.fbar.coeffs.values())

    q = ncalg.parse_poly("vars a: | x: x\n1 * x x x x\n")
    with pytest.raises(butterfly.NotConvexible) as ei:
        butterfly.poly_butterfly(q)
    wit = ei.value.witness
    assert wit is not None
    lam = float(np.linalg.eigvalsh(wit.gap(q))[0])
    assert lam < -1e-8
    assert lam == pytest.approx(wit.lambda_min, rel=1e-8)


def test_c06_square_example_midpoint_convexity():
    summary = examples.example_a3_summary()
    assert summary["samples"] == 300
    assert summary["violations"] == 0
    outside = summary["outside_witness"]
    assert outside["found"]
    assert outside["lambda_min"] < 0


def test_c07a_middle_matrix_psd_small_inputs():
    rng = np.random.default_rng(707)
    pl = xycvx.support_screen(examples.square_poly_xy())
    scan = xycvx.middle_matrix_psd_scan(
        pl, sizes=((1, 1), (2, 2)), samples=100, rng=rng,
        sampler=examples.small_norm_sampler(0.1))
    assert not scan.is_witness
    assert scan.samples == 200
    assert scan.min_lambda > 0


@pytest.mark.xfail(
    strict=True,
    reason="no interior-admissible indefinite sample exists: after the "
    "identity-pivot congruence the middle matrix is PSD whenever the inner "
    "y- and x-blocks stay below the norm bound, and every input admissible "
    "for the region's interior does; indefiniteness needs blocks past the "
    "bound, which the boundary witness covers instead")
def test_c07b_interior_admissible_indefinite_sample():
    rng = np.random.default_rng(717)
    pl = xycvx.support_screen(examples.square_poly_xy())
    bound = 0.999 * examples.NORM_BOUND

    def interior_sampler(rng_, nm):
        # inner blocks compressed from full matrices strictly inside the
        # region, the strongest admissible inputs available
        n1, n2 = nm
        Y = matkit.sample_herm(n1 + n2, 1.0, rng_)
        Y = Y * (bound / max(float(np.linalg.norm(Y, 2)), 1e-12))
        X = matkit.sample_herm(n1 + n2, 1.0, rng_)
        X = X * (bound / max(float(np.linalg.norm(X, 2)), 1e-12))
        return Y[:n1, :n1], Y[:n1, n1:], X[:n1, n1:], X[n1:, n1:]

    scan = xycvx.middle_matrix_psd_scan(
        pl, sizes=((1, 1), (2, 1), (2, 2)), samples=700, rng=rng,
        sampler=interior_sampler)
    assert scan.is_witness


def test_c08_certificate_roundtrip():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        p, _ = xycvx.synthesize_certified(rng, N=int(rng.integers(1, 5)))
        pl = xycvx.support_screen(p)
        gram = xycvx.gram_complete_certificate(pl)
        assert gram.is_feasible
        cert = xycvx.assemble_certificate(pl, gram.F)
        report = xycvx.verify_certificate(pl, cert, samples=5, rng=rng)
        assert report.coeff_ok
        assert report.ok
        worst = max(worst, report.max_coeff_residual)
    assert worst <= 1e-8
    assert time.monotonic() - start < 120.0


def test_c09_blockwise_kron_calculus():
    rng = np.random.default_rng(909)

    # blockwise Kronecker product equals its isometric compression
    worst = 0.0
    for _ in range(1000):
        pa, qa = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pb, qb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rng.normal(size=(pa + qa,) * 2) + 1j * rng.normal(size=(pa + qa,) * 2)
        B = rng.normal(size=(pb + qb,) * 2) + 1j * rng.normal(size=(pb + qb,) * 2)
        lhs = matkit.khatri_rao(matkit.BlockMatrix2.from_matrix(A, pa),
                                matkit.BlockMatrix2.from_matrix(B, pb)).full()
        E = matkit.build_embedding_E((pa, qa), (pb, qb))
        rhs = E.conj().T @ np.kron(A, B) @ E
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12

    # compressed coefficient calculus reproduces the corner form, and the
    # hat-substitution probe decays with the scaling parameter
    worst_q = 0.0
    for k in range(20):
        pl = rand_plpoly(rng)
        P = xycvx.build_P(pl)
        Q = xycvx.extract_Q(pl)
        for _ in range(100):
            n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            d0 = matkit.sample_herm(n1, 0.8, rng)
            b2 = matkit.sample_herm(n2, 0.8, rng)
            d1 = (rng.normal(size=(n1, n2))
                  + 1j * rng.normal(size=(n1, n2))) / np.sqrt(2)
            b1 = (rng.normal(size=(n1, n2))
                  + 1j * rng.normal(size=(n1, n2))) / np.sqrt(2)
            S1 = np.block([[d0, d1],
                           [d1.conj().T, np.zeros((n2, n2))]])
            S2 = np.block([[np.zeros((n1, n1)), b1],
                           [b1.conj().T, b2]])
            got = xycvx.eval_Q_via_P(P, (S1, S2), (n1, n2))
            want = Q.eval(d0, d1, b1, b2)
            worst_q = max(worst_q, float(np.max(np.abs(got - want))))
        if k < 6:
            assert xycvx.mxy_q_equivalence_probe(pl, rng=rng).decay_ok
    assert worst_q <= 1e-10


def test_c10_realization_infrastructure():
    rng = np.random.default_rng(1010)
    ctx = VarContext(("a",), ("x", "y"))

    # linearize + minimize reproduces polynomial evaluation
    worst = 0.0
    for _ in range(20):
        p = rand_symmetric_poly(ctx, rng, max_len=4, terms=4, scale=0.6)
        R = realize.minimize(realize.linearize_poly(p))
        for _ in range(100):
            t = rand_herm_tuple(ctx, int(rng.integers(1, 4)), rng, 0.6)
            assert realize.in_dom(R, t)
            direct = ncalg.eval_poly(p, t)
            got = realize.eval_realization(R, t)
            worst = max(worst, float(
                np.max(np.abs(got - direct))
                / max(1.0, np.linalg.norm(direct, 2))))
    assert worst <= 1e-8

    # similarity: recovered for unitary congruence copies
    for _ in range(20):
        R1 = rand_minimal_smr(rng, e=int(rng.integers(2, 5)), h=1, g=2)
        e = R1.e
        U = np.linalg.qr(rng.normal(size=(e, e))
                         + 1j * rng.normal(size=(e, e)))[0]
        R2 = realize.Realization.make(
            U @ R1.J @ U.conj().T,
            tuple(U @ S @ U.conj().T for S in R1.S),
            tuple(U @ T @ U.conj().T for T in R1.T),
            U @ R1.c)
        S = realize.state_space_similarity(R1, R2)
        assert isinstance(S, np.ndarray)
        assert float(np.max(np.abs(S - U))) <= 1e-6
        assert float(np.linalg.norm(
            S.conj().T @ R2.J @ S - R1.J, 2)) <= 1e-6

    # distinct polynomials are reported as not equivalent
    for _ in range(20):
        p1 = rand_symmetric_poly(ctx, rng, max_len=3, terms=4)
        p2 = rand_symmetric_poly(ctx, rng, max_len=3, terms=4)
        while ncalg.format_poly(p1) == ncalg.format_poly(p2):
            p2 = rand_symmetric_poly(ctx, rng, max_len=3, terms=4)
        res = realize.state_space_similarity(
            realize.linearize_poly(p1), realize.linearize_poly(p2))
        assert isinstance(res, realize.NotEquivalent)
