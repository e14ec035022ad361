"""Separate convexity in x and y: screen, Hessian, middle matrix, Gram
certificates, and the compressed tensor calculus.

The Hessian oracle is the literal three-block substitution; the middle
matrix between border vectors must agree with it everywhere.  Certificates
are verified by coefficient expansion plus sampled defects, never by the
solver's own word.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import full_gram_certificate
from ncconvex import cli, matkit, ncalg, xycvx
from ncconvex.ncalg import (ContextError, FreePoly, HermTuple, SymmetryError,
                            VarContext, eval_poly, format_poly,
                            parse_poly)
from ncconvex.xycvx import (
    AssemblyError,
    PairError,
    Reject,
    assemble_certificate,
    build_P,
    certificate_from_json,
    certificate_to_json,
    eval_Q_via_P,
    extract_Q,
    from_coeffs,
    gram_complete_certificate,
    is_xy_pair,
    middle_matrix,
    middle_matrix_psd_scan,
    mxy_q_equivalence_probe,
    mxy_witness_pair,
    sample_xy_pair,
    support_screen,
    synthesize_certified,
    verify_certificate,
    xy_convexity_test,
    xy_pair_residual,
)

seeds = st.integers(0, 2**32 - 1)

A4_COEFFS = {"xx": 1.0, "yy": 1.0, "xyyx": 1.0, "yxxy": 1.0,
             "xyxy": 2.0, "yxyx": 2.0}


def a4_poly():
    return support_screen(from_coeffs(A4_COEFFS))


def rand_plpoly(rng, scale=1.0, with_pencil=True):
    """Random symmetric polynomial supported on the screened word list."""
    def re_():
        return float(rng.normal()) * scale

    def z():
        return complex(rng.normal(), rng.normal()) * scale

    d = {w: re_() for w in ("xx", "yy", "xyx", "yxy", "xyyx", "yxxy")}
    for a, b in (("xyy", "yyx"), ("xxy", "yxx"), ("xyxy", "yxyx")):
        v = z()
        d[a], d[b] = v, np.conj(v)
    if with_pencil:
        d[""], d["x"], d["y"] = re_(), re_(), re_()
        v = z()
        d["xy"], d["yx"] = d.get("xy", 0) + v, d.get("yx", 0) + np.conj(v)
    return support_screen(from_coeffs(d))


# ---------------------------------------------------------------------------
# support screen

def test_screen_accepts_a4():
    pl = a4_poly()
    assert pl.accepted
    assert pl.c("xx") == pytest.approx(1.0)
    assert pl.c("yy") == pytest.approx(1.0)
    assert pl.c("xyyx") == pytest.approx(1.0)
    assert pl.c("yxxy") == pytest.approx(1.0)
    assert pl.c("xyxy") == pytest.approx(2.0)
    assert pl.c("yxyx") == pytest.approx(2.0)
    assert pl.c("xyx") == pytest.approx(0.0)
    assert pl.c("xxy") == pytest.approx(0.0)


def test_screen_rejects_off_support_monomial():
    p = from_coeffs({"xxyy": 1.0, "yyxx": 1.0})
    out = support_screen(p)
    assert isinstance(out, Reject)
    assert not out.accepted
    assert out.monomial in ("xxyy", "yyxx")


def test_screen_rejects_nonsymmetric():
    with pytest.raises(SymmetryError):
        support_screen(from_coeffs({"xy": 1.0}))


def test_screen_rejects_wrong_context():
    ctx = VarContext(("a",), ("x",))
    p = FreePoly.from_terms(ctx, {(1, 0, 1): 1.0})
    with pytest.raises(ContextError):
        support_screen(p)


def test_plpoly_coefficient_lookup():
    pl = rand_plpoly(np.random.default_rng(0))
    assert pl.c(("x", "y", "y", "x")[0:0]) == pl.c(())
    assert pl.c("xyy") == pl.c(("x", "y", "y"))
    assert pl.c("yyx") == pl.c(("y", "y", "x"))


# ---------------------------------------------------------------------------
# xy-pairs and the canonical substitution

@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_sampled_pairs_satisfy_intertwining(seed):
    rng = np.random.default_rng(seed)
    pair = sample_xy_pair((2, 2, 2), rng=rng)
    assert xy_pair_residual(pair.X, pair.Y, pair.V) <= 1e-10
    assert is_xy_pair(pair.X, pair.Y, pair.V)


def test_non_hermitian_pair_fails():
    # with V = Y = I the product identity holds for any X, so only X's
    # Hermitian check can reject a non-Hermitian X
    eye = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    shift = np.array([[0, 1], [0, 0]], dtype=complex)
    assert is_xy_pair(flip, eye, eye)
    assert not is_xy_pair(shift, eye, eye)
    assert not is_xy_pair(eye, shift, eye)
    assert list(is_xy_pair(np.stack([flip, shift]), np.stack([eye, eye]),
                           eye)) == [True, False]


def test_perturbed_pair_fails_and_raises(rng):
    pair = sample_xy_pair((2, 2, 2), rng=rng)
    V = pair.V + 0.05 * rng.normal(size=pair.V.shape)
    assert not is_xy_pair(pair.X, pair.Y, V)
    bad = xycvx.XYPair(pair.X, pair.Y, V)
    with pytest.raises(PairError):
        xy_convexity_test(a4_poly(), bad)


# ---------------------------------------------------------------------------
# border-middle-border factorization and the compressed Q

@settings(max_examples=25, deadline=None)
@given(seed=seeds,
       dims=st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]))
def test_hessian_factors_through_middle_matrix(seed, dims):
    # the literal substitution x -> [[s0, (alpha 0)], [., (beta0 beta1; .
    # beta2)]], y -> [[t0, (0 gamma)], [., (delta0 delta1; . delta2)]]: its
    # defect p(X, Y)_00 - p(s0, t0) is B Mxy B* with the border vector
    # B = [alpha, t0 alpha, gamma, s0 gamma]
    rng = np.random.default_rng(seed)
    p = rand_plpoly(rng)
    n0, n1, n2 = dims
    parts = [(n0, n0, True), (n0, n0, True), (n0, n1, False),
             (n0, n2, False), (n1, n1, True), (n1, n2, False),
             (n1, n2, False), (n2, n2, True), (n1, n1, True), (n2, n2, True)]
    s0, t0, alpha, gamma, d0, d1, b1, b2, b0, d2 = (
        M[0] for M in matkit.sample_blocks(parts, 1.0, rng, 1))
    X = xycvx._three_block(s0, alpha, (b0, b1, b2), left=True)
    Y = xycvx._three_block(t0, gamma, (d0, d1, d2), left=False)
    assert np.allclose(X, X.conj().T, atol=1e-12)
    assert np.allclose(Y, Y.conj().T, atol=1e-12)
    big = eval_poly(p.poly, HermTuple(n0 + n1 + n2, (), (X, Y)))
    H = big[:n0, :n0] - eval_poly(p.poly, HermTuple(n0, (), (s0, t0)))
    B = np.hstack([alpha, t0 @ alpha, gamma, s0 @ gamma])
    M = middle_matrix(p, b1, b2, d0, d1)
    got = B @ M.matrix @ B.conj().T
    scale = max(1.0, float(np.max(np.abs(H))))
    assert np.max(np.abs(got - H)) <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n1=st.integers(1, 3), n2=st.integers(1, 3))
def test_q_form_is_odd_corner_of_middle_matrix(seed, n1, n2):
    rng = np.random.default_rng(seed)
    p = rand_plpoly(rng)
    d0 = matkit.sample_herm(n1, 0.7, rng)
    b2 = matkit.sample_herm(n2, 0.7, rng)
    d1 = rng.normal(size=(n1, n2)) + 1j * rng.normal(size=(n1, n2))
    b1 = rng.normal(size=(n1, n2)) + 1j * rng.normal(size=(n1, n2))
    M = middle_matrix(p, b1, b2, d0, d1)
    Q = extract_Q(p).eval(d0, d1, b1, b2)
    idx = np.concatenate([np.arange(0, n1),
                          np.arange(2 * n1, 2 * n1 + n2)])
    sub = M.matrix[np.ix_(idx, idx)]
    assert np.max(np.abs(Q - sub)) <= 1e-12 * max(1.0, np.max(np.abs(sub)))


# ---------------------------------------------------------------------------
# blockwise tensor calculus: embedding identity and the coefficient form

@settings(max_examples=25, deadline=None)
@given(seed=seeds, n1=st.integers(1, 3), n2=st.integers(1, 3))
def test_e_operator_embedding_identity(seed, n1, n2):
    rng = np.random.default_rng(seed)
    p = rand_plpoly(rng)
    P = build_P(p)
    n = n1 + n2
    S = (matkit.sample_herm(n, 0.7, rng), matkit.sample_herm(n, 0.7, rng))
    got = eval_Q_via_P(P, S, (n1, n2))
    mats = (np.eye(n), S[0], S[1])
    full = sum(np.kron(P[(j, k)], mats[j] @ mats[k])
               for j in range(3) for k in range(3))
    E = matkit.build_embedding_E((1, 1), (n1, n2))
    want = E.conj().T @ full @ E
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(got)))


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n1=st.integers(1, 3), n2=st.integers(1, 3))
def test_compressed_coefficients_reproduce_q(seed, n1, n2):
    rng = np.random.default_rng(seed)
    p = rand_plpoly(rng)
    P = build_P(p)
    d0 = matkit.sample_herm(n1, 0.7, rng)
    b2 = matkit.sample_herm(n2, 0.7, rng)
    d1 = rng.normal(size=(n1, n2)) + 1j * rng.normal(size=(n1, n2))
    b1 = rng.normal(size=(n1, n2)) + 1j * rng.normal(size=(n1, n2))
    S1 = np.block([[d0, d1], [d1.conj().T, np.zeros((n2, n2))]])
    S2 = np.block([[np.zeros((n1, n1)), b1], [b1.conj().T, b2]])
    got = eval_Q_via_P(P, (S1, S2), (n1, n2))
    want = extract_Q(p).eval(d0, d1, b1, b2)
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# middle-matrix scan and witness completion

def test_a4_middle_matrix_frozen_values():
    p = a4_poly()
    z = np.zeros((1, 1), dtype=complex)
    inside = middle_matrix(p, z, 0.55 * np.eye(1, dtype=complex),
                           0.55 * np.eye(1, dtype=complex), z)
    assert np.linalg.eigvalsh(matkit.herm(inside.matrix))[0] >= -1e-12
    outside = middle_matrix(p, z, 0.65 * np.eye(1, dtype=complex),
                            0.65 * np.eye(1, dtype=complex), z)
    lam = np.linalg.eigvalsh(matkit.herm(outside.matrix))[0]
    assert lam == pytest.approx(-0.105802225, abs=1e-8)


def test_scan_small_scale_all_psd():
    out = middle_matrix_psd_scan(a4_poly(), sizes=((1, 1), (2, 2)),
                                 samples=15, rng=np.random.default_rng(1),
                                 scale=0.1)
    assert not out.is_witness
    assert out.min_lambda > 0.5


def test_scan_large_scale_finds_witness_and_pair_completes():
    p = a4_poly()
    out = middle_matrix_psd_scan(p, sizes=((1, 1), (2, 2)), samples=60,
                                 rng=np.random.default_rng(2), scale=2.0)
    assert out.is_witness
    assert out.lambda_min < 0
    pw = mxy_witness_pair(p, out)
    assert is_xy_pair(pw.pair.X, pw.pair.Y, pw.pair.V)
    assert pw.value < 0
    # the defect quadratic form recomputed from scratch matches
    rep = xy_convexity_test(p, pw.pair)
    quad = float(np.real(pw.h.conj() @ rep.defect @ pw.h))
    assert quad == pytest.approx(pw.value, rel=1e-8, abs=1e-10)
    assert not rep.is_psd


def test_boundary_witness_value_matches_form():
    p = a4_poly()
    level = 0.65
    e = np.eye(1, dtype=complex)
    z = np.zeros((1, 1), dtype=complex)
    M = middle_matrix(p, z, level * e, level * e, z)
    lam, vecs = np.linalg.eigh(matkit.herm(M.matrix))
    wit = xycvx.MxyWitness(level * e, z, z, level * e,
                           float(lam[0]), vecs[:, 0])
    pw = mxy_witness_pair(p, wit)
    assert pw.value == pytest.approx(float(lam[0]), abs=1e-9)


# one polynomial per reject branch of _reduced_feasibility, with the
# pinned_lambda_min that branch reports
PINNED_REJECTS = {
    "negative-xx": ({"xx": -1.0}, -1.0),
    "negative-yy": ({"yy": -1.0}, -1.0),
    "negative-xyyx": ({"xyyx": -1.0}, -1.0),
    "negative-yxxy": ({"yxxy": -1.0}, -1.0),
    "indefinite-xxy": ({"xx": 1.0, "yxxy": 1.0, "xxy": 2.0, "yxx": 2.0},
                       -1.0),
    "indefinite-yyx": ({"yy": 1.0, "xyyx": 1.0, "yyx": 2.0, "xyy": 2.0},
                       -1.0),
    "square-xyxy": (A4_COEFFS, -1.0),
    "full-pin-dead-column": ({"yxxy": 1.0, "xxy": 1.0, "yxx": 1.0}, -1.0),
    "half-pin-xx-xyx": ({"xx": 1.0, "xyx": 1.0}, -0.5),
    # its negative level lies below 1: -3 s + 4 s^2 < 0 for 0 < s < 3/4
    "half-pin-yxy-yxxy": ({"yxy": -3.0, "yxxy": 4.0}, -1.5),
}


@pytest.mark.parametrize("coeffs, pin", PINNED_REJECTS.values(),
                         ids=PINNED_REJECTS.keys())
def test_pinned_witness_refutes_every_pinned_branch(coeffs, pin):
    p = support_screen(from_coeffs(coeffs))
    gram = gram_complete_certificate(p)
    assert gram.status == "not-certifiable-pinned"
    assert gram.pinned_lambda_min == pytest.approx(pin, abs=1e-12)
    wit = xycvx.pinned_witness(p, matkit.TOL_PSD)
    assert wit is not None and wit.lambda_min < 0
    level = wit.delta0[0, 0]
    assert level in xycvx.PINNED_LEVELS and wit.beta2[0, 0] == level
    assert not wit.delta1.any() and not wit.beta1.any()
    assert mxy_witness_pair(p, wit).recheck() is None


@pytest.mark.parametrize("seed", range(4))
def test_pinned_witness_finds_nothing_on_a_certified_poly(seed):
    p, _ = synthesize_certified(np.random.default_rng(seed), N=2)
    assert xycvx.pinned_witness(support_screen(p)) is None


# dual-certified rejects whose Z has a zero diagonal entry (index into
# (L_x, L_y, L_yx, L_xy)); "dead-column" has c_xx = 0, so the solve never
# frees L_x's entries
DUAL_CORNERS = {
    "zero-y-diagonal": ({"xx": 1.0, "yy": 1.0, "xyyx": 1.0, "yxxy": 1.0,
                         "xyxy": 1.0, "yxyx": 1.0, "xxy": 1.0, "yxx": 1.0,
                         "xyx": -2.0}, 1, -1.0),
    "zero-x-diagonal": ({"xx": 1.0, "yy": 1.0, "xyyx": 1.0, "yxxy": 1.0,
                         "xyxy": 1.0, "yxyx": 1.0, "yyx": 1.0, "xyy": 1.0,
                         "yxy": -2.0}, 0, -1.0),
    "dead-column": ({"yy": 1.0, "xyyx": 1.0, "yxxy": 1.0, "yyx": 0.9,
                     "xyy": 0.9, "xyxy": 0.9, "yxyx": 0.9, "yxy": -1.8},
                    0, -0.8),
}


@pytest.mark.parametrize("coeffs, zero, dual", DUAL_CORNERS.values(),
                         ids=DUAL_CORNERS.keys())
def test_dual_witness_reads_the_dual_value_off_z(coeffs, zero, dual):
    p = support_screen(from_coeffs(coeffs))
    gram = gram_complete_certificate(p)
    assert gram.status == "not-certifiable"
    assert gram.dual_value == pytest.approx(dual, abs=1e-9)
    assert gram.Z[zero, zero].real <= 1e-12
    wit = xycvx.dual_witness(p, gram.Z)
    assert not wit.delta1.any() and not wit.beta1.any()
    for blk in (wit.delta0, wit.beta2):
        assert np.array_equal(blk, blk.conj().T)
    # b* M b at the witness's blocks is the dual value
    M = middle_matrix(p, wit.beta1, wit.beta2, wit.delta0, wit.delta1)
    value = float(np.vdot(wit.vector, M.matrix @ wit.vector).real)
    assert value == pytest.approx(wit.lambda_min, abs=1e-12)
    assert value == pytest.approx(gram.dual_value, abs=1e-9)
    pair = mxy_witness_pair(p, wit)
    assert pair.recheck() is None
    assert pair.value == pytest.approx(gram.dual_value, abs=1e-9)


# ---------------------------------------------------------------------------
# the scan and the stacked verification against per-sample loops

def reference_herm(n, scale, rng):
    """One Gaussian Hermitian draw: real part, then imaginary part, then
    the rescale to spectral norm scale when the norm is larger."""
    H = matkit.herm(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    nH = np.linalg.norm(H, 2)
    return H * (scale / nH) if nH > scale else H


def reference_rect(r, c, scale, rng):
    return (rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))) \
        * scale / np.sqrt(2)


def reference_middle_matrix(p, beta1, beta2, delta0, delta1):
    """The middle matrix as four np.block rows, one point at a time."""
    n1, n2 = delta0.shape[0], beta2.shape[0]
    I1, I2 = np.eye(n1), np.eye(n2)
    b1h, d1h = beta1.conj().T, delta1.conj().T
    M11 = np.block([
        [p.c("xx") * I1 + p.c("xyx") * delta0
         + p.c("xyyx") * (delta0 @ delta0 + delta1 @ d1h),
         p.c("xxy") * I1 + p.c("xyxy") * delta0],
        [p.c("yxx") * I1 + p.c("yxyx") * delta0, p.c("yxxy") * I1]])
    M12 = np.block([
        [p.c("xxy") * beta1 + p.c("xyy") * delta1
         + p.c("xyxy") * (delta0 @ beta1 + delta1 @ beta2),
         p.c("xyyx") * delta1],
        [p.c("yxxy") * beta1, np.zeros((n1, n2))]])
    M21 = np.block([
        [p.c("yxx") * b1h + p.c("yyx") * d1h
         + p.c("yxyx") * (b1h @ delta0 + beta2 @ d1h),
         p.c("yxxy") * b1h],
        [p.c("xyyx") * d1h, np.zeros((n2, n1))]])
    M22 = np.block([
        [p.c("yy") * I2 + p.c("yxy") * beta2
         + p.c("yxxy") * (beta2 @ beta2 + b1h @ beta1),
         p.c("yyx") * I2 + p.c("yxyx") * beta2],
        [p.c("xyy") * I2 + p.c("xyxy") * beta2, p.c("xyyx") * I2]])
    return np.block([[M11, M12], [M21, M22]])


def reference_scan(p, sizes, samples, rng, scale, sampler=None,
                   tol=matkit.TOL_PSD):
    """The per-sample loop: one draw, one middle matrix, one eigh and one
    norm per sample.  Returns (witness index within its size, outcome)."""
    count = 0
    min_lambda = np.inf
    for (n1, n2) in sizes:
        for k in range(samples):
            if sampler is None:
                d0 = reference_herm(n1, scale, rng)
                b2 = reference_herm(n2, scale, rng)
                d1 = reference_rect(n1, n2, scale, rng)
                b1 = reference_rect(n1, n2, scale, rng)
            else:
                d0, d1, b1, b2 = sampler(rng, (n1, n2))
            M = reference_middle_matrix(p, b1, b2, d0, d1)
            lam, vecs = np.linalg.eigh(matkit.herm(M))
            count += 1
            min_lambda = min(min_lambda, float(lam[0]))
            if lam[0] < -tol * max(1.0, float(np.linalg.norm(M, 2))):
                return k, xycvx.MxyWitness(d0, d1, b1, b2, float(lam[0]),
                                           vecs[:, 0])
    return None, xycvx.AllPsdEvidence(count, float(min_lambda))


def level_sampler(rng, nm):
    """Real symmetric delta0, beta2 and complex delta1, beta1 at a random
    norm level, so that a witness may come at any sample."""
    n1, n2 = nm
    level = rng.uniform(0.3, 0.95)
    d0 = rng.normal(size=(n1, n1))
    d0 = level * (d0 + d0.T) / np.linalg.norm(d0 + d0.T, 2)
    b2 = rng.normal(size=(n2, n2))
    b2 = level * (b2 + b2.T) / np.linalg.norm(b2 + b2.T, 2)
    return (d0, reference_rect(n1, n2, level, rng),
            reference_rect(n1, n2, level, rng), b2)


# Mxy is PSD exactly when I + 1.3 delta0 and I + 1.3 beta2 are; the
# witness comes at a random sample
LINEAR_COEFFS = {"xx": 1.0, "yy": 1.0, "xyx": 1.3, "yxy": 1.3}


@pytest.mark.parametrize("use_sampler", [False, True])
def test_block_scan_matches_per_sample_loop(use_sampler):
    sampler = level_sampler if use_sampler else None
    polys = [support_screen(from_coeffs(LINEAR_COEFFS)), a4_poly(),
             support_screen(synthesize_certified(np.random.default_rng(5),
                                                 N=2)[0])]
    seen = set()
    for pi, p in enumerate(polys):
        for nm in ((1, 1), (2, 1), (2, 2), (3, 3)):
            for seed in range(4):
                for scale in (0.5, 0.8):
                    rng1 = np.random.default_rng(seed)
                    rng2 = np.random.default_rng(seed)
                    k, want = reference_scan(p, (nm,), 30, rng1, scale,
                                             sampler)
                    got = middle_matrix_psd_scan(p, sizes=(nm,), samples=30,
                                                 rng=rng2, scale=scale,
                                                 sampler=sampler)
                    assert rng1.bit_generator.state \
                        == rng2.bit_generator.state
                    assert got.is_witness == want.is_witness
                    if want.is_witness:
                        seen.add("first" if k == 0 else "later")
                        for f in ("delta0", "delta1", "beta1", "beta2",
                                  "vector"):
                            assert np.array_equal(getattr(got, f),
                                                  getattr(want, f)), f
                        assert got.lambda_min == want.lambda_min
                    else:
                        seen.add("none")
                        assert got == want
    assert {"first", "later", "none"} <= seen


def test_block_scan_over_several_sizes_matches_per_sample_loop():
    # one generator across sizes: evidence counts and the generator state
    # carry over from one size to the next
    p = support_screen(from_coeffs(LINEAR_COEFFS))
    sizes = ((1, 1), (2, 1), (2, 2), (3, 3))
    for scale in (0.5, 0.7):
        for seed in range(3):
            rng1 = np.random.default_rng(seed)
            rng2 = np.random.default_rng(seed)
            _, want = reference_scan(p, sizes, 9, rng1, scale)
            got = middle_matrix_psd_scan(p, sizes=sizes, samples=9,
                                         rng=rng2, scale=scale)
            assert rng1.bit_generator.state == rng2.bit_generator.state
            assert got.is_witness == want.is_witness
            if not want.is_witness:
                assert got == want


def reference_pair(dims, scale, rng):
    """The per-pair three-block draw, X coupling the top block to the
    second and Y coupling it to the third."""
    n0, n1, n2 = dims

    def draw(side):
        return (reference_herm(n0, scale, rng),
                reference_rect(n0, side, scale, rng),
                reference_herm(n1, scale, rng),
                reference_rect(n1, n2, scale, rng),
                reference_herm(n2, scale, rng))

    def O(r, c):
        return np.zeros((r, c))

    s0, a, b11, b12, b22 = draw(n1)
    X = np.block([[s0, a, O(n0, n2)], [a.conj().T, b11, b12],
                  [O(n2, n0), b12.conj().T, b22]])
    t0, g, d11, d12, d22 = draw(n2)
    Y = np.block([[t0, O(n0, n1), g], [O(n1, n0), d11, d12],
                  [g.conj().T, d12.conj().T, d22]])
    V = np.zeros((n0 + n1 + n2, n0), dtype=complex)
    V[:n0, :n0] = np.eye(n0)
    return X, Y, V


def kron_loop_eval(poly, n, mats):
    out = np.zeros((n, n), dtype=complex)
    for w, c in poly.coeffs.items():
        prod = np.eye(n, dtype=complex)
        for i in w:
            prod = prod @ mats[i]
        out += np.kron(c, prod)
    return out


def reference_verify(pl, samples, rng, dims, scale):
    """Sampled part of verify_certificate, one pair at a time:
    (sampled_ok, min_defect_eig, the pairs)."""
    ok, min_eig, pairs = True, np.inf, []
    for _ in range(samples):
        X, Y, V = reference_pair(dims, scale, rng)
        pairs.append((X, Y))
        Vh = V.conj().T
        big = kron_loop_eval(pl.poly, X.shape[0], (X, Y))
        small = kron_loop_eval(pl.poly, dims[0],
                               (Vh @ X @ V, Vh @ Y @ V))
        rep = matkit.is_psd(matkit.herm(Vh @ big @ V - small))
        min_eig = min(min_eig, float(rep.lambda_min))
        ok = ok and rep.is_psd
    return ok, float(min_eig), pairs


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 2, 3), (3, 1, 2)])
def test_verify_certificate_matches_per_pair_loop(dims):
    seen = set()
    for seed in range(4):
        p, _ = synthesize_certified(np.random.default_rng(seed), N=2)
        pl = support_screen(p)
        res = gram_complete_certificate(pl)
        cert = assemble_certificate(pl, res.F)
        # the xx-negated twin fails the sampled defects, not the identity
        twin = {"".join("xy"[i] for i in w): p.scalar_coeff(w)
                for w in p.words()}
        twin["xx"] = -abs(twin["xx"])
        for poly in (pl, support_screen(from_coeffs(twin))):
            rng1 = np.random.default_rng(seed)
            rng2 = np.random.default_rng(seed)
            ok, min_eig, pairs = reference_verify(poly, 7, rng1, dims, 0.8)
            rep = verify_certificate(poly, cert, samples=7, rng=rng2,
                                     dims=dims)
            assert rng1.bit_generator.state == rng2.bit_generator.state
            assert rep.sampled_ok == ok
            assert rep.min_defect_eig == min_eig
            assert rep.pairs == 7
            seen.add(ok)
            # the size-1 case draws the same pairs
            rng3 = np.random.default_rng(seed)
            for X, Y in pairs:
                pair = sample_xy_pair(dims, 0.8, rng3)
                assert np.array_equal(pair.X, X)
                assert np.array_equal(pair.Y, Y)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# certified polynomials: defect positivity on sampled pairs

@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_certified_polys_pass_sampled_defects(seed):
    rng = np.random.default_rng(seed)
    p, _ = synthesize_certified(rng, N=2)
    pl = support_screen(p)
    for _ in range(5):
        pair = sample_xy_pair((2, 2, 2), 0.8, rng)
        rep = xy_convexity_test(pl, pair)
        assert rep.is_psd, f"defect eig {rep.report.lambda_min}"


# ---------------------------------------------------------------------------
# Gram stage

def test_a4_gram_pinned_rejection():
    res = gram_complete_certificate(a4_poly())
    assert res.status == "not-certifiable-pinned"
    assert not res.is_feasible
    assert res.pinned_lambda_min == pytest.approx(-1.0, abs=1e-10)


# xx = 5e-9 lies below tol scale: the pin xxy = 1e-3 breaks the PSD bound
# |G_03|^2 <= G_00 G_33 on that column, xxy = 5e-5 meets it
@pytest.mark.parametrize("xxy, status", [(1e-3, "not-certifiable-pinned"),
                                         (5e-5, "feasible")])
def test_gram_pins_on_a_vanishing_diagonal(xxy, status):
    pl = support_screen(from_coeffs({"xx": 5e-9, "yxxy": 1.0, "xxy": xxy,
                                     "yxx": xxy}))
    res = gram_complete_certificate(pl)
    assert res.status == status
    if res.is_feasible:
        cert = assemble_certificate(pl, res.F)
        assert max(cert.residuals.values()) <= 1e-12
    else:
        assert res.pinned_lambda_min == -xxy


def test_gram_reduced_lambda_negative_is_not_certifiable():
    # every pin is consistent, but the pinned 4 x 4 Gram cannot be PSD
    pl = support_screen(from_coeffs({
        "xx": 1.0, "yy": 1.0, "xyyx": 1.0, "yxxy": 1.0, "xyxy": 1.0,
        "yxyx": 1.0, "xxy": 1.0, "yxx": 1.0, "xyx": -2.0}))
    res = gram_complete_certificate(pl)
    assert res.status == "not-certifiable"
    assert not res.is_feasible
    assert res.reduced_lambda == pytest.approx(-1.0, abs=1e-6)
    assert res.pinned_lambda_min == pytest.approx(0.0, abs=1e-12)


def test_gram_not_certifiable_carries_a_dual_certificate():
    # the same input; base and the free directions written out by hand
    pl = support_screen(from_coeffs({
        "xx": 1.0, "yy": 1.0, "xyyx": 1.0, "yxxy": 1.0, "xyxy": 1.0,
        "yxyx": 1.0, "xxy": 1.0, "yxx": 1.0, "xyx": -2.0}))
    res = gram_complete_certificate(pl)
    assert res.status == "not-certifiable"
    base = np.array([[1, 0, -1, 1], [0, 1, 0, 0], [-1, 0, 1, 1],
                     [1, 0, 1, 1]], dtype=complex)
    E = np.zeros((4, 4, 4), dtype=complex)
    for i, (v, j, k) in enumerate([(1, 0, 1), (1j, 0, 1), (1j, 0, 2),
                                   (1j, 1, 3)]):
        E[i, j, k], E[i, k, j] = v, np.conj(v)
    Z = res.Z
    assert np.linalg.eigvalsh(Z)[0] >= -1e-12
    assert abs(np.trace(Z).real - 1) <= 1e-10
    for Ei in E:
        assert abs(np.vdot(Ei, Z)) <= 1e-10
    # <G, Z> = <base, Z> for every completion G, and it is negative
    assert np.vdot(base, Z).real == pytest.approx(-1.0, abs=1e-10)
    assert res.dual_value == pytest.approx(np.vdot(base, Z).real, abs=1e-12)
    assert res.solver_steps > 0
    assert 0 < res.gap <= 1e-12


def pinned_family(pl):
    """(base, E) of the Gram of (L_x, L_y, L_yx, L_xy) with every column
    kept: the pins written out here, and the free directions Re and Im of
    G[0, 1], Im of G[0, 2] and Im of G[1, 3]."""
    c = pl.c
    base = np.diag([c("xx").real, c("yy").real, c("xyyx").real,
                    c("yxxy").real]).astype(complex)
    for (j, k), v in {(1, 2): c("yyx"), (0, 3): c("xxy"),
                      (2, 3): c("xyxy")}.items():
        base[j, k], base[k, j] = v, np.conj(v)
    for (j, k), v in {(0, 2): c("xyx"), (1, 3): c("yxy")}.items():
        base[j, k] = base[k, j] = v.real / 2
    E = np.zeros((4, 4, 4), dtype=complex)
    for i, (v, j, k) in enumerate([(1, 0, 1), (1j, 0, 1), (1j, 0, 2),
                                   (1j, 1, 3)]):
        E[i, j, k], E[i, k, j] = v, np.conj(v)
    return base, E


def assert_read_off_the_face(pl, res):
    """res was read off the face of all three pinned blocks with no solve;
    returns (G from max_min_eig on the same family, its solve, the scale
    max(1, max|G| of res))."""
    assert res.solver_steps == 0 and res.gap == 0
    assert res.Z is None
    assert res.face.blocks == ((1, 2), (0, 3), (2, 3))
    scale = max(1.0, float(np.max(np.abs(res.G))))
    assert res.face.residual <= 1e-8 * scale
    base, E = pinned_family(pl)
    sol = matkit.max_min_eig(base, E)
    return base + np.tensordot(sol.theta, E, 1), sol, scale


@pytest.mark.parametrize("seed, scale", [(3, 10.0), (18, 10.0), (0, 1.0),
                                         (1, 0.3), (2, 3.0)])
def test_gram_rank_one_closes_the_gap(seed, scale):
    # a rank-one Gram is the degenerate optimum, a triple zero eigenvalue
    # that the barrier only approaches; its singular pinned blocks give
    # the face it lies on, and the face fixes it with no gap
    p, _ = synthesize_certified(np.random.default_rng(seed), N=1, scale=scale)
    pl = support_screen(p)
    res = gram_complete_certificate(pl)
    assert res.is_feasible, res.status
    assert res.F.shape[0] == 1
    G, _, s = assert_read_off_the_face(pl, res)
    assert np.abs(res.G - G).max() <= 1e-10 * s
    cert = assemble_certificate(pl, res.F)
    assert max(cert.residuals.values()) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=seeds, u=st.floats(-3, 3))
def test_rank_one_grams_are_read_off_their_face(seed, u):
    """The face gives the generator's own Gram, the one PSD completion, at
    rounding level, and it attains the barrier's optimum value.  The
    barrier's G is not compared entrywise: at this degenerate optimum it
    can sit 2e-10 relative away (seed 744902 at 10^2.15, N = 1)."""
    p, (Lx, Ly, Lxy, Lyx, _) = synthesize_certified(
        np.random.default_rng(seed), N=1, scale=10.0 ** u)
    pl = support_screen(p)
    # every column is kept (a diagonal pin above tol scale)
    assume(min(abs(pl.c(w)) for w in ("xx", "yy", "xyyx", "yxxy"))
           > 1e-8 * xycvx._structural_scale(pl))
    res = gram_complete_certificate(pl)
    assert res.is_feasible, res.status
    assert res.F.shape[0] == 1
    _, sol, s = assert_read_off_the_face(pl, res)
    L = np.stack([Lx, Ly, Lyx, Lxy], axis=1)
    assert np.abs(res.G - L.conj().T @ L).max() <= 1e-12 * s
    lam = float(np.linalg.eigvalsh(res.G)[0])
    assert sol.t - 1e-12 * s <= lam <= sol.t + sol.gap + 1e-12 * s
    cert = assemble_certificate(pl, res.F)
    assert max(cert.residuals.values()) \
        <= 1e-8 * xycvx._structural_scale(pl)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_gram_barrier_steps_on_synthesized_grams(N):
    # a Gram of rank two or more has no face to read off; its solve stops
    # at its first completion with lambda_min >= 1e-8 max(1, max|G|):
    # after 3-7 steps, or at theta = 0 (5 of these seeds at N = 3, 7 at
    # N = 4), where the tight solve takes 16-24
    for seed in range(10):
        pl = support_screen(synthesize_certified(np.random.default_rng(seed),
                                                 N=N)[0])
        res, full = gram_complete_certificate(pl), full_gram_certificate(pl)
        assert res.is_feasible and res.face is None and res.Z is None
        assert res.solver_steps <= 7 < 16 <= full.solver_steps <= 24
        # reduced_lambda is lambda_min of the completion taken, at most
        # the maximum that the tight solve finds
        lam = float(np.linalg.eigvalsh(res.G)[0])
        assert res.reduced_lambda == lam
        assert 1e-8 * max(1.0, float(np.abs(res.G).max())) <= lam \
            <= full.reduced_lambda
        assert res.F.shape[0] == 4
        # gap is n mu of the centre the solve stopped at: 0 at theta = 0,
        # else 4 (1e-2)^k of the pins' scale for a stage k before the last
        base, _ = pinned_family(pl)
        if res.solver_steps == 0:
            assert res.gap == 0 and np.array_equal(res.G, base)
        else:
            k = np.log(res.gap / (4 * max(1.0, np.abs(base).max()))) \
                / np.log(1e-2)
            assert k == pytest.approx(round(k), abs=1e-9)
            assert 1 <= round(k) < 7 and res.gap > full.gap


@settings(max_examples=40, deadline=None)
@given(seed=seeds, N=st.integers(1, 4), u=st.floats(-2, 2),
       perturb=st.booleans())
def test_gram_stop_keeps_the_full_solve_outcome(seed, N, u, perturb):
    """The barrier's stop at its first certifying completion changes no
    status; a not-certifiable result is the tight solve's, byte for byte,
    and a stopped feasible G is PSD with margin, factors with all four
    rows and assembles and verifies.  perturb moves xyx and yxy so that
    some Grams are not certifiable."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** u
    p, _ = synthesize_certified(rng, N=N, scale=scale)
    coeffs = {"".join("xy"[i] for i in w): p.scalar_coeff(w)
              for w in p.words()}
    if perturb:
        for w in ("xyx", "yxy"):
            coeffs[w] = coeffs.get(w, 0j) + 2 * scale * rng.normal()
    pl = support_screen(from_coeffs(coeffs))
    res, full = gram_complete_certificate(pl), full_gram_certificate(pl)
    assert res.status == full.status
    if not res.is_feasible:
        assert (res.dual_value, res.solver_steps, res.gap,
                res.reduced_lambda, res.pinned_lambda_min) \
            == (full.dual_value, full.solver_steps, full.gap,
                full.reduced_lambda, full.pinned_lambda_min)
        assert (res.Z is None) == (full.Z is None)
        if res.Z is not None:
            assert res.Z.tobytes() == full.Z.tobytes()
        return
    if (res.solver_steps, res.gap) == (full.solver_steps, full.gap):
        # read off the face, no free entry, or a path that never stopped
        assert np.array_equal(res.G, full.G)
        return
    lam = float(np.linalg.eigvalsh(res.G)[0])
    assert res.reduced_lambda == lam
    assert lam >= 1e-8 * max(1.0, float(np.abs(res.G).max()))
    assert res.face is None and res.F.shape[0] == 4
    assert res.solver_steps < full.solver_steps
    assert res.gap == 0 if res.solver_steps == 0 else res.gap > full.gap
    cert = assemble_certificate(pl, res.F)
    assert max(cert.residuals.values()) \
        <= 1e-8 * xycvx._structural_scale(pl)
    assert verify_certificate(pl, cert, samples=5,
                              rng=np.random.default_rng(seed)).ok


# a dual-certified reject whose first stage centres in 2 steps; a schedule
# that then shrank mu by 1e-4 at once made the next stage take 65 steps
QUICK_FIRST_STAGE = """vars a:  | x: x y
0.32823255031069104 * 1
0.6504689642541498 * x
-2.1887562876763296 * y
3.252383724165774 * x x
4.0033591139024685-1.033425126873885i * x y
4.0033591139024685+1.033425126873885i * y x
6.0667412983162547 * y y
0.0039717045687612165+0.097419606055807947i * x x y
0.0039717045687612165-0.097419606055807947i * y x x
-0.26368945681641232 * y x y
0.067798263390665442-0.050579858073962161i * x y x y
2.4478960595793557 * x y y x
0.0029228882221419557 * y x x y
0.067798263390665442+0.050579858073962161i * y x y x
"""


def test_gram_barrier_stages_stay_short(monkeypatch):
    # every stage of this solve centres in at most 7 steps, so a cap of 10
    # steps per stage does not stop it, and it takes fewer steps in all
    # than the cold start's 28
    monkeypatch.setattr(matkit, "_STAGE_STEPS", 10)
    res = gram_complete_certificate(support_screen(
        parse_poly(QUICK_FIRST_STAGE)))
    assert res.status == "not-certifiable" and res.Z is not None
    assert res.dual_value == pytest.approx(-2.8605377661621e-3, rel=1e-9)
    assert res.solver_steps < 28


def test_gram_solve_is_deterministic():
    pl = support_screen(synthesize_certified(np.random.default_rng(4),
                                             N=3)[0])
    a, b = gram_complete_certificate(pl), gram_complete_certificate(pl)
    assert np.array_equal(a.G, b.G)
    assert np.array_equal(a.F, b.F)
    assert (a.gap, a.solver_steps, a.reduced_lambda) \
        == (b.gap, b.solver_steps, b.reduced_lambda)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, N=st.integers(1, 4), scale=st.sampled_from((0.3, 1, 3)))
def test_gram_pins_hold_by_construction(seed, N, scale):
    rng = np.random.default_rng(seed)
    p, _ = synthesize_certified(rng, N=N, scale=scale)
    pl = support_screen(p)
    res = gram_complete_certificate(pl)
    assert res.is_feasible, res.status
    cert = assemble_certificate(pl, res.F)
    # the solve sets every pin exactly; the factor drops the eigenvalues
    # below 1e-10 of the largest, which bounds what it loses of them
    assert max(cert.residuals.values()) \
        <= 1e-10 * max(1.0, float(np.max(np.abs(res.G))))


@pytest.mark.parametrize("seed", range(4))
def test_gram_factor_rows_carry_the_unit_phase(seed):
    # each row of F is a kept eigenvector under matkit.unit_phase: its
    # largest-modulus entry is real and positive, whatever LAPACK chose
    p, _ = synthesize_certified(np.random.default_rng(seed), N=3)
    F = gram_complete_certificate(support_screen(p)).F
    assert F.shape[1] == 4
    for row in F:
        top = row[np.argmax(np.abs(row))]
        assert top.real > 0 and abs(top.imag) <= 1e-15 * top.real


@settings(max_examples=10, deadline=None)
@given(seed=seeds, N=st.integers(1, 4))
def test_gram_round_trip_certifies_synthesized(seed, N):
    rng = np.random.default_rng(seed)
    p, _ = synthesize_certified(rng, N=N)
    pl = support_screen(p)
    res = gram_complete_certificate(pl)
    assert res.is_feasible, res.status
    cert = assemble_certificate(pl, res.F)
    assert max(cert.residuals.values()) <= 1e-8
    rep = verify_certificate(pl, cert, samples=5, rng=rng)
    assert rep.ok
    assert rep.max_coeff_residual <= 1e-8
    assert rep.min_defect_eig >= -1e-8


def _expand_certificate(cert):
    """Word coefficients of pencil + Lambda* Lambda from a report's
    certificate: the u* v coefficient of Lambda = sum_u L_u u is
    <L_u, L_v>, and the word of u* v is u reversed, then v."""
    L = {u: np.array([complex(*z) for z in vec])
         for u, vec in cert["Lambda"].items()}
    coeffs = {("" if w == "1" else w): complex(*z)
              for w, z in cert["pencil"].items()}
    for u, Lu in L.items():
        for v, Lv in L.items():
            w = u[::-1] + v
            coeffs[w] = coeffs.get(w, 0j) + complex(np.vdot(Lu, Lv))
    return coeffs


@settings(max_examples=20, deadline=None)
@given(seed=seeds, N=st.integers(1, 4),
       scale=st.sampled_from([10.0 ** k for k in range(-3, 5)]))
@example(seed=0, N=1, scale=1e-3)
@example(seed=0, N=4, scale=1e4)
# a rank-one Gram whose xx entry (7.6e-9) lies below tol scale, with pins
# on that column (7.4e-8) that meet |G_jk|^2 <= G_jj G_kk with equality
@example(seed=1308, N=1, scale=1e-3)
def test_xy_certifies_at_every_coefficient_scale(seed, N, scale):
    # the certificate checks are relative to max(1, max |coefficient|), so
    # a certified polynomial stays certified at large coefficients too
    p, _ = synthesize_certified(np.random.default_rng(seed), N=N,
                                scale=scale)
    with tempfile.TemporaryDirectory() as work:
        pfile, out = Path(work, "p.txt"), Path(work, "xy.json")
        pfile.write_text(format_poly(p))
        code = cli.main(["xy", str(pfile), "--out", str(out)])
        res = json.loads(out.read_text())["results"]
    assert code == cli.EXIT_OK
    assert res["verdict"] == "certified"
    want = {"".join("xy"[i] for i in w): p.scalar_coeff(w)
            for w in p.words()}
    got = _expand_certificate(res["certificate"])
    worst = max(abs(got.get(w, 0j) - want.get(w, 0j))
                for w in set(got) | set(want))
    assert worst <= 1e-6 * max([1.0] + [abs(c) for c in want.values()])


@pytest.mark.parametrize("seed", [3, 18])
def test_gram_certifies_large_rank_one(seed):
    # a rank-one Gram has a triple zero eigenvalue; the optimizer's gap below
    # it is clipped out of the pins in the factor step and must stay under
    # the assembly tolerance at coefficients near 100
    p, _ = synthesize_certified(np.random.default_rng(seed), N=1, scale=10.0)
    pl = support_screen(p)
    res = gram_complete_certificate(pl)
    assert res.is_feasible, res.status
    cert = assemble_certificate(pl, res.F)
    assert verify_certificate(pl, cert, samples=5,
                              rng=np.random.default_rng(seed)).ok


def test_certificate_json_round_trip(rng):
    p, _ = synthesize_certified(rng, N=3)
    pl = support_screen(p)
    res = gram_complete_certificate(pl)
    cert = assemble_certificate(pl, res.F)
    back = certificate_from_json(certificate_to_json(cert))
    assert back.N == cert.N
    assert np.allclose(back.Lx, cert.Lx)
    assert np.allclose(back.Lyx, cert.Lyx)
    assert back.pencil == cert.pencil
    r1 = back.reconstruct()
    r2 = cert.reconstruct()
    for w in set(r1.words()) | set(r2.words()):
        assert r1.scalar_coeff(w) == pytest.approx(r2.scalar_coeff(w),
                                                   abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_assemble_rejects_a_perturbed_factor_column(scale):
    # one column of F moved by 1e-6 of Lambda's scale moves a structural
    # identity by about 1e-6 of the coefficient scale, far beyond the
    # bound tol * max(1, max |coefficient|)
    p, _ = synthesize_certified(np.random.default_rng(7), N=2, scale=scale)
    pl = support_screen(p)
    res = gram_complete_certificate(pl)
    assemble_certificate(pl, res.F)
    for col in range(4):
        bad = res.F.copy()
        bad[:, col] += 1e-6 * scale
        with pytest.raises(AssemblyError,
                           match="^structural identity residual "):
            assemble_certificate(pl, bad)


@pytest.mark.parametrize("constant", [0.0, 1e12])
def test_pencil_words_do_not_widen_the_assembly_bound(constant):
    # xyx pins 2 Re <L_x, L_yx> while xyyx = |L_yx|^2 = 0, so there is no
    # certificate, and 1.5e-8 lies above tol; a constant term, which does
    # not bear on xy-convexity, must not loosen the bound
    pl = support_screen(from_coeffs({"": constant, "xx": 1.0, "yy": 1.0,
                                     "yxxy": 1.0, "xyx": 1.5e-8}))
    res = gram_complete_certificate(pl)
    assert res.is_feasible
    with pytest.raises(AssemblyError,
                       match="^structural identity residual 1.50e-08$"):
        assemble_certificate(pl, res.F)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, N=st.integers(1, 4), u=st.floats(-3, 3))
def test_verify_coefficient_residual_matches_the_freepoly_loop(seed, N, u):
    """The word-string dicts of p and of cert.coeffs() give the residual
    of the per-word loop over p and cert.reconstruct(), up to the
    coefficients below COEFF_DROP that the FreePoly drops."""
    p, _ = synthesize_certified(np.random.default_rng(seed), N=N,
                                scale=10.0 ** u)
    pl = support_screen(p)
    cert = assemble_certificate(pl, gram_complete_certificate(pl).F)
    recon = cert.reconstruct()
    loop = max(abs(p.scalar_coeff(w) - recon.scalar_coeff(w))
               for w in set(p.words()) | set(recon.words()))
    rep = verify_certificate(pl, cert, samples=1)
    assert abs(rep.max_coeff_residual - loop) < ncalg.COEFF_DROP
    assert rep.coeff_ok
    assert recon.coeffs.keys() <= {xycvx._w(w) for w in cert.coeffs()}


def test_verify_catches_tampered_certificate(rng):
    p, _ = synthesize_certified(rng, N=2)
    pl = support_screen(p)
    res = gram_complete_certificate(pl)
    cert = assemble_certificate(pl, res.F)
    from dataclasses import replace
    bad = replace(cert, Lx=cert.Lx + 0.1)
    rep = verify_certificate(pl, bad, samples=3, rng=rng)
    assert not rep.coeff_ok


# ---------------------------------------------------------------------------
# hat-substitution probe

def test_hat_probe_decays_on_a4():
    rep = mxy_q_equivalence_probe(a4_poly(), rng=np.random.default_rng(3))
    assert rep.decay_ok
    ts = sorted(rep.deviations)
    assert rep.deviations[ts[-1]] < rep.deviations[ts[0]]


@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_hat_probe_decays_on_random_polys(seed):
    rng = np.random.default_rng(seed)
    p = rand_plpoly(rng)
    rep = mxy_q_equivalence_probe(p, rng=rng, samples=3)
    assert rep.decay_ok
